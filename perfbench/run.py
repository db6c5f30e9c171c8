"""hammcert benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The runner is one closed-loop client: it starts one child process
at a time (child.py), waits for it, and checks its outputs against
references that do not come from hammcert (checks.py).  Every child gets a
fresh interpreter, a fresh working directory and empty temporary, cache and
home directories under ``.perfbench_work/``, which is removed at the end.

Workloads (see BENCHMARK.json for why each exists):
  cold-example  the CLI certify command on example.cfg in fresh interpreters
  cold-tight    the same command on configs/tight.cfg (smooth kernels with
                tight envelopes and moving sign roots)
  warm-session  library use after set-up: falsify, solve, sweep and certify
                with the cone constants cached

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced process running a fixed amount
of work, next to an untraced twin whose time gives the tracing overhead.  The
line before it records machine facts and the calibration loop.  ``--out``
also writes the full record (every child's wall and CPU time) to a file.
``--plant`` perturbs every reference and falsifies a wrong bound; a run with
it must report failures (see selfcheck.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout as it was
# the runner itself only waits; one BLAS thread keeps its CPU time honest
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
from calib import calibrate  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_REPS = {"cold": 5, "warm": 3}
FALSIFY_SAMPLES = 100
COLD_ROUNDS = 4
TRACED_ROUNDS = {"cold": 1, "warm": 2}

WORKLOADS = {
    "cold-example": {"kind": "cold", "config": "example.cfg",
                     "refs": "example", "sweep_rho1": 1e-3},
    "cold-tight": {"kind": "cold", "config": "perfbench/configs/tight.cfg",
                   "refs": "tight", "sweep_rho1": 1e-3},
    "warm-session": {"kind": "warm", "config": "perfbench/configs/example-rho1e-4.cfg",
                     "refs": "example", "sweep_rho1": 1e-4},
}


class Run:
    """One benchmark run: children, their records, and the error count."""

    def __init__(self, root: Path, args, workload: dict):
        self.root = root
        self.args = args
        self.w = workload
        self.config_path = str(root / workload["config"])
        self.config = json.loads(Path(self.config_path).read_text())
        self.refs = checks.references(workload["refs"])
        if args.plant:
            self.refs = checks.perturb(self.refs)
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.started = time.perf_counter()
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.threads = str(len(os.sched_getaffinity(0)))
        self.raw: dict = {}
        self.overhead: dict = {}

    # -- children ----------------------------------------------------------

    def child(self, job: dict) -> dict | None:
        """Run one child in a fresh interpreter and directory; returns its
        result record, or None when it failed."""
        cwd = self.work / f"child-{len(self.children)}"
        env = dict(os.environ)
        for sub in ("tmp", "cache", "home"):
            (cwd / sub).mkdir(parents=True)
        env.update({"TMPDIR": str(cwd / "tmp"), "TEMP": str(cwd / "tmp"),
                    "TMP": str(cwd / "tmp"), "XDG_CACHE_HOME": str(cwd / "cache"),
                    "HOME": str(cwd / "home"), "OPENBLAS_NUM_THREADS": self.threads,
                    "OMP_NUM_THREADS": self.threads, "MKL_NUM_THREADS": self.threads})
        job = {"src": str(self.root / "src"), "config": self.config_path,
               "seed": self.args.seed, "samples": FALSIFY_SAMPLES,
               "sweep_rho1": self.w["sweep_rho1"],
               "plant_bound": bool(self.args.plant), **job}
        timeout = max(5.0, TIME_LIMIT_S - (time.perf_counter() - self.started))
        t = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", "-B", str(HERE / "child.py"), json.dumps(job)],
                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=timeout)
            wall = time.perf_counter() - t
            failure = None if proc.returncode == 0 else \
                f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        except subprocess.TimeoutExpired:
            wall, failure = time.perf_counter() - t, f"timed out after {timeout:.0f} s"
        result = None
        if failure is None:
            try:
                result = json.loads((cwd / "result.json").read_text())
                if job.get("trace"):
                    head, rows = tracing.read_spans(cwd / "spans.jsonl")
                    result["layers"] = tracing.layer_metrics(head, rows)
            except (OSError, ValueError, KeyError) as e:
                result, failure = None, f"unreadable output: {e!r}"
        self.children.append({"mode": job["mode"], "trace": bool(job.get("trace")),
                              "process_wall_s": wall, "failure": failure,
                              **{k: v for k, v in (result or {}).items()
                                 if k in ("import_s", "assemble_s", "setup_s",
                                          "certify_s", "cal_passes", "wall_s",
                                          "cpu_s", "peak_rss_mb", "spans")}})
        shutil.rmtree(cwd, ignore_errors=True)
        if failure is not None:
            self.verify([f"{job['mode']} child: {failure}"])
        return result

    def verify(self, errors: list) -> None:
        """Count one operation and its failure, if any."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    # -- output checks -------------------------------------------------------

    def check_child(self, res: dict) -> None:
        try:
            self._check_child(res)
        except Exception as e:  # a malformed output is a failed operation
            self.verify([f"output not checkable: {e!r}"])

    def _check_child(self, res: dict) -> None:
        if "certify" in res:  # cold mode; warm certifies inside its rounds
            self.verify(checks.check_certify(
                res["certify"], res["certify_exit"], self.refs, self.config,
                self.w["refs"], res["flip_exit"]))
        else:
            flip = [] if self.w["refs"] != "example" or res["flip_exit"] == 10 else \
                [f"eta21 + 1e-6 gave exit {res['flip_exit']}; expected 10"]
            self.verify(flip)
        errs = [] if res["constants_exit"] == 0 else [f"constants exit {res['constants_exit']}"]
        self.verify(errs + checks.check_constants(res["constants"], self.refs,
                                                  self.w["refs"]))
        for rec in res["rounds"]:
            self.verify(checks.check_falsify(rec))
            self.verify(checks.check_solve(rec))
            self.verify(checks.check_sweep(rec, self.refs, self.config,
                                           self.w["sweep_rho1"]))
            if "certify" in rec:
                self.verify(checks.check_certify(
                    rec["certify"], rec["certify_exit"], self.refs, self.config,
                    self.w["refs"]))

    def setup_children(self, count: int) -> list:
        samples = []
        for _ in range(count):
            res = self.child({"mode": "setup", "assemble": self.w["kind"] == "warm"})
            if res is not None:
                self.verify([])
                samples.append(res["setup_s"])
        return samples

    # -- workloads -----------------------------------------------------------

    def measure(self) -> dict:
        """Untraced run: end-to-end metrics."""
        kind = self.w["kind"]
        # the warm session child sets up once more itself
        setups = self.setup_children(SETUP_REPS[kind] - (kind == "warm"))
        results = []
        t0 = time.perf_counter()
        if kind == "cold":
            while True:
                res = self.child({"mode": "cold", "rounds": COLD_ROUNDS})
                if res is not None:
                    results.append(res)
                if time.perf_counter() - t0 >= self.args.seconds:
                    break
        else:
            res = self.child({"mode": "warm", "seconds": self.args.seconds})
            results = [res] if res is not None else []
        for res in results:
            self.check_child(res)
            setups.append(res["setup_s"])
        if not results:
            return {}
        # every operation is divided by the median calibration pass of the
        # child that ran it (calib.py); a cold certify, which lasts seconds
        # and runs first, by the median of the three passes nearest to it:
        # before it, after it and after the first session round
        cal = {id(res): statistics.median(res["cal_passes"]) for res in results}
        rounds = [(rec, cal[id(res)]) for res in results for rec in res["rounds"]]
        if kind == "cold":
            certify = [(res["certify_s"], statistics.median(res["cal_passes"][:3]))
                       for res in results]
        else:
            certify = [(rec["certify_s"], c) for rec, c in rounds]
        med = statistics.median
        self.raw = {
            "certify_s": med(s for s, _ in certify),
            "falsify_samples_per_s": med(r["samples"] / r["falsify_s"] for r, _ in rounds),
            "solve_s": med(r["solve_s"] for r, _ in rounds),
            "sweep_points_per_s": med(len(r["sweep"]) / r["sweep_s"] for r, _ in rounds),
            "cal_s": med(cal.values()),
        }
        return {
            "setup_s": med(setups),
            "certify_cal": med(s / c for s, c in certify),
            "falsify_samples_per_cal": med(r["samples"] * c / r["falsify_s"]
                                           for r, c in rounds),
            "solve_cal": med(r["solve_s"] / c for r, c in rounds),
            "sweep_points_per_cal": med(len(r["sweep"]) * c / r["sweep_s"]
                                        for r, c in rounds),
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        }

    def trace(self) -> dict:
        """Traced run: a fixed amount of work, untraced then traced."""
        kind = self.w["kind"]
        job = {"mode": kind, "rounds": TRACED_ROUNDS[kind]}
        plain = self.child(job)
        traced = self.child({**job, "trace": True,
                             "run_id": f"{self.args.workload}-{self.args.seed}"})
        for res in (plain, traced):
            if res is not None:
                self.check_child(res)
        if plain is None or traced is None:
            return {}
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        self.overhead = {key: traced[key] - plain[key]
                         for key in ("wall_s", "setup_s", "certify_s") if key in plain}
        for key in ("falsify_s", "solve_s", "sweep_s", "certify_s"):
            if key in plain["rounds"][0]:
                self.overhead[f"rounds.{key}"] = (
                    sum(r[key] for r in traced["rounds"])
                    - sum(r[key] for r in plain["rounds"]))
        return layers


UNITS = {"setup_s": "s", "certify_cal": "cal", "falsify_samples_per_cal": "1/cal",
         "solve_cal": "cal", "sweep_points_per_cal": "1/cal", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "points" if name.endswith(("points", "points_per_integral")) else "count"


def machine_facts(root: Path, threads: str) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # show_config's layout differs across numpy versions
        blas = {"name": "unknown"}
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        lines = proc.stdout.split()
        # only the checkout's own repository, not one it happens to sit in
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]) == root:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": threads,
            "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record of the run here")
    ap.add_argument("--plant", action="store_true",
                    help="perturb the references and plant a wrong bound")
    args = ap.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/hammcert/__init__.py", workload["config"])
               if not (root / p).is_file()]
    if missing:
        sys.stderr.write(f"run.py: not a hammcert checkout, missing {missing}\n")
        return 2

    run = Run(root, args, workload)
    calibration = {"start": calibrate()}
    facts = machine_facts(root, run.threads)
    try:
        if args.trace:
            values = run.trace()
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        else:
            values = run.measure()
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    calibration["end"] = calibrate()

    failed = run.failed
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts, "calibration": calibration,
              "children": run.children, "attempted": run.attempted, "failed": failed,
              "error_rate": failed / max(run.attempted, 1), "errors": run.errors,
              "metrics": metrics}
    if args.trace:
        record["tracing_overhead_s"] = run.overhead
    else:
        record["raw_metrics"] = run.raw
    for error in run.errors:
        sys.stderr.write(f"check failed: {error}\n")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if not values:
        sys.stderr.write("run.py: no child completed; no metrics to report\n")
        return 1
    print(json.dumps({"facts": facts, "calibration": calibration,
                      "error_rate": record["error_rate"],
                      "raw_metrics": run.raw, "tracing_overhead_s": run.overhead}))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
