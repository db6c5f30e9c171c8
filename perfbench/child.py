"""One benchmark process: set-up, a cold certify, or a warm library session.

Run as ``python3 -I -B child.py '<json job>'`` from a fresh working
directory; run.py builds the job.  The child writes
``result.json`` (timings, resource use and every output run.py checks)
into its working directory, and ``spans.jsonl`` when the job is traced.

Job keys:
  mode        "setup" | "cold" | "warm"
  src         directory holding the hammcert package
  config      config file the workload runs on
  assemble    setup mode: also assemble the cone constants
  rounds      session rounds to run (cold and warm modes), or
  seconds     warm mode: run rounds until this much time has passed
  seed        base seed of the falsifier
  samples     falsifier samples per round
  sweep_rho1  inner radius of the sweep
  plant_bound falsify a deliberately wrong bound (self-check)
  trace       install the tracer; run_id names its spans
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

CERTIFY = ["--mode", "Sstar", "--rho1", "1e-3", "--rho2", "1"]
# short operations are repeated within a round and their median kept
CERTIFY_REPEATS = 5
SOLVE_REPEATS = 3
SWEEP_AXES = (("lambda1", 0.0, 0.1, 11), ("eta11", 0.0, 0.5, 11))


def main(job: dict) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hammcert.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if job.get("trace"):
        import tracing
        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    # imported after install so that the names below are the wrapped ones
    import hammcert as hc
    from calib import calibrate

    loads = []
    real_load = cli.load_config

    def timed_load(path):
        t = time.perf_counter()
        try:
            return real_load(path)
        finally:
            loads.append(time.perf_counter() - t)

    cli.load_config = timed_load
    out = {"import_s": import_s, "cal_passes": []}
    cal = lambda: out["cal_passes"].append(calibrate()["wall_s"])
    cfg = job["config"]

    if job["mode"] == "setup":
        spec = timed_load(cfg)
        if job.get("assemble"):
            t = time.perf_counter()
            hc.assemble_cone_constants(spec)
            out["assemble_s"] = time.perf_counter() - t
        out["setup_s"] = import_s + loads[0] + out.get("assemble_s", 0.0)
    elif job["mode"] == "cold":
        cal()
        t = time.perf_counter()
        code = cli.main(["certify", cfg, *CERTIFY, "--out", "certify.json"])
        wall = time.perf_counter() - t
        cal()
        out["setup_s"] = import_s + loads[-1]
        out["certify_s"] = wall - loads[-1]
        out["certify_exit"] = code
        out["certify"] = _read_json("certify.json")
        _after_certify(cli, cfg, out)
        spec = hc.load_config(cfg)
        cc = hc.assemble_cone_constants(spec)
        out["rounds"] = _session(hc, spec, cc, job, cal, deadline=None)
    else:
        spec = timed_load(cfg)
        t = time.perf_counter()
        cc = hc.assemble_cone_constants(spec)
        out["assemble_s"] = time.perf_counter() - t
        out["setup_s"] = import_s + loads[0] + out["assemble_s"]
        cal()
        deadline = None
        if job.get("seconds") is not None:
            deadline = time.perf_counter() + job["seconds"]
        out["rounds"] = _session(hc, spec, cc, job, cal, deadline, cli=cli,
                                 cfg=cfg, loads=loads)
        _after_certify(cli, cfg, out)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        out["spans"] = tracer.dump("spans.jsonl")
    with open("result.json", "w") as fh:
        json.dump(out, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _after_certify(cli, cfg, out) -> None:
    """Untimed follow-ups: the constants report and criterion 3's flip."""
    out["constants_exit"] = cli.main(["constants", cfg, "--out", "constants.json"])
    out["constants"] = _read_json("constants.json")
    out["flip_exit"] = cli.main(["certify", cfg, *CERTIFY, "--set", "eta21=0.500001",
                                 "--out", "flip.json"])


def _session(hc, spec, cc, job, cal, deadline, cli=None, cfg=None, loads=None) -> list:
    """Library use once constants are cached: falsify, solve, sweep and, in
    the warm workload, certify commands.  A calibration pass follows each
    round."""
    axes = [hc.SweepAxis(*ax) for ax in SWEEP_AXES]
    db1 = spec.bounds_at(job["sweep_rho1"])
    db = spec.bounds_at(1.0)
    if job.get("plant_bound"):
        # criterion 7's deliberately wrong bound: w_1 <= 1/2
        first = db.components[0]
        db = hc.DeclaredBounds(1.0, (hc.ComponentBounds(
            w_lo=first.w_lo, w_hi=0.5, f_hi=first.f_hi, f_lo=first.f_lo,
            delta_tilde=first.delta_tilde, xi_tilde=first.xi_tilde, h=first.h),
            *db.components[1:]))
    rounds = []
    r = 0
    while True:
        if deadline is None:
            if r >= job["rounds"]:
                break
        elif r > 0 and time.perf_counter() >= deadline:
            break
        seed = job["seed"] * 1000 + r
        rec = {"seed": seed}
        t = time.perf_counter()
        rep = hc.falsify_bounds(spec, cc, db, job["samples"], seed)
        rec["falsify_s"] = time.perf_counter() - t
        rec["samples"] = rep.samples
        rec["violations"] = [v.kind for v in rep.violations]

        times = []
        for _ in range(SOLVE_REPEATS):
            t = time.perf_counter()
            sol = hc.solve_fixed_point(spec, cc=cc, rho_interval=(1e-3, 1.0))
            times.append(time.perf_counter() - t)
        rec["solve_s"] = statistics.median(times)
        rec["solve"] = {"converged": sol.converged, "residual": sol.residual,
                        "iterations": sol.iterations,
                        "member": sol.membership.member,
                        "norm": sol.norms.overall}

        t = time.perf_counter()
        res = hc.sweep(spec, cc, axes, mode="Sstar", db1=db1, db2=spec.bounds_at(1.0),
                       i0=1, nonexistence={"db": spec.bounds_at(1.0),
                                           "setI": [2], "setJ": [1]})
        rec["sweep_s"] = time.perf_counter() - t
        rec["sweep"] = [[row["lambda1"], row["eta11"], row["verdict"]]
                        for row in res.rows]

        if cli is not None:
            times = []
            for _ in range(CERTIFY_REPEATS):
                t = time.perf_counter()
                code = cli.main(["certify", cfg, *CERTIFY, "--out", "certify.json"])
                times.append(time.perf_counter() - t - loads[-1])
            rec["certify_s"] = statistics.median(times)
            rec["certify_exit"] = code
            rec["certify"] = _read_json("certify.json")
        cal()
        rounds.append(rec)
        r += 1
    return rounds


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
