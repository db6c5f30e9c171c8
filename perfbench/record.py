"""Write a result file: every workload run untraced and traced on one seed.

    python3 perfbench/record.py --seed N --out perfbench/results/BENCH_1.json

Run it from the root of a checkout.  The file holds, per workload, the full
record of ``run.py --trace 0`` and ``run.py --trace 1`` (machine facts,
calibration loop, every child's wall and CPU time, metrics, and for the
traced run the tracing overhead: traced minus untraced time of the same
fixed work).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds,
           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "workloads": {}}
    work = Path.cwd() / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in sorted(WORKLOADS):
            runs = {}
            for trace in (0, 1):
                path = Path(tmp) / f"{name}-{trace}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--out", str(path)], check=True,
                    stdout=subprocess.DEVNULL)
                runs[f"trace{trace}"] = json.loads(path.read_text())
            doc["workloads"][name] = runs
    try:
        work.rmdir()
    except OSError:
        pass
    doc["facts"] = doc["workloads"][sorted(WORKLOADS)[0]]["trace0"]["facts"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
