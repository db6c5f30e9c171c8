"""Show that the benchmark's output checks can fail.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Runs each workload (all by default) once with ``run.py --plant``, which
scales every reference constant by 1.001 and makes the falsifier attack a
deliberately wrong bound (criterion 7's w_1 <= 1/2).  Each run must report
``correct: false`` and an error rate above 0; the script exits 1 otherwise.
Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main(argv) -> int:
    ok = True
    for name in argv or sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--plant"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        rate = result["failed"] / result["attempted"]
        caught = not result["correct"] and rate > 0
        ok &= caught
        print(f"{name}: error_rate {rate:.3f} ({result['failed']}/{result['attempted']}) "
              f"-> {'caught' if caught else 'NOT CAUGHT'}")
        for line in proc.stderr.splitlines()[:6]:
            print(f"  {line[:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
