"""The benchmark's unit of time: one pass of a fixed CPU-bound loop.

The 2-vCPU box this benchmark was written on changes speed by 20-30% over
minutes, and process CPU time stays equal to wall time, so it is the CPU
that slows, not waiting; longer runs do not average it out.  Each benchmark
process times this loop between its operations; dividing an operation's
wall time by the median pass of its process gives its cost in loop passes
("cal").  That follows changes in the code but much less the drift of the
box: on five runs of warm-session the quartile spread of the falsifier's
rate fell from about 0.2 in samples per second to 0.04 in samples per cal.
Raw seconds are recorded next to every calibrated value.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 64)


def calibrate() -> dict:
    """Wall and process CPU time of one pass (about 0.3 s): pure-Python
    arithmetic and small numpy operations, the mix hammcert itself runs."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(1_800_000):
        acc += i * i % 7
    for i in range(18_000):
        np.maximum(_X * 0.5 - 0.25, 0.0).sum()
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
