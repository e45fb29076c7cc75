"""Host speed from a fixed pure-Python burst, to report times at reference speed.

The speed of a shared host drifts by up to 2x within seconds and across
minutes (other tenants), and its two CPUs need not run at the same speed, so
a program's time drifts with it.  The burst's reference duration
``REF_BURST_S`` divided by its measured duration is the speed of the CPU the
calling process runs on.  A call's CPU time divided by the speed measured
right around it, in the same process, is its time at reference speed.
"""

from __future__ import annotations

import time

BURST_LOOP = 100_000
REF_BURST_S = 0.010
BURSTS = 3


def _burst() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(BURST_LOOP):
        k = i % 997
        counts[k] = counts.get(k, 0) + 1
    "".join(map(str, counts.values()))
    return time.perf_counter() - t0


def measure() -> tuple[float, float]:
    """(speed relative to the reference, seconds the measurement took)."""
    times = sorted(_burst() for _ in range(BURSTS))
    return REF_BURST_S / times[len(times) // 2], sum(times)
