"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
Python code drifts by tens of percent from one second to the next, so raw
latency medians from two runs of identical code disagree. The benchmark
therefore runs a fixed piece of pure-Python work (dict updates on tuple
keys, float min/max, formatting and sorting, the operations ``paps`` is
made of) between timed ops, on the same CPU, and scales each op's latency
by the reference time over the median calibration time within a quarter
second of the op. Ops dominated by interpreter start-up are calibrated with a fresh
interpreter that runs the same work. A reported time is thus the time the
op would take at the speed the calibration reaches when the host is quiet.
The raw medians are printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Median calibration times on a quiet 2-vCPU x86-64 host with CPython 3.11:
# the work in this process, and a fresh interpreter that runs it.
REFERENCE_S = 0.004
PROCESS_REFERENCE_S = 0.06
WINDOW_S = 0.25


def sample() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(6000):
        key = (i % 89, i % 7)
        table[key] = max(table.get(key, 0.0), min(i * 0.37, 97.5))
    sorted(f"{v:.4f}" for v in table.values())
    return time.perf_counter() - start


class Calibration:
    """Calibration samples, each stamped with the moment it started.

    ``sampler`` returns the seconds one calibration took and ``reference``
    is its time on a quiet host.
    """

    def __init__(self, sampler=sample, reference: float = REFERENCE_S):
        self.sampler = sampler
        self.reference = reference
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.take(1)

    def take(self, n: int) -> None:
        for _ in range(n):
            self.stamps.append(time.perf_counter())
            self.samples.append(self.sampler())

    def after(self) -> None:
        """Calibrate after an op, spending at most a fifth of the time on it:
        one sample per four sample-lengths since the last, at most eight."""
        since = time.perf_counter() - self.stamps[-1]
        self.take(min(8, int(since / (4 * self.samples[-1]))))

    def factor(self, start: float, end: float) -> float:
        """Latency factor for an op that ran from ``start`` to ``end``."""
        lo = min(bisect.bisect_left(self.stamps, start - WINDOW_S), len(self.stamps) - 1)
        hi = max(lo + 1, bisect.bisect_right(self.stamps, end + WINDOW_S))
        return self.reference / statistics.median(self.samples[lo:hi])


if __name__ == "__main__":
    sample()
