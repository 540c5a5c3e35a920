"""Interpreter-speed probe for op costs that hold still on a shared host.

On a shared machine, other tenants slow every op by up to about 1.6x,
in phases that last from seconds to minutes, so a wall-clock median
moves by tens of percent from run to run. The slowdown also hits a
fixed pure-Python kernel. While ops run, a SIGALRM handler times that
kernel every INTERVAL seconds. An op's cost is its own time, less
the handler's, divided by the median kernel time sampled within WINDOW
seconds of it: a count of kernel runs, in unit "ref".

The program and the kernel do not slow by the same factor (the kernel
slows more than the path search, about as much as exact rank), so the
reported figure is the median cost over the half of the ops that ran
while the kernel was fastest.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.05
WINDOW = 0.25


def reference_kernel() -> int:
    """Fixed integer, list and dict work, about 1 ms on a 2020s core."""
    a = [[(i * 31 + j * 17) % 97 - 48 for j in range(24)] for i in range(24)]
    acc = 0
    for _ in range(6):
        for i in range(24):
            row = a[i]
            for j in range(24):
                acc += row[j] * a[j][i] // 3
    counts: dict[int, int] = {}
    for k in range(3000):
        counts[k % 101] = counts.get(k % 101, 0) + k
    return acc + len(counts)


class SpeedProbe:
    """Context manager that samples the kernel time while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def cost(self, start: float, end: float) -> tuple[float, float]:
        """(median kernel seconds near the op, op cost in kernel runs) for
        the op that ran from start to end."""
        inside = sum(self.seconds[bisect.bisect_left(self.starts, start):bisect.bisect_left(self.starts, end)])
        near = self.seconds[bisect.bisect_left(self.starts, start - WINDOW):bisect.bisect_right(self.starts, end + WINDOW)]
        kernel = statistics.median(near or self.seconds)
        return kernel, (end - start - inside) / kernel

    def quiet_median(self, spans) -> float:
        """Median cost over the half of the ops (at least one) that saw the
        fastest kernel."""
        costs = sorted(self.cost(start, end) for start, end in spans)
        return statistics.median(c for _, c in costs[: max(1, len(costs) // 2)])
