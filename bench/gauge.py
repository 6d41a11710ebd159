"""Speed gauge: scales wall times to a fixed reference speed.

This machine's speed drifts by up to 1.7x over tens of seconds as other
tenants load the host. A fixed calibration kernel, timed next to each
measurement, drifts with it, so a time multiplied by CALIBRATION_S over the
kernel's time reads the same in fast and slow spells: it is the time the
measurement would take on a machine where the kernel takes CALIBRATION_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALIBRATION_S = 0.01
GAUGE_WINDOW_S = 1.5


def calibrate() -> float:
    """Wall time of a fixed kernel mixing the program's two kinds of work:
    pure-Python dict, set and sort loops, and small numpy RNG and argsort calls."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) & 3
    houses = set(range(1500))
    for _ in range(6):
        acc += len({h for h in houses if h % 3})
        acc += sorted(houses, key=lambda h: -h)[0]
    for key in range(20):
        bits = np.random.PCG64(np.random.SeedSequence([key, 3]))
        order = np.argsort(-np.random.Generator(bits).random((20, 60)), axis=1, kind="stable")
        acc += sum(int(h) for h in order[0])
    return time.perf_counter() - start


class SpeedGauge:
    """Scales wall times to a machine on which `calibrate()` takes CALIBRATION_S.

    The kernel runs after every operation. An operation's factor is
    CALIBRATION_S over the larger of two kernel times: the median within
    GAUGE_WINDOW_S of it, which follows slow drift and ignores one-off
    blips, and the mean of the readings just before and just after it,
    which catches a slow spell that covers the operation itself.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.read()

    def read(self) -> None:
        self.readings.append((time.perf_counter(), calibrate()))

    def factor(self, at: float) -> float:
        """Scale factor of an operation that ended at `at`."""
        nearest = sorted(self.readings, key=lambda r: abs(r[0] - at))
        near = [c for t, c in nearest if abs(t - at) <= GAUGE_WINDOW_S] or [c for _, c in nearest[:2]]
        before = max((r for r in self.readings if r[0] <= at), default=nearest[0])
        after = min((r for r in self.readings if r[0] > at), default=nearest[0])
        return CALIBRATION_S / max(statistics.median(near), (before[1] + after[1]) / 2)
