"""Wall times scaled to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts by up to 2x in
phases lasting from seconds to minutes, so the wall times of one run say as
much about the neighbours as about the program. `Clock` times a fixed
reference computation (stdlib only, shaped like hyperhom's hot loops: tuple
keys in dicts, Fraction sums, row reductions on int lists) about every
REF_EVERY_S seconds of a run, between commands, and `factor()` is
REF_NOMINAL_S over the median reference time. A run's wall times multiplied
by it are seconds on a machine where the reference takes REF_NOMINAL_S. On
one 2-vCPU VM this cut the spread of 12-second means of classify commands
from 19% to 7% (interquartile range over median, 14 blocks).
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.04
REF_EVERY_S = 0.5
MAX_CATCH_UP = 5  # reference runs taken at once after a long command


def reference_work() -> int:
    """Fixed computation timed as the speed reference (0.03 to 0.06 s)."""
    table: dict[tuple[int, ...], Fraction] = {}
    for i in range(6000):
        key = tuple(sorted((i % 17, i % 13, i % 11)))
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1)
    rows = [[(i * j + 3) % 11 for j in range(80)] for i in range(80)]
    for p in range(80):
        pivot = rows[p]
        for r in range(p + 1, 80):
            f = rows[r][p]
            if f:
                rows[r] = [(x - f * y) % 11 for x, y in zip(rows[r], pivot)]
    return len(table) + sum(map(sum, rows))


class Clock:
    """Reference timings of one run and the speed factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        """Time the reference computation `count` times."""
        for _ in range(count):
            started = perf_counter()
            reference_work()
            self._last = perf_counter()
            self.times.append(self._last - started)

    def sample_if_due(self) -> None:
        """Keep about one reference timing per REF_EVERY_S since the last one."""
        due = int((perf_counter() - self._last) / REF_EVERY_S) if self.times else 1
        self.sample(min(due, MAX_CATCH_UP))

    def factor(self) -> float:
        """Multiplier from this run's wall seconds to nominal seconds."""
        return REF_NOMINAL_S / statistics.median(self.times)
