"""Timing corrected for the speed the machine runs at.

A shared machine's speed can drift by tenths over seconds and over minutes,
with CPU time drifting as wall time does: the processor itself is slower, not
the process waiting. A fixed pure-Python calibration loop, run just before
and just after each timed stretch, measures that speed, and every time is
reported in reference seconds: wall seconds times REFERENCE_S over the loop's
time around it. On a machine that runs the loop in REFERENCE_S a reference
second is a wall second.
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 400e-6  # near the loop's 430-490 us on the machine the README's figures come from
SAMPLES = 7


def _loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


class Speed:
    """Calibration samples, one shared between neighbouring timed stretches."""

    def __init__(self) -> None:
        self._last: float | None = None
        self.samples: list[float] = []

    def sample(self) -> float:
        times = []
        for _ in range(SAMPLES):
            t0 = perf_counter()
            _loop()
            times.append(perf_counter() - t0)
        self._last = statistics.median(times)
        self.samples.append(self._last)
        return self._last

    def begin(self) -> float:
        """The calibration before a stretch: the last sample, if one was taken."""
        return self._last if self._last is not None else self.sample()

    def factor(self, before: float) -> float:
        """Wall-to-reference factor for a stretch that began at `before`,
        sampling the speed again now that it has ended."""
        return REFERENCE_S / ((before + self.sample()) / 2)

    def run(self, fn, *args):
        """(result, reference seconds) of one call."""
        before = self.begin()
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        return out, dt * self.factor(before)
