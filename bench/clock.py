"""Host-speed calibration: quote every time at a reference host speed.

On the shared 2-core boxes this benchmark runs on, host speed drifts by
tens of percent over tens of seconds: a fixed pure-Python loop measured
anywhere between 0.7 and 1.4 ms depending on the minute, and the same
rep of the same seed in one process took 1.0-2.4 s.  Raw host time
therefore does not repeat within any useful bound.  A :class:`Clock`
samples a fixed calibration ``spin`` around (and, between ops, inside)
everything timed, and every reported time is raw seconds divided by the
local slowdown, ``local spin time / SPIN_REF_S``.  That brought
same-code medians from a 13-19 % inter-quartile spread to 3-5 %.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

#: Times are quoted at the host speed at which ``spin`` takes this long.
SPIN_REF_S = 2.5e-3
#: While ops run, the clock takes a sample at most this often (~5 % of a run).
SPIN_EVERY_S = 0.05

_KEYS = [f"k{i}" for i in range(3500)]
_LEFT = np.arange(64, dtype=float)
_RIGHT = _LEFT[::-1].copy()


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b


def spin() -> float:
    """The calibration unit: ~2.5 ms of the operation mix the program runs.

    Five parts of about equal cost - integer bytecode, string-keyed dict
    traffic, list/tuple allocation and sorting, small NumPy calls, slotted
    objects - because the host does not slow them all by the same factor:
    a pure-integer loop alone tracked ``city_tick`` but not
    ``socialnet_mesh`` (NumPy-call bound).
    """
    total = 0
    for i in range(11_000):
        total += i * i
    table = {}
    for key in _KEYS:
        table[key] = len(key)
    for key in _KEYS:
        total += table[key]
    for key in _KEYS:
        del table[key]
    scattered = [(i * 7919) % 1009 for i in range(2500)]
    total += len([(a, b) for a, b in zip(scattered, sorted(scattered))])
    for _ in range(190):
        total += np.array_equal(np.minimum(_LEFT, _RIGHT), _LEFT)
    for cell in [_Cell(i, float(i)) for i in range(1500)]:
        total += cell.a * cell.b
    return total


class Clock:
    """Host-speed samples on one timeline, and the slowdown between two instants."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> float:
        """Run the spin ``count`` times; returns when the last one ended."""
        for _ in range(count):
            start = perf_counter()
            spin()
            end = perf_counter()
            self.at.append(start)
            self.took.append(end - start)
        return end

    def slowdown(self, start: float, end: float) -> float:
        """Median spin time around ``[start, end]`` over the reference (1 = nominal)."""
        low = max(0, bisect_right(self.at, start) - 2)
        high = min(len(self.at), bisect_left(self.at, end) + 2)
        return median(self.took[low:high]) / SPIN_REF_S

    def timed(self, fn, *args):
        """``(result, seconds at reference speed, raw seconds)`` of one call."""
        start = self.sample(2)
        result = fn(*args)
        end = perf_counter()
        self.sample(2)
        return result, (end - start) / self.slowdown(start, end), end - start
