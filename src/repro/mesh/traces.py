"""Bandwidth traces: time series of link capacity.

A :class:`BandwidthTrace` is a step function over time — the capacity
observed (or synthesized) at sample instants, held constant until the
next sample.  Traces can be replayed cyclically so a 20-minute trace can
drive an arbitrarily long experiment, matching how the paper replays the
CityLab capture.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import TraceError


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (compare to Fig 2's captions)."""

    mean_mbps: float
    std_mbps: float
    min_mbps: float
    max_mbps: float

    @property
    def rel_std(self) -> float:
        """Standard deviation as a fraction of the mean."""
        return self.std_mbps / self.mean_mbps if self.mean_mbps else 0.0


class BandwidthTrace:
    """A piecewise-constant bandwidth time series in Mbps.

    Args:
        times: strictly increasing sample instants (seconds), starting
            at any offset; the first sample's value also covers all
            earlier times.
        values_mbps: capacity at each instant; must be finite and
            non-negative.
        loop: replay the trace cyclically past its end (default True).

    Example:
        >>> trace = BandwidthTrace([0, 10, 20], [5.0, 8.0, 3.0])
        >>> trace.value_at(12.5)
        8.0
    """

    def __init__(
        self,
        times: Sequence[float],
        values_mbps: Sequence[float],
        *,
        loop: bool = True,
    ) -> None:
        if len(times) != len(values_mbps):
            raise TraceError("times and values must have equal length")
        if len(times) == 0:
            raise TraceError("trace must contain at least one sample")
        self._times = np.asarray(times, dtype=float)
        self._values = np.asarray(values_mbps, dtype=float)
        # ``<= 0`` and ``< 0`` are false for NaN: check finiteness first.
        if not np.all(np.isfinite(self._times)):
            raise TraceError("trace times must be finite")
        if np.any(np.diff(self._times) <= 0):
            raise TraceError("trace times must be strictly increasing")
        if not np.all(np.isfinite(self._values)):
            raise TraceError("trace values must be finite")
        if np.any(self._values < 0):
            raise TraceError("trace values must be non-negative")
        self._loop = loop
        self._t0 = float(self._times[0])
        # Period of one replay cycle: assume the spacing after the last
        # sample equals the median sample spacing (exact for uniform grids).
        if len(self._times) > 1:
            tail = float(np.median(np.diff(self._times)))
        else:
            tail = 1.0
        self._period = float(self._times[-1] - self._t0 + tail)

    @property
    def times(self) -> np.ndarray:
        return self._times.copy()

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    @property
    def duration(self) -> float:
        """Length of one replay cycle in seconds."""
        return self._period

    @property
    def loops(self) -> bool:
        return self._loop

    def value_at(self, t: float) -> float:
        """Capacity in Mbps at simulation time ``t`` (step interpolation)."""
        if self._loop:
            t = self._t0 + ((t - self._t0) % self._period)
        elif t > self._times[-1] + self._period:
            raise TraceError(
                f"time {t} beyond non-looping trace end "
                f"{self._times[-1] + self._period}"
            )
        index = bisect.bisect_right(self._times, t) - 1
        if index < 0:
            index = 0
        return float(self._values[index])

    def index_and_expiry(self, t: float) -> tuple[int, float]:
        """Sample index at ``t`` plus a conservative hold deadline.

        Returns ``(index, expiry)`` such that ``value_at(t')`` equals
        ``value_at(t)`` for every ``t'`` in ``[t, expiry)``.  ``expiry``
        is nudged a hair *early* (a relative 1e-9 margin) so that a
        caller caching the value re-reads at — never after — the true
        segment boundary even when the cyclic-replay arithmetic rounds
        by an ulp; a re-read recomputes the exact same value, so early
        expiry costs a lookup, while late expiry would serve a stale
        sample.  Raises like :meth:`value_at` past a non-looping end.
        """
        if self._loop:
            local = self._t0 + ((t - self._t0) % self._period)
        else:
            if t > self._times[-1] + self._period:
                raise TraceError(
                    f"time {t} beyond non-looping trace end "
                    f"{self._times[-1] + self._period}"
                )
            local = t
        index = bisect.bisect_right(self._times, local) - 1
        if index < 0:
            index = 0
        if index + 1 < len(self._times):
            hold = float(self._times[index + 1]) - local
        elif self._loop:
            # Final segment of a cycle: the next boundary is the replay
            # wrapping back to the first sample.
            hold = self._t0 + self._period - local
        else:
            hold = float(self._times[-1]) + self._period - local
        expiry = t + hold
        expiry -= 1e-9 * (abs(expiry) + 1.0)
        return index, expiry

    def grid_key(self) -> tuple:
        """Exact identity of the time grid and replay mode.

        Two traces with equal grid keys yield the same sample index
        (and hold expiry) for every query time, so batch consumers (the
        emulator's capacity scan) can group links by grid and compute
        the index once per group.  Lazily cached; values do not enter
        the key.
        """
        key = getattr(self, "_grid_key", None)
        if key is None:
            key = (self._loop, self._t0, self._period, self._times.tobytes())
            self._grid_key = key
        return key

    def stats(self) -> TraceStats:
        """Mean/std/min/max over one cycle."""
        return TraceStats(
            mean_mbps=float(self._values.mean()),
            std_mbps=float(self._values.std()),
            min_mbps=float(self._values.min()),
            max_mbps=float(self._values.max()),
        )

    def rolling_mean(self, window_s: float) -> "BandwidthTrace":
        """Trace smoothed with a trailing window (Fig 2 uses 10 s).

        Samples with fewer than a full window of history average what is
        available, matching pandas' ``rolling(min_periods=1).mean()``.
        """
        if window_s <= 0:
            raise TraceError("window_s must be positive")
        smoothed = np.empty_like(self._values)
        left = 0
        for i, t in enumerate(self._times):
            while self._times[left] < t - window_s:
                left += 1
            smoothed[i] = self._values[left : i + 1].mean()
        return BandwidthTrace(self._times, smoothed, loop=self._loop)

    def scaled(self, factor: float) -> "BandwidthTrace":
        """Trace with every value multiplied by ``factor``."""
        if not 0 <= factor < math.inf:  # NaN included
            raise TraceError("scale factor must be finite and non-negative")
        return BandwidthTrace(self._times, self._values * factor, loop=self._loop)

    def clipped(self, min_mbps: float = 0.0, max_mbps: float = math.inf) -> "BandwidthTrace":
        """Trace with values clipped into [min_mbps, max_mbps]."""
        return BandwidthTrace(
            self._times,
            np.clip(self._values, min_mbps, max_mbps),
            loop=self._loop,
        )

    @staticmethod
    def constant(value_mbps: float, *, dt: float = 1.0) -> "BandwidthTrace":
        """A flat trace — used for the no-variation baselines."""
        return BandwidthTrace([0.0, dt], [value_mbps, value_mbps])

    @staticmethod
    def from_samples(samples: Iterable[tuple[float, float]], *, loop: bool = True) -> "BandwidthTrace":
        """Build from an iterable of (time, mbps) pairs."""
        pairs = sorted(samples)
        if not pairs:
            raise TraceError("no samples provided")
        times, values = zip(*pairs)
        return BandwidthTrace(times, values, loop=loop)

    @staticmethod
    def from_csv(path: str | "Path", *, loop: bool = True) -> "BandwidthTrace":
        """Load a trace from a two-column CSV: ``time_s,mbps``.

        Accepts an optional header row; blank lines are skipped.  This
        is the entry point for replaying *real* captures (e.g. your own
        iperf3 logs) instead of the synthetic CityLab substitutes.
        """
        pairs: list[tuple[float, float]] = []
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or not row[0].strip():
                    continue
                try:
                    pairs.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    if pairs:
                        raise TraceError(
                            f"{path}: malformed row {row!r}"
                        ) from None
                    continue  # header row
        if not pairs:
            raise TraceError(f"{path}: no samples found")
        return BandwidthTrace.from_samples(pairs, loop=loop)

    def to_csv(self, path: str | "Path") -> None:
        """Write the trace as ``time_s,mbps`` rows with a header."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "mbps"])
            for t, value in zip(self._times, self._values):
                writer.writerow([float(t), float(value)])
