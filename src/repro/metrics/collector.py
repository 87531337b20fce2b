"""Prometheus-flavoured time-series collection.

The paper logs inter-pod traffic and latency samples into Prometheus
and queries them over HTTP (§5).  Here, experiment code records samples
into named :class:`TimeSeries` (with optional label sets) and queries
them back for summaries; series export to CSV for external analysis.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Characters allowed verbatim in exported CSV filenames; anything else
#: (path separators, spaces, colons from label values like
#: ``link="node1:node2"``) is folded to ``-``.
_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize_filename_part(text: str) -> str:
    cleaned = _UNSAFE_FILENAME.sub("-", text).strip("-.")
    return cleaned or "x"


@dataclass
class TimeSeries:
    """One named series of (time, value) samples with fixed labels."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: Whether ``times`` is non-decreasing so far.  Simulation series
    #: always are (the engine clock never goes backwards), which lets
    #: :meth:`between` slice with bisect instead of scanning.
    _sorted: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._sorted = all(
            a <= b for a, b in zip(self.times, self.times[1:])
        )

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            self._sorted = False
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def between(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with start <= time < end.

        O(log n + k) on the (usual) chronologically recorded series via
        bisect; series whose times were recorded out of order fall back
        to a full scan with identical results.
        """
        subset = TimeSeries(self.name, self.labels)
        if self._sorted:
            lo = bisect_left(self.times, start)
            hi = bisect_left(self.times, end, lo)
            subset.times = self.times[lo:hi]
            subset.values = self.values[lo:hi]
            return subset
        for t, v in zip(self.times, self.values):
            if start <= t < end:
                subset.record(t, v)
        return subset

    def mean(self) -> float:
        return float(self.values_array().mean()) if self.values else float("nan")

    def to_csv(self, path: str | Path) -> None:
        """Write the series as ``time_s,value`` rows with a header."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "value"])
            writer.writerows(zip(self.times, self.values))


class MetricsCollector:
    """Registry of time series, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], TimeSeries] = {}

    def series(self, name: str, **labels: str) -> TimeSeries:
        """Get (creating if needed) the series for a name + label set."""
        key = (name, tuple(sorted(labels.items())))
        if key not in self._series:
            self._series[key] = TimeSeries(name, key[1])
        return self._series[key]

    def record(self, name: str, time: float, value: float, **labels: str) -> None:
        self.series(name, **labels).record(time, value)

    def all_series(self, name: str) -> list[TimeSeries]:
        """Every label variant recorded under ``name``."""
        return [s for (n, _), s in self._series.items() if n == name]

    def names(self) -> set[str]:
        return {name for name, _ in self._series}

    def export_dir(self, directory: str | Path) -> list[Path]:
        """Write every series to ``directory`` as one CSV per series.

        Filenames are ``<name>[__k-v...].csv`` with every part
        sanitized to filesystem-safe characters; distinct series whose
        sanitized names collide (e.g. label values ``"a/b"`` and
        ``"a:b"``) get a numeric suffix so no file is overwritten.
        Returns the paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        used: set[str] = set()
        for (name, labels), series in self._series.items():
            parts = [_sanitize_filename_part(name)]
            parts.extend(
                f"{_sanitize_filename_part(k)}-{_sanitize_filename_part(v)}"
                for k, v in labels
            )
            stem = "__".join(parts)
            filename = f"{stem}.csv"
            sequence = 2
            while filename in used:
                filename = f"{stem}__{sequence}.csv"
                sequence += 1
            used.add(filename)
            path = directory / filename
            series.to_csv(path)
            written.append(path)
        return written
