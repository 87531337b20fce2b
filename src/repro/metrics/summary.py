"""Statistical summaries used in the paper's plots and tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]); NaN on empty input."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return float("nan")
    return float(np.percentile(array, q))


def p50(values: Sequence[float]) -> float:
    """Median; NaN on empty input."""
    return percentile(values, 50)


def p95(values: Sequence[float]) -> float:
    """95th percentile; NaN on empty input."""
    return percentile(values, 95)


def p99(values: Sequence[float]) -> float:
    """99th percentile; NaN on empty input."""
    return percentile(values, 99)


def text_histogram(
    values: Sequence[float],
    *,
    bins: int = 10,
    width: int = 40,
) -> str:
    """Render a terminal-friendly histogram of ``values``.

    Each line is ``lo .. hi |bar| count``.  Degenerate inputs stay
    readable: an empty sample renders as ``(no samples)`` and a
    zero-range sample (single value, or all equal) as one full bar.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return "(no samples)"
    lo, hi = float(array.min()), float(array.max())
    if lo == hi:
        bar = "#" * width
        return f"{lo:>10.4g} .. {hi:<10.4g} |{bar}| {array.size}"
    counts, edges = np.histogram(array, bins=bins)
    peak = int(counts.max())
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak)) if peak else ""
        lines.append(
            f"{edges[i]:>10.4g} .. {edges[i + 1]:<10.4g} "
            f"|{bar:<{width}}| {int(count)}"
        )
    return "\n".join(lines)


def summarize(values: Sequence[float]) -> Summary:
    """Compute the summary statistics the paper reports (mean, p99, ...)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std()),
        p50=float(np.percentile(array, 50)),
        p95=float(np.percentile(array, 95)),
        p99=float(np.percentile(array, 99)),
        minimum=float(array.min()),
        maximum=float(array.max()),
    )


@dataclass(frozen=True)
class RecoveryStats:
    """How a timeline (goodput, throughput) weathered a fault.

    Attributes:
        pre_mean: mean value before the fault.
        dip_min: worst value at/after the fault.
        post_mean: mean value from recovery onward (NaN if the
            timeline never recovered).
        time_to_recover_s: seconds from the fault until the timeline
            reached ``recovery_fraction * pre_mean`` *and stayed there*;
            None when it never did (e.g. the k3s baseline).
    """

    pre_mean: float
    dip_min: float
    post_mean: float
    time_to_recover_s: object  # Optional[float]; None = never recovered

    @property
    def recovered(self) -> bool:
        return self.time_to_recover_s is not None


def recovery_timeline_stats(
    times: Sequence[float],
    values: Sequence[float],
    *,
    fault_at_s: float,
    recovery_fraction: float = 0.9,
) -> RecoveryStats:
    """Summarize a timeline's dip-and-recovery around a fault.

    Recovery is judged conservatively: the recovery instant is the
    first sample after the *last* sub-threshold sample, so a timeline
    that bounces back and dips again counts only its final return.
    Used by the churn benchmark to assert BASS recovers goodput to
    ≥ 90 % of the pre-crash level while the baseline does not.
    """
    t = np.asarray(list(times), dtype=float)
    v = np.asarray(list(values), dtype=float)
    if t.shape != v.shape:
        raise ValueError("times and values must have the same length")
    nan = float("nan")
    pre = v[t < fault_at_s]
    pre_mean = float(pre.mean()) if pre.size else nan
    after_mask = t >= fault_at_s
    after_t, after_v = t[after_mask], v[after_mask]
    if after_v.size == 0 or not np.isfinite(pre_mean):
        return RecoveryStats(pre_mean, nan, nan, None)
    dip_min = float(after_v.min())
    threshold = recovery_fraction * pre_mean
    below = np.nonzero(after_v < threshold)[0]
    if below.size == 0:
        # Never dipped under the threshold: recovered instantly.
        return RecoveryStats(pre_mean, dip_min, float(after_v.mean()), 0.0)
    if below[-1] == after_v.size - 1:
        # Still under the threshold at the end of the run.
        return RecoveryStats(pre_mean, dip_min, nan, None)
    first_recovered = int(below[-1]) + 1
    return RecoveryStats(
        pre_mean,
        dip_min,
        float(after_v[first_recovered:].mean()),
        float(after_t[first_recovered] - fault_at_s),
    )


def rolling_mean(
    times: Sequence[float], values: Sequence[float], window_s: float
) -> np.ndarray:
    """Trailing-window rolling mean over irregularly-sampled data."""
    t = np.asarray(list(times), dtype=float)
    v = np.asarray(list(values), dtype=float)
    out = np.empty_like(v)
    left = 0
    for i in range(len(v)):
        while t[left] < t[i] - window_s:
            left += 1
        out[i] = v[left : i + 1].mean()
    return out
