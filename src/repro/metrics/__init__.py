"""Measurement utilities: summaries of sampled values."""

from .summary import cdf_points, percentile, rolling_mean, summarize

__all__ = [
    "cdf_points",
    "percentile",
    "rolling_mean",
    "summarize",
]
