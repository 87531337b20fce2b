"""Measurement utilities: summaries of sampled values."""

from .summary import percentile, rolling_mean, summarize

__all__ = [
    "percentile",
    "rolling_mean",
    "summarize",
]
