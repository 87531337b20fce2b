"""Fig 16: migration-threshold sweep under exponential request arrivals.

Paper: "lower migration thresholds in general perform better for this
scenario" — bursts make early migration cheap relative to repeatedly
eating congestion.
"""

import numpy as np
import pytest

from repro.experiments.thresholds import fig16_sweep_spec
from repro.runner import run_sweep

from _reporting import fmt, run_once, save_table


@pytest.mark.benchmark(group="fig16")
def test_fig16_exponential_thresholds(benchmark):
    spec = fig16_sweep_spec(
        thresholds=(0.25, 0.50, 0.65, 0.75), mean_rps=70.0, duration_s=600.0
    )
    cells = run_once(benchmark, run_sweep, spec=spec).results
    save_table(
        "fig16_exponential_thresholds",
        ["threshold", "mean_s", "uq_latency_s", "p99_s", "migrations"],
        [
            [
                c.threshold,
                fmt(c.mean_latency_s),
                fmt(c.upper_quartile_latency_s),
                fmt(c.p99_latency_s),
                c.migrations,
            ]
            for c in cells
        ],
        note="longest-path scheduling, headroom 20%, Poisson arrivals",
    )
    by_threshold = {c.threshold: c for c in cells}
    assert all(np.isfinite(c.mean_latency_s) for c in cells)
    # Lower thresholds perform at least as well as the high extreme
    # under bursty arrivals (the paper's Fig 16 finding).
    low = min(
        by_threshold[0.25].mean_latency_s, by_threshold[0.50].mean_latency_s
    )
    assert low <= by_threshold[0.75].mean_latency_s * 1.05
