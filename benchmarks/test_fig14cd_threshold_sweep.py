"""Figs 14(c)(d): end-to-end latency across the migration-threshold ×
headroom grid for both heuristics, fixed arrivals.

Paper: 25 % migrates prematurely, 75–95 % waits too long; 50–65 %
balances the two.  Our reproducible shape (see EXPERIMENTS.md): the
late extreme (95 %) has the worst tail because it sleeps through long
fades, and lower thresholds migrate more often.
"""

import numpy as np
import pytest

from repro.experiments.thresholds import fig14cd_sweep_spec
from repro.runner import run_sweep

from _reporting import fmt, run_once, save_table


@pytest.mark.benchmark(group="fig14cd")
def test_fig14cd_threshold_sweep(benchmark):
    spec = fig14cd_sweep_spec(
        heuristics=("bfs", "longest_path"),
        thresholds=(0.25, 0.50, 0.65, 0.75, 0.95),
        headrooms=(0.10, 0.20, 0.30),
        rps=70.0,
        duration_s=600.0,
    )
    cells = run_once(benchmark, run_sweep, spec=spec).results
    save_table(
        "fig14cd_threshold_sweep",
        ["heuristic", "threshold", "headroom", "uq_latency_s", "p99_s",
         "migrations"],
        [
            [
                c.heuristic,
                c.threshold,
                c.headroom,
                fmt(c.upper_quartile_latency_s),
                fmt(c.p99_latency_s),
                c.migrations,
            ]
            for c in cells
        ],
    )
    assert len(cells) == 2 * 5 * 3
    assert all(np.isfinite(c.upper_quartile_latency_s) for c in cells)

    def best_p99(heuristic, threshold):
        return min(
            c.p99_latency_s
            for c in cells
            if c.heuristic == heuristic and c.threshold == threshold
        )

    def total_migrations(heuristic, threshold):
        return sum(
            c.migrations
            for c in cells
            if c.heuristic == heuristic and c.threshold == threshold
        )

    for heuristic in ("bfs", "longest_path"):
        # Waiting for 95% quota utilization sleeps through long fades:
        # its tail is at least as bad as the mid thresholds'.
        assert best_p99(heuristic, 0.95) >= min(
            best_p99(heuristic, 0.50), best_p99(heuristic, 0.65)
        )
        # Migration activity responds to the knob: some threshold
        # migrates more than the most conservative one.
        assert max(
            total_migrations(heuristic, t) for t in (0.25, 0.50, 0.65)
        ) >= total_migrations(heuristic, 0.95)
