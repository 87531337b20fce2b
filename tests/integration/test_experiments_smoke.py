"""Short-horizon smoke runs of every paper experiment.

These do not assert the paper's exact numbers (the benchmarks do the
shape checks at full horizons); they assert the scenarios run, return
well-formed data, and satisfy their basic internal invariants.
"""

import numpy as np
import pytest

from repro.experiments.migration import (
    fig8_migration_timeline,
    fig12_video_query_interval,
    fig13_socialnet_migration,
    fig14a_restart_cdf,
    fig14b_scheduler_cdf,
    fig15b_video_thresholds,
    table1_migration_iterations,
)
from repro.experiments.motivation import (
    fig2_bandwidth_variation,
    fig4_pion_bottleneck,
    fig5_socialnet_throttle,
)
from repro.experiments.overheads import (
    probing_overhead,
    table3_scheduling_latency,
    table4_dag_processing,
)
from repro.experiments.static_placement import (
    fig10_camera_static,
    fig11_socialnet_p99,
    table2_camera_mesh,
)
from repro.experiments.thresholds import fig14cd_sweep_spec, fig16_sweep_spec
from repro.runner import run_sweep


class TestMotivation:
    def test_fig2(self):
        links = fig2_bandwidth_variation(duration_s=600.0)
        assert {l.label for l in links} == {"stable", "variable"}
        stable = next(l for l in links if l.label == "stable")
        variable = next(l for l in links if l.label == "variable")
        assert stable.mean_mbps > variable.mean_mbps
        assert variable.rel_std > stable.rel_std
        assert len(stable.rolling_mbps) == len(stable.times)

    def test_fig4(self):
        points = fig4_pion_bottleneck((4, 12), settle_s=30.0)
        assert points[0].per_client_mbps > points[1].per_client_mbps
        assert points[1].loss_fraction > points[0].loss_fraction

    def test_fig5(self):
        series = fig5_socialnet_throttle(
            total_s=150.0, throttle_start_s=50.0, throttle_duration_s=60.0
        )
        before, during, after = series.phase_means()
        assert during > 2 * before
        assert after < during


class TestStaticPlacement:
    def test_fig10(self):
        rows = fig10_camera_static(duration_s=30.0)
        by_name = {r.scheduler: r for r in rows}
        assert (
            by_name["bass-bfs"].mean_latency_ms
            < by_name["k3s"].mean_latency_ms
        )
        assert (
            by_name["bass-bfs"].inter_node_chain_hops
            <= by_name["k3s"].inter_node_chain_hops
        )

    def test_fig11(self):
        cells = fig11_socialnet_p99(
            rates=(300.0,), duration_s=40.0
        )
        def cell(scheduler, restricted):
            return next(
                c
                for c in cells
                if c.scheduler == scheduler and c.restricted == restricted
            )

        assert (
            cell("k3s", True).p99_latency_s
            > 5 * cell("bass-longest-path", True).p99_latency_s
        )

    def test_table2(self):
        rows = table2_camera_mesh(duration_s=120.0)
        assert len(rows) == 6
        k3s_var = next(
            r
            for r in rows
            if r.scheduler == "k3s" and r.scenario == "with_variation"
        )
        bfs_var = next(
            r
            for r in rows
            if r.scheduler == "bass-bfs" and r.scenario == "with_variation"
        )
        assert bfs_var.median_latency_ms < k3s_var.median_latency_ms


class TestMigrationScenarios:
    def test_fig8(self):
        timeline = fig8_migration_timeline(
            drop_time_s=60.0, second_drop_time_s=300.0, total_s=500.0
        )
        assert len(timeline.migrations) == 2
        first, second = timeline.migrations
        assert first.from_node == "node4"
        assert second.to_node == "node4"
        assert timeline.full_probe_times  # headroom drop escalated

    def test_fig12(self):
        series = fig12_video_query_interval(
            intervals=(30.0, None),
            total_s=150.0,
            restrict_for_s=100.0,
        )
        with_mig = next(s for s in series if s.interval_s == 30.0)
        without = next(s for s in series if s.interval_s is None)
        assert with_mig.migrations
        assert not without.migrations
        assert with_mig.mean_during(80.0, 110.0) > without.mean_during(
            80.0, 110.0
        )

    def test_fig13(self):
        series = fig13_socialnet_migration(
            intervals=(30.0, None), total_s=150.0, restrict_for_s=120.0
        )
        with_mig = next(s for s in series if s.interval_s == 30.0)
        without = next(s for s in series if s.interval_s is None)
        assert with_mig.migrations
        assert with_mig.mean_during(30.0, 140.0) < without.mean_during(
            30.0, 140.0
        )

    def test_table1(self):
        result = table1_migration_iterations(total_s=200.0)
        assert result.rows
        for _, over_quota, migrated in result.rows:
            assert migrated <= over_quota
            assert migrated <= 2  # max_per_iteration default

    def test_fig14a(self):
        result = fig14a_restart_cdf(total_s=120.0, restart_at_s=60.0)
        baseline, restart = result.means()
        assert restart > 3 * baseline

    def test_fig14b(self):
        results = fig14b_scheduler_cdf(duration_s=300.0)
        by_label = {r.label: r for r in results}
        assert by_label["k3s"].p99() > by_label["longest-path+mig"].p99()

    def test_fig15b(self):
        results = fig15b_video_thresholds(
            thresholds=(None, 0.65), duration_s=200.0
        )
        no_mig = next(r for r in results if r.threshold is None)
        mig = next(r for r in results if r.threshold == 0.65)
        assert mig.migrations >= 1
        assert (
            mig.bitrate_by_node["node1"] > no_mig.bitrate_by_node["node1"]
        )


class TestThresholdsAndOverheads:
    def test_fig14cd_grid_runs(self):
        cells = run_sweep(
            fig14cd_sweep_spec(
                heuristics=("longest_path",),
                thresholds=(0.5, 0.95),
                headrooms=(0.2,),
                duration_s=120.0,
            )
        ).results
        assert len(cells) == 2
        assert all(np.isfinite(c.mean_latency_s) for c in cells)

    def test_fig16_runs(self):
        cells = run_sweep(
            fig16_sweep_spec(thresholds=(0.25, 0.75), duration_s=120.0)
        ).results
        assert len(cells) == 2
        assert all(c.mean_latency_s > 0 for c in cells)

    def test_table3(self):
        rows = table3_scheduling_latency(trials=3)
        assert len(rows) == 6
        for row in rows:
            assert row.avg_ms >= 0.0

    def test_table4(self):
        rows = table4_dag_processing(trials=5)
        by_app = {r.app: r for r in rows}
        assert by_app["social_network"].components == 27
        assert (
            by_app["social_network"].avg_ms > by_app["camera"].avg_ms
        )

    def test_probing_overhead(self):
        result = probing_overhead(duration_s=120.0)
        assert 0.0 < result.probe_fraction < 0.10
        # The startup round max-capacity-probes every directed link; at
        # short horizons it dominates the full-probe count, so just
        # check headroom probing is active and cheap.
        assert result.headroom_probes > 0
