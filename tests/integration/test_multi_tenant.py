"""Integration tests for the multi-tenant control plane.

Three guarantees:

* **Single-app equivalence** — routing one application through the
  control plane reproduces the pre-control-plane harness bit for bit
  (pinned against golden numbers captured before the refactor).
* **Determinism** — co-deployed tenants produce byte-identical
  controller logs across independent runs with the same seed.
* **No startup re-flood** — deploying a second application moments
  after the first triggers no duplicate max-capacity probes.
"""

import pytest

from repro.config import BassConfig, FleetConfig
from repro.experiments.catalog import EXPERIMENTS
from repro.experiments.common import build_env, deploy_app
from repro.experiments.migration import table1_migration_iterations
from repro.experiments.multi_tenant import (
    StreamPairApp,
    multi_tenant_contention,
    multi_tenant_mesh,
)
from repro.experiments.static_placement import fig10_camera_static


class TestSingleAppEquivalence:
    """Golden values captured on the pre-control-plane harness."""

    def test_fig10_unchanged_by_control_plane(self):
        rows = {r.scheduler: r for r in fig10_camera_static(duration_s=40.0)}
        assert rows["bass-bfs"].mean_latency_ms == pytest.approx(
            515.0970117527339, abs=1e-6
        )
        assert rows["bass-longest-path"].mean_latency_ms == pytest.approx(
            515.1806950296051, abs=1e-6
        )
        assert rows["k3s"].mean_latency_ms == pytest.approx(
            751.6616245062753, abs=1e-6
        )
        assert rows["bass-bfs"].inter_node_chain_hops == 1
        assert rows["k3s"].inter_node_chain_hops == 3

    def test_table1_unchanged_by_control_plane(self):
        result = table1_migration_iterations(total_s=200.0)
        assert result.rows == [(1, 12, 2), (2, 14, 2), (3, 4, 2)]


class TestDeterminism:
    def test_co_deployed_tenants_reproduce_identical_logs(self):
        def run():
            return multi_tenant_mesh(tenants=2, duration_s=120.0, seed=7)

        first, second = run(), run()
        assert repr(first.iterations_by_app) == repr(
            second.iterations_by_app
        )
        assert first.migrations_by_app == second.migrations_by_app
        assert first.probe_events_per_hour == second.probe_events_per_hour

    def test_contention_scenario_reproduces(self):
        first = multi_tenant_contention(tenants=3, duration_s=150.0)
        second = multi_tenant_contention(tenants=3, duration_s=150.0)
        assert repr(first.iterations_by_app) == repr(
            second.iterations_by_app
        )
        assert first.conflict_count == second.conflict_count


class TestStartupFlood:
    def test_second_deploy_does_not_reflood(self):
        env = build_env(with_traces=False)
        first = deploy_app(
            env,
            StreamPairApp("appa"),
            "bass-longest-path",
            force_assignments={"sink": "node2"},
        )
        # The counters live on the region's view, not the fleet monitor.
        monitor = first.monitor
        assert monitor.full_probe_count == 12  # every directed link
        second = deploy_app(
            env,
            StreamPairApp("appb"),
            "bass-longest-path",
            force_assignments={"sink": "node3"},
        )
        # Back-to-back deploys: at most one max-capacity round per link.
        assert second.monitor is monitor
        assert monitor.full_probe_count == 12


class TestArbiter:
    def test_contention_is_arbitrated_and_conflicts_counted(self):
        result = multi_tenant_contention(tenants=4, duration_s=180.0)
        assert result.conflict_count > 0
        assert result.total_migrations >= 1


class TestDefaultPlane:
    """What running every env on the one-region fleet round guarantees."""

    def test_contention_counts_match_the_single_loop_plane(self):
        # ``multi_tenant_contention(tenants=4)`` on an env we can look
        # into.  Measured on both planes before the single-loop one was
        # deleted: 3 claims, 3 migrations, 3 conflicts over 6 epochs.
        env = build_env(seed=11, with_traces=False)
        result = multi_tenant_mesh(
            tenants=4,
            duration_s=180.0,
            seed=11,
            throttle_mbps=3.0,
            config=BassConfig().with_migration(cooldown_s=10.0),
            env=env,
        )
        cp = env.control_plane
        assert {cp.home_region(app) for app in cp.tenants} == {"region0"}
        assert cp.arbiter.handoffs == []
        assert len(cp.arbiter.claims) == 3
        assert result.total_migrations == 3
        assert result.conflict_count == 3
        assert result.epoch_count == 6

    @pytest.mark.parametrize(
        "row_id, claims, migrations, epochs",
        [("fig13", 8, 8, 5), ("churn", 1, 1, 5), ("failover", 1, 1, 3)],
    )
    def test_single_app_rows_run_one_region(
        self, row_id, claims, migrations, epochs
    ):
        """Counts of each row's quick checkpoint cell (arbiter rounds
        include recovery rounds).  churn and failover were measured on
        the single-loop plane these rows ran on before it was deleted;
        fig13's is the ``interval=30.0`` cell, whose 8 migrations are
        the ones ``tests/golden/cli/fig13.txt`` prints."""
        row = EXPERIMENTS[row_id]
        capsule = row.capsule_for(quick=True)
        capsule.run_to_completion()
        cp = capsule.control_plane
        assert cp.region_map.names == ["region0"]
        assert {cp.home_region(app) for app in cp.tenants} == {"region0"}
        assert cp.arbiter.handoffs == []
        assert len(cp.arbiter.claims) == claims
        assert cp.arbiter.conflict_count == 0
        assert cp.epoch_count == epochs
        assert (
            sum(
                len(cp.orchestrator.deployment(app).migrations)
                for app in cp.tenants
            )
            == migrations
        )

    @pytest.mark.parametrize("tenants", [1, 4])
    def test_shared_probing_is_flat_in_tenant_count(self, tenants):
        result = multi_tenant_mesh(tenants=tenants, duration_s=240.0)
        assert result.probe_events_per_hour == 300.0

    @pytest.mark.parametrize(
        "tenants, per_hour", [(1, 300.0), (4, 1125.0)]
    )
    def test_private_monitors_duplicate_probes(self, tenants, per_hour):
        """``probe_sharing=False`` is honoured on the default plane: the
        private baseline's probe events grow with the tenant count."""
        result = multi_tenant_mesh(
            tenants=tenants,
            duration_s=240.0,
            fleet=FleetConfig(probe_sharing=False),
        )
        assert result.probe_events_per_hour == per_hour

    def test_private_monitors_survive_sharding(self):
        """At ``regions=2`` every tenant keeps its own in-scope monitor."""
        fleet = FleetConfig(regions=2, probe_sharing=False)

        def run(tenants):
            env = build_env(seed=11, with_traces=False, fleet=fleet)
            result = multi_tenant_mesh(
                tenants=tenants, duration_s=240.0, env=env
            )
            return env.control_plane, result

        _, one = run(1)
        cp, four = run(4)
        monitors = [cp.controller(app).monitor for app in cp.tenants]
        assert len({id(m) for m in monitors}) == 4
        for app, monitor in zip(cp.tenants, monitors):
            home = cp.home_region(app)
            assert monitor.region == home
            assert monitor.scope == cp.region_map.spec(home).nodes
            assert all(
                monitor.in_scope(r.src, r.dst) for r in monitor.probe_log
            )
        assert (
            four.probe_events_per_hour > 1.5 * one.probe_events_per_hour
        )
