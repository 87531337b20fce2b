"""Unit tests for the multi-tenant control plane and fleet arbiter."""

import pytest

from repro.cluster.resources import ResourceSpec
from repro.config import BassConfig
from repro.core.controlplane import (
    FleetArbiter,
    check_cluster_ledger,
)
from repro.errors import SchedulingError
from repro.experiments.common import build_env, deploy_app
from repro.experiments.multi_tenant import SINK, StreamPairApp
from repro.faults.recovery import RecoveryCoordinator
from repro.mesh.topology import full_mesh_topology


def _env(**kwargs):
    return build_env(with_traces=False, **kwargs)


class TestFleetArbiter:
    """Crash recovery claims on the regions' boards, like a migration."""

    @staticmethod
    def _recovered_pair():
        """Two tenants whose sinks share node2, recovered off it in one
        round: the second is deflected off the first's claim."""
        env = _env(topology=full_mesh_topology(4), seed=5)
        for name in ("appa", "appb"):
            deploy_app(
                env,
                StreamPairApp(name, source_node="node1"),
                "bass-longest-path",
                config=BassConfig(migrations_enabled=False),
                force_assignments={SINK: "node2"},
            )
        coordinator = RecoveryCoordinator(env.control_plane)
        first, second = coordinator.recover_from("node2")
        return env.control_plane, first.to_node, second.to_node

    def test_claims_visible_to_other_apps_only(self):
        cp, first, second = self._recovered_pair()
        board = cp.region_controller("region0")
        assert board.nodes_claimed_by_others("appb") == {first}
        assert board.nodes_claimed_by_others("appa") == {second}
        assert board.nodes_claimed_by_others("appc") == {first, second}
        assert cp.arbiter.conflict_count == 1  # appb's deflection

    def test_next_round_clears_recovery_claims(self):
        cp, first, second = self._recovered_pair()
        # Claims count when a resolution orders them, not before.
        assert cp.arbiter.claim_count == 0
        cp.run_epoch()
        board = cp.region_controller("region0")
        assert board.nodes_claimed_by_others("appc") == set()
        assert cp.arbiter.epoch_count == 2  # the recovery, the fleet round
        assert cp.arbiter.claim_count == 2
        # Resolved and published: the next round protects both targets.
        assert cp.arbiter.published_claims() == {
            first: ("region0", "appa"),
            second: ("region0", "appb"),
        }

    def test_recovery_claim_outranks_a_migration_claim(self):
        cp, first, _ = self._recovered_pair()
        board = cp.region_controller("region0")
        board.begin_round(2, {})
        board.claim(40.0, "appc", "sink", first, 1.9)
        cp.arbiter.submit_batch(board.drain_batch())
        ((loser, winner),) = cp.arbiter.resolve(40.0)
        assert (winner.app, winner.severity, winner.epoch) == ("appa", 2.0, 1)
        assert (loser.app, loser.severity) == ("appc", 1.9)
        assert cp.arbiter.board_claim(first) is winner

    def test_conflict_accounting(self):
        arbiter = FleetArbiter()
        arbiter.record_conflict()
        arbiter.record_conflict()
        assert arbiter.conflict_count == 2


class TestLedgerCheck:
    def test_consistent_ledger_passes(self):
        env = _env()
        check_cluster_ledger(env.cluster)

    def test_overallocated_node_raises(self):
        env = _env()
        node = env.cluster.node("node1")
        # Corrupt the ledger directly: no public path over-allocates.
        node._allocated = ResourceSpec(cpu=999.0, memory_mb=0.0)
        with pytest.raises(SchedulingError, match="node1"):
            check_cluster_ledger(env.cluster)


class TestMonitorSharing:
    def test_one_monitor_for_all_tenants(self):
        env = _env()
        cp = env.control_plane
        first = cp.monitor_for()
        second = cp.monitor_for()
        assert first is second
        assert cp.monitor is first

    def test_startup_probe_skips_recently_probed_links(self):
        env = _env()
        cp = env.control_plane
        monitor = cp.monitor_for()
        assert monitor.probe_all_links() == 12  # every directed link
        assert monitor.probe_all_links() == 0  # within the cooldown

    def test_one_site_creates_the_fleet_monitor(self):
        """A region runtime asked for before the first tenant and the
        tenant's own monitor are views of one fleet monitor."""
        env = _env()
        cp = env.control_plane
        assert cp.monitor is None
        region = cp.region_controller("region0")
        fleet_monitor = cp.monitor
        assert fleet_monitor is not None
        assignments = {"source": "node1", "sink": "node2"}
        tenant_monitor = cp.monitor_for(assignments)
        assert tenant_monitor is region.monitor
        assert cp.monitor is fleet_monitor
        assert tenant_monitor._caches is fleet_monitor._caches


class TestHeadroomReuse:
    def test_reuse_disabled_by_default(self):
        """There is no headroom cache: every request probes."""
        env = _env()
        monitor = env.control_plane.monitor_for()
        monitor.headroom_probe("node1", "node2", 1.0)
        monitor.headroom_probe("node1", "node2", 1.0)
        assert monitor.headroom_probe_count == 2


class TestTenantLifecycle:
    def test_duplicate_registration_rejected(self):
        env = _env()
        handle = deploy_app(
            env,
            StreamPairApp("tenant00"),
            "bass-longest-path",
            force_assignments={"sink": "node2"},
        )
        with pytest.raises(SchedulingError, match="tenant00"):
            env.control_plane.register(handle.controller)

    def test_controller_lookup(self):
        env = _env()
        handle = deploy_app(
            env,
            StreamPairApp("tenant00"),
            "bass-longest-path",
            force_assignments={"sink": "node2"},
        )
        cp = env.control_plane
        assert cp.controller("tenant00") is handle.controller
        assert cp.tenants == ["tenant00"]
        with pytest.raises(SchedulingError):
            cp.controller("ghost")

    def test_same_cadence_shares_one_epoch_task(self):
        env = _env()
        for name in ("tenant00", "tenant01"):
            deploy_app(
                env,
                StreamPairApp(name),
                "bass-longest-path",
                force_assignments={"sink": "node2"},
            )
        cp = env.control_plane
        assert len(cp._tasks) == 1
        env.engine.run_until(35.0)
        # One epoch fired for the shared cadence; both tenants evaluated.
        for name in cp.tenants:
            assert len(cp.controller(name).iterations) == 1

class TestEpochOrdering:
    def test_severity_then_name_orders_actions(self):
        env = _env()
        handles = [
            deploy_app(
                env,
                StreamPairApp(name),
                "bass-longest-path",
                config=BassConfig(migrations_enabled=False),
                force_assignments={"sink": "node2"},
                start_controller=False,
            )
            for name in ("beta", "alpha")
        ]
        cp = env.control_plane
        for handle in handles:
            cp.register(handle.controller)
        env.netem.start()
        env.engine.run_until(5.0)
        iterations = cp.run_epoch()
        # No violations -> equal severity -> alphabetical app order.
        assert [i.time for i in iterations] == [5.0, 5.0]
        assert cp.controller("alpha").iterations == [iterations[0]]
