"""Unit tests for the multi-tenant control plane and fleet arbiter."""

import pytest

from repro.cluster.resources import ResourceSpec
from repro.config import BassConfig, FleetConfig, ProbeConfig
from repro.core.controlplane import (
    ControlPlane,
    FleetArbiter,
    check_cluster_ledger,
)
from repro.errors import SchedulingError
from repro.experiments.common import build_env, deploy_app
from repro.experiments.multi_tenant import StreamPairApp


def _env(**kwargs):
    return build_env(with_traces=False, **kwargs)


class TestFleetArbiter:
    def test_claims_visible_to_other_apps_only(self):
        arbiter = FleetArbiter()
        arbiter.begin_epoch(0.0)
        arbiter.claim(0.0, "appa", "sink", "node3")
        assert arbiter.nodes_claimed_by_others("appb") == {"node3"}
        assert arbiter.nodes_claimed_by_others("appa") == set()

    def test_begin_epoch_clears_claims_board(self):
        arbiter = FleetArbiter()
        arbiter.begin_epoch(0.0)
        arbiter.claim(0.0, "appa", "sink", "node3")
        arbiter.begin_epoch(30.0)
        assert arbiter.nodes_claimed_by_others("appb") == set()
        assert arbiter.epoch_count == 2
        # The claim tally survives epoch resets.
        assert arbiter.claim_count == 1

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
        first = cp.monitor_for(ProbeConfig())
        second = cp.monitor_for(ProbeConfig(headroom_interval_s=60.0))
        assert first is second
        assert cp.monitor is first

    def test_sharing_disabled_gives_private_monitors(self):
        env = _env(fleet=FleetConfig(probe_sharing=False))
        cp = env.control_plane
        assert cp.monitor_for(ProbeConfig()) is not cp.monitor_for(
            ProbeConfig()
        )
        assert cp.monitor is None

    def test_startup_probe_skips_recently_probed_links(self):
        env = _env()
        cp = env.control_plane
        monitor = cp.monitor_for(ProbeConfig())
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
        tenant_monitor = cp.monitor_for(
            ProbeConfig(), assignments=assignments
        )
        assert tenant_monitor is region.monitor
        assert cp.monitor is fleet_monitor
        assert tenant_monitor._caches is fleet_monitor._caches

    def test_private_monitor_is_scoped_to_the_home_region(self):
        env = _env(fleet=FleetConfig(regions=2, probe_sharing=False))
        cp = env.control_plane
        home = cp.region_map.region_of("node1")
        nodes = cp.region_map.spec(home).nodes
        monitor = cp.monitor_for(
            ProbeConfig(), assignments={"source": "node1"}
        )
        assert (monitor.region, monitor.scope) == (home, nodes)
        assert monitor is not cp.region_controller(home).monitor


class TestHeadroomReuse:
    def test_reuse_disabled_by_default(self):
        """There is no headroom cache: every request probes."""
        env = _env()
        monitor = env.control_plane.monitor_for(ProbeConfig())
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

    def test_deregister_unknown_app_is_noop(self):
        env = _env()
        env.control_plane.deregister("ghost")

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

    def test_deregister_disarms_idle_cadence(self):
        env = _env()
        deploy_app(
            env,
            StreamPairApp("tenant00"),
            "bass-longest-path",
            force_assignments={"sink": "node2"},
        )
        cp = env.control_plane
        cp.deregister("tenant00")
        assert cp._tasks == {}
        env.engine.run_until(65.0)
        assert cp.run_epoch() == []


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
