"""Many-region fleet integration: handoffs, arbitration.

Covers the acceptance claims of the sharded control plane:

* every cross-region migration travels the two-phase handoff protocol,
* the cluster ledger is clean in *every* handoff phase (the only ledger
  mutation is the single atomic migrate at admit time),
* destination-admit failures abort cleanly and release the reservation.

(The one-region plane is the default every other suite runs on; its
decisions are pinned by the CLI goldens, which were recorded on the
single-loop plane this one replaced.)
"""

import pytest

from repro.config import BassConfig, FleetConfig
from repro.core.controlplane import HANDOFF_RTT_S, check_cluster_ledger
from repro.core.netmonitor import NetMonitor
from repro.experiments.common import build_env, deploy_app, run_timeline
from repro.experiments.fleet import _fleet_scaling_cell, fleet_handoff, fleet_mesh
from repro.experiments.multi_tenant import (
    SINK,
    StreamPairApp,
    fleet_probe_stats,
)
from repro.mesh.topology import line_topology, regional_mesh, regional_specs
from repro.net.netem import NetworkEmulator
from repro.obs.trace import Tracer


def build_fleet_env(*, nodes_per_region=2, cpu_cores=8.0, seed=11):
    topology = regional_mesh(2, nodes_per_region, cpu_cores=cpu_cores)
    fleet = FleetConfig(region_specs=regional_specs(2, nodes_per_region))
    return build_env(topology, seed=seed, with_traces=False, fleet=fleet)


def deploy_pair(env, name, region, *, demand_mbps=2.0, sink=None):
    app = StreamPairApp(
        name, demand_mbps=demand_mbps, source_node=f"r{region}n1"
    )
    return deploy_app(
        env,
        app,
        "bass-longest-path",
        config=BassConfig().with_migration(cooldown_s=10.0),
        force_assignments={SINK: sink or f"r{region}n2"},
    )


class TestHandoffPhases:
    def test_ledger_clean_in_every_phase(self):
        """Walk one handoff through requested → released → committed,
        auditing the ledger at each phase boundary."""
        env = build_fleet_env()
        cp = env.control_plane
        handle = deploy_pair(env, "tenant00", 0)
        run_timeline(env, 1.0)
        check_cluster_ledger(env.cluster)

        region = cp.region_controller("region0")
        region.begin_round(1, cp.arbiter.published_claims())
        request = region.queue_handoff(
            time=env.netem.now,
            app="tenant00",
            component=SINK,
            source_node="r0n2",
            target_node="r1n2",
            severity=1.5,
            enqueue=False,
        )
        assert request.phase == "requested"
        check_cluster_ledger(env.cluster)

        cp._review_handoff(request)
        assert request.phase == "released"
        # Mid-handoff: the source still holds the pod, the destination
        # has not allocated yet — nothing double-counted.
        assert handle.deployment.node_of(SINK) == "r0n2"
        check_cluster_ledger(env.cluster)
        # The in-flight reservation pins the target on the board.
        held = cp.arbiter.board_claim("r1n2")
        assert held is not None and held.app == "tenant00"

        run_timeline(env, 3.0)  # past the 2 s control RTT
        assert request.phase == "committed"
        assert handle.deployment.node_of(SINK) == "r1n2"
        assert request.latency_s == pytest.approx(HANDOFF_RTT_S)
        check_cluster_ledger(env.cluster)
        # The tenant is re-homed where the majority of its pods live
        # (one pod each side: ties break to region order).
        assert cp.home_region("tenant00") == "region0"

    def test_handle_monitor_follows_the_tenant_to_its_new_home(self):
        """A committed handoff that moves the tenant's home re-points
        its controller at the new region's monitor; the handle reads
        the controller's, so fleet probe accounting keeps counting."""
        env = build_fleet_env()
        cp = env.control_plane
        handle = deploy_pair(env, "tenant00", 1)
        run_timeline(env, 1.0)
        first_home = handle.monitor
        region = cp.region_controller("region1")
        region.begin_round(1, cp.arbiter.published_claims())
        request = region.queue_handoff(
            time=env.netem.now,
            app="tenant00",
            component=SINK,
            source_node="r1n2",
            target_node="r0n2",
            severity=1.5,
            enqueue=False,
        )
        cp._review_handoff(request)
        run_timeline(env, 3.0)
        assert request.phase == "committed"
        # One pod each side: the tie breaks to region order, away from
        # where the tenant started.
        assert cp.home_region("tenant00") == "region0"
        assert handle.monitor is handle.controller.monitor
        assert handle.monitor is not first_home
        _, at_move, _ = fleet_probe_stats([handle], 3.0)
        run_timeline(env, 100.0)  # three more 30 s epochs
        _, later, _ = fleet_probe_stats([handle], 100.0)
        assert later > at_move

    def test_abort_when_destination_cannot_admit(self):
        """Phase-3 failure: the destination node's ledger is full at
        admit time, so the handoff aborts, releases its reservation,
        and leaves the pod (and the ledger) untouched."""
        env = build_fleet_env(cpu_cores=2.0)
        cp = env.control_plane
        handle = deploy_pair(env, "tenant00", 0)
        # Pack the remote target completely: source and sink of the
        # filler both land on r1n2 (2 cores = 2 x 1-core pods).
        filler = StreamPairApp("filler", source_node="r1n2")
        deploy_app(
            env,
            filler,
            "bass-longest-path",
            force_assignments={SINK: "r1n2"},
        )
        run_timeline(env, 1.0)

        region = cp.region_controller("region0")
        region.begin_round(1, cp.arbiter.published_claims())
        request = region.queue_handoff(
            time=env.netem.now,
            app="tenant00",
            component=SINK,
            source_node="r0n2",
            target_node="r1n2",
            severity=2.0,
            enqueue=False,
        )
        granted = cp.broker_recovery_handoff(request)
        assert granted is None
        assert request.phase == "aborted"
        assert "cannot admit" in request.note
        assert handle.deployment.node_of(SINK) == "r0n2"
        # The reservation is released — the board holds no stale pin.
        assert cp.arbiter.board_claim("r1n2") is None
        check_cluster_ledger(env.cluster)
        # The source region may retry next round.
        assert not region.has_pending_handoff("tenant00", SINK)

    def test_denied_when_target_reserved_by_other_tenant(self):
        """Phase-1 failure: the arbiter's board already pins the target
        for another tenant's in-flight handoff."""
        env = build_fleet_env()
        cp = env.control_plane
        deploy_pair(env, "tenant00", 0)
        deploy_pair(env, "tenant01", 0, sink="r0n1")
        run_timeline(env, 1.0)

        region = cp.region_controller("region0")
        region.begin_round(1, cp.arbiter.published_claims())
        first = region.queue_handoff(
            time=env.netem.now,
            app="tenant00",
            component=SINK,
            source_node="r0n2",
            target_node="r1n2",
            severity=2.0,
            enqueue=False,
        )
        second = region.queue_handoff(
            time=env.netem.now,
            app="tenant01",
            component=SINK,
            source_node="r0n1",
            target_node="r1n2",
            severity=1.0,
            enqueue=False,
        )
        cp._review_handoff(first)
        assert first.phase == "released"
        cp._review_handoff(second)
        assert second.phase == "denied"
        assert "tenant00" in second.note
        assert cp.arbiter.conflict_count == 1
        check_cluster_ledger(env.cluster)


class TestFleetScenarios:
    def test_forced_handoff_scenario_end_to_end(self):
        """Region 0 is packed and throttled: the only escape is a
        cross-region handoff, and every cross-region migration in the
        run went through the protocol."""
        result = fleet_handoff(tenants=2, duration_s=180.0, seed=11)
        assert result.committed_handoffs >= 1
        assert result.cross_region_migrations == result.committed_handoffs
        # Two tenants racing one remote node exercise the denial path.
        assert result.handoff_counts.get("denied", 0) >= 1
        assert result.conflict_count >= 1
        # Commit latency is the control RTT.
        for latency in result.handoff_latencies:
            assert latency == pytest.approx(HANDOFF_RTT_S)

    def test_steady_state_probes_stay_in_region(self):
        """Without congestion no handoffs happen, tenants stay homed
        round-robin, and per-link probe rate matches the single-region
        baseline (regions do not flood each other)."""
        baseline = fleet_mesh(
            regions=1, tenants=1, nodes_per_region=3, duration_s=120.0
        )
        fleet = fleet_mesh(
            regions=2, tenants=4, nodes_per_region=3, duration_s=120.0
        )
        assert fleet.handoff_counts == {}
        assert fleet.cross_region_migrations == 0
        assert fleet.tenants_by_region == {"region0": 2, "region1": 2}
        assert fleet.probe_events_per_link_hour == pytest.approx(
            baseline.probe_events_per_link_hour, rel=0.2
        )


class TestRegionScopedProbeEvents:
    def test_views_of_different_regions_never_cite_each_other(self):
        """Probe-event provenance keys on (region, link): a region
        view's headroom probe is cited by that view only, never by
        another region's view of the same directed link nor by the
        fleet-wide monitor."""
        topology = line_topology([10.0])
        netem = NetworkEmulator(topology)
        netem.start()
        fleet_monitor = NetMonitor(netem, tracer=Tracer())
        view_a = fleet_monitor.region_view("a", ["node1", "node2"])
        view_b = fleet_monitor.region_view("b", ["node1", "node2"])

        view_a.headroom_probe("node1", "node2", 1.0)
        assert view_a.probe_event_id("node1", "node2") is not None
        assert view_b.probe_event_id("node1", "node2") is None
        assert fleet_monitor.probe_event_id("node1", "node2") is None


def test_fleet_row_solver_fill_count():
    """The water-fills of the fleet row's 4-region cell, pinned.  Most
    of its flow changes are probes that join or leave their component
    at the top of its fill order on slack links, which slack admission
    settles with no fill; a change that loses admission shows here
    first (the perf ledger does not see these counters on
    ``fleet_epochs``).  Before slack admission: 71 partial solves, 95
    components re-filled."""
    capsule = _fleet_scaling_cell.capsule(
        regions=4, tenants_per_region=2, duration_s=240.0, seed=11
    )
    capsule.run_to_completion()
    stats = capsule.env.netem.solver_stats()
    assert (stats["partial_solves"], stats["components_resolved"]) == (29, 32)
