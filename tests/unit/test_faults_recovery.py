"""Crash recovery: eviction, re-placement, and exact ledger accounting."""

import pytest

from repro.config import BassConfig, FleetConfig
from repro.core.controlplane import check_cluster_ledger
from repro.core.regions import RegionClaim
from repro.experiments.common import build_env, deploy_app, run_timeline
from repro.experiments.multi_tenant import SINK, SOURCE, StreamPairApp
from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    NodeCrash,
)
from repro.mesh.node import MeshNode
from repro.faults.recovery import RecoveryCoordinator
from repro.mesh.topology import (
    MeshTopology,
    full_mesh_topology,
    regional_mesh,
    regional_specs,
)
from repro.obs.trace import Tracer

CONFIG = HeartbeatConfig(
    interval_s=5.0, suspect_after_misses=2, confirm_after_misses=4
)
NO_MIGRATIONS = BassConfig(migrations_enabled=False)


def wire_recovery(env, crash_node, *, at_s=30.0):
    plan = FaultPlan([NodeCrash(at_s=at_s, node=crash_node)])
    injector = FaultInjector(plan, env.netem, tracer=env.tracer)
    injector.install()
    detector = FailureDetector(
        env.netem, "node1", config=CONFIG, injector=injector,
        tracer=env.tracer,
    )
    detector.start()
    coordinator = env.control_plane.enable_recovery(detector)
    return detector, coordinator


class TestCrashEvictRecover:
    def test_pod_replaced_and_ledger_exact(self):
        """Satellite regression: deploy → crash-evict → recover leaves
        the cluster ledger clean, with the dead node's resources
        released and the target charged exactly once."""
        env = build_env(full_mesh_topology(3), seed=5, with_traces=False)
        handle = deploy_app(
            env,
            StreamPairApp("app", source_node="node1"),
            "bass-longest-path",
            config=NO_MIGRATIONS,
            force_assignments={SINK: "node2"},
        )
        _, coordinator = wire_recovery(env, "node2")
        run_timeline(env, 120.0)

        assert coordinator.recovered_count == 1
        assert coordinator.failed_count == 0
        action = coordinator.actions[0]
        assert action.from_node == "node2"
        assert action.to_node in {"node1", "node3"}
        assert handle.deployment.node_of(SINK) == action.to_node

        check_cluster_ledger(env.cluster)
        # Eviction released the dead node's ledger entry...
        assert env.cluster.node("node2").allocated.cpu == 0.0
        assert env.cluster.node("node2").allocated.memory_mb == 0.0
        # ...and the fleet total is exactly the two deployed pods.
        total = sum(
            env.cluster.node(n).allocated.cpu
            for n in ("node1", "node2", "node3")
        )
        assert total == pytest.approx(2.0)

    def test_traffic_flows_again_after_restart(self):
        env = build_env(full_mesh_topology(3), seed=5, with_traces=False)
        handle = deploy_app(
            env,
            StreamPairApp("app", source_node="node1"),
            "bass-longest-path",
            config=NO_MIGRATIONS,
            force_assignments={SINK: "node2"},
        )
        wire_recovery(env, "node2")
        run_timeline(env, 120.0)
        assert handle.binding.goodput(SOURCE, SINK) == pytest.approx(1.0)
        assert handle.binding.unroutable_edges == set()

    def test_stranded_pod_when_nothing_fits(self):
        """No surviving node can take the pod: the recovery is recorded
        as failed, the binding stays on the dead node, and the ledger is
        still consistent (no phantom release or double-charge)."""
        topo = MeshTopology()
        topo.add_node(MeshNode("node1", cpu_cores=1.0, memory_mb=1024))
        topo.add_node(MeshNode("node2", cpu_cores=1.0, memory_mb=1024))
        topo.add_node(MeshNode("node3", cpu_cores=0.5, memory_mb=1024))
        for a, b in (("node1", "node2"), ("node2", "node3"),
                     ("node1", "node3")):
            topo.add_link(a, b, capacity_mbps=25.0)
        env = build_env(topo, seed=5, with_traces=False)
        handle = deploy_app(
            env,
            StreamPairApp("app", source_node="node1"),
            "bass-longest-path",
            config=NO_MIGRATIONS,
            force_assignments={SINK: "node2"},
        )
        _, coordinator = wire_recovery(env, "node2")
        run_timeline(env, 120.0)

        assert coordinator.recovered_count == 0
        assert coordinator.failed_count == 1
        assert coordinator.actions[0].to_node is None
        assert handle.deployment.node_of(SINK) == "node2"
        check_cluster_ledger(env.cluster)
        assert env.cluster.node("node2").allocated.cpu == pytest.approx(1.0)


class TestMultiTenantRecovery:
    def test_arbiter_serializes_two_tenants(self):
        env = build_env(full_mesh_topology(4), seed=5, with_traces=False)
        handles = [
            deploy_app(
                env,
                StreamPairApp(f"tenant{i}", source_node="node1"),
                "bass-longest-path",
                config=NO_MIGRATIONS,
                force_assignments={SINK: "node2"},
            )
            for i in range(2)
        ]
        _, coordinator = wire_recovery(env, "node2")
        run_timeline(env, 120.0)

        assert coordinator.recovered_count == 2
        targets = [a.to_node for a in coordinator.actions]
        # One recovery round: the second tenant was deflected off the
        # first tenant's claim, so they land on different nodes.
        assert len(set(targets)) == 2
        assert env.control_plane.arbiter.conflict_count >= 1
        check_cluster_ledger(env.cluster)
        for handle in handles:
            assert handle.deployment.node_of(SINK) != "node2"


class TestTraceChain:
    def test_plan_cites_confirmation_and_restart_cites_plan(self):
        tracer = Tracer()
        env = build_env(
            full_mesh_topology(3), seed=5, with_traces=False, tracer=tracer
        )
        deploy_app(
            env,
            StreamPairApp("app", source_node="node1"),
            "bass-longest-path",
            config=NO_MIGRATIONS,
            force_assignments={SINK: "node2"},
        )
        wire_recovery(env, "node2")
        run_timeline(env, 120.0)

        by_kind = {}
        for event in tracer.events:
            by_kind.setdefault(event.kind, event)
        plan = by_kind["recovery.plan"]
        assert plan.cause == by_kind["node.confirmed_dead"].id
        restart = by_kind["restart"]
        assert restart.cause == plan.id
        assert restart.data["reason"] == "crash recovery"


class TestRegionalRecovery:
    def test_escalation_selects_around_published_claims(self):
        """A recovery that must leave its region selects around the
        claims the arbiter published, as a migration's handoff does: a
        claim held on r1n1 sends the sink to r1n2, not into a denied
        handoff that strands it."""
        topology = regional_mesh(2, 2, cpu_cores=1.0)
        fleet = FleetConfig(region_specs=regional_specs(2, 2))
        env = build_env(topology, seed=5, with_traces=False, fleet=fleet)
        handle = deploy_app(
            env,
            StreamPairApp("tenant00", source_node="r0n1"),
            "bass-longest-path",
            config=NO_MIGRATIONS,
            force_assignments={SINK: "r0n2"},
        )
        cp = env.control_plane
        cp.arbiter.submit_batch(
            [RegionClaim(0.0, 0, "region1", "tenant01", SINK, "r1n1", 1.0)]
        )
        cp.arbiter.resolve(0.0)
        env.netem.topology.set_node_up("r0n2", False)
        coordinator = RecoveryCoordinator(cp)

        (action,) = coordinator.recover_from("r0n2")

        assert action.to_node == "r1n2"
        assert handle.deployment.node_of(SINK) == "r1n2"
        assert cp.arbiter.handoff_counts() == {"committed": 1}
        check_cluster_ledger(env.cluster)
        # The grant is claimed on the board of the region that owns it
        # (first needed by this claim), in the recovery's round.
        cp.arbiter.resolve(env.netem.now)
        held = cp.arbiter.board_claim("r1n2")
        assert (held.region, held.app, held.severity, held.epoch) == (
            "region1", "tenant00", 2.0, cp.arbiter.epoch_count
        )

    def test_escalations_in_one_round_select_around_each_other(self):
        """Two tenants escalating out of one crash in one round: the
        second selects around the first's cross-region grant (claimed
        on the target region's board), so it takes the other free node
        instead of a handoff the broker denies."""
        topology = regional_mesh(2, 2, cpu_cores=2.0)
        fleet = FleetConfig(region_specs=regional_specs(2, 2))
        env = build_env(topology, seed=5, with_traces=False, fleet=fleet)
        handles = [
            deploy_app(
                env,
                StreamPairApp(f"tenant0{i}", source_node="r0n1"),
                "bass-longest-path",
                config=NO_MIGRATIONS,
                force_assignments={SINK: "r0n2"},
            )
            for i in range(2)
        ]
        cp = env.control_plane
        env.netem.topology.set_node_up("r0n2", False)
        coordinator = RecoveryCoordinator(cp)

        actions = coordinator.recover_from("r0n2")

        assert {a.to_node for a in actions} == {"r1n1", "r1n2"}
        assert {h.deployment.node_of(SINK) for h in handles} == {
            "r1n1", "r1n2"
        }
        assert cp.arbiter.handoff_counts() == {"committed": 2}
        check_cluster_ledger(env.cluster)
