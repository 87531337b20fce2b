"""Unit tests for the bandwidth controller."""

import pytest

from repro.cluster.orchestrator import ClusterState, Orchestrator
from repro.config import BassConfig
from repro.core.binding import DeploymentBinding
from repro.core.controller import BandwidthController
from repro.core.controlplane import ControlPlane
from repro.core.dag import Component, ComponentDAG
from repro.mesh.node import MeshNode
from repro.mesh.topology import MeshTopology
from repro.net.netem import NetworkEmulator


def triangle_topology():
    """node1 - node2 - node3 full mesh, 25 Mbps everywhere."""
    topo = MeshTopology()
    topo.add_node(MeshNode("node1", cpu_cores=8, memory_mb=8192))
    topo.add_node(MeshNode("node2", cpu_cores=1, memory_mb=512))
    topo.add_node(MeshNode("node3", cpu_cores=8, memory_mb=8192))
    for a, b in (("node1", "node2"), ("node2", "node3"), ("node1", "node3")):
        topo.add_link(a, b, capacity_mbps=25.0)
    return topo


def make_controller(config=None, *, armed=False):
    """A producer (pinned node2) → consumer (node3) pair over 25 Mbps,
    registered with a control plane.  The plane's periodic epoch is
    disarmed unless ``armed``, so a test drives it with ``run_epoch()``
    and may advance the clock freely."""
    config = config or BassConfig().with_migration(cooldown_s=0.0)
    topo = triangle_topology()
    netem = NetworkEmulator(topo)
    cluster = ClusterState.from_topology(topo)
    orchestrator = Orchestrator(
        cluster, engine=netem.engine, restart_seconds=10.0
    )
    dag = ComponentDAG("pair")
    dag.add_component(
        Component("producer", cpu=1, memory_mb=256, pinned_node="node2")
    )
    dag.add_component(Component("consumer", cpu=1, memory_mb=256))
    dag.add_dependency("producer", "consumer", 8.0)
    pods = dag.to_pods()
    cluster.node("node2").allocate(pods[0].resources)
    cluster.node("node3").allocate(pods[1].resources)
    assignments = {"producer": "node2", "consumer": "node3"}
    deployment = orchestrator.deploy(pods, assignments)
    binding = DeploymentBinding(dag, deployment, netem)
    binding.sync_flows()
    plane = ControlPlane(netem, orchestrator)
    monitor = plane.monitor_for(config.probe, assignments=assignments)
    monitor.probe_all_links()
    # Let the startup probe flows expire so evaluations see app traffic.
    netem.engine.run_until(2.0)
    netem.recompute()
    controller = BandwidthController(
        "pair", orchestrator, binding, monitor, config
    )
    plane.register(controller)
    if not armed:
        plane.stop()
    return controller, plane, topo, netem, deployment


def evaluate(plane):
    """One fleet epoch of the plane's single tenant; its record."""
    (iteration,) = plane.run_epoch()
    return iteration


class TestEvaluate:
    def test_no_violation_no_migration(self):
        _, plane, _, _, deployment = make_controller()
        iteration = evaluate(plane)
        assert iteration.migrated == []
        assert deployment.migrations == []

    def test_goodput_violation_triggers_migration(self):
        _, plane, topo, _, deployment = make_controller()
        topo.link("node2", "node3").set_rate_limit(3.0)  # goodput 3/8
        iteration = evaluate(plane)
        assert iteration.migrated == ["consumer"]
        assert deployment.node_of("consumer") == "node1"

    def test_pinned_component_never_migrates(self):
        _, plane, topo, _, deployment = make_controller()
        topo.link("node2", "node3").set_rate_limit(3.0)
        evaluate(plane)
        assert deployment.node_of("producer") == "node2"

    def test_migrations_disabled(self):
        config = BassConfig(migrations_enabled=False)
        _, plane, topo, _, deployment = make_controller(config)
        topo.link("node2", "node3").set_rate_limit(3.0)
        iteration = evaluate(plane)
        assert iteration.migrated == []
        assert deployment.migrations == []

    def test_cooldown_delays_migration(self):
        config = BassConfig().with_migration(cooldown_s=30.0)
        controller, plane, topo, netem, _ = make_controller(config)
        topo.link("node2", "node3").set_rate_limit(3.0)
        first = evaluate(plane)  # detection, cooldown starts
        assert first.migrated == []
        netem.engine.run_until(controller.netem.now + 31.0)
        second = evaluate(plane)
        assert second.migrated == ["consumer"]

    def test_cooldown_resets_when_violation_clears(self):
        config = BassConfig().with_migration(cooldown_s=30.0)
        _, plane, topo, netem, _ = make_controller(config)
        topo.link("node2", "node3").set_rate_limit(3.0)
        evaluate(plane)
        topo.link("node2", "node3").set_rate_limit(None)  # recovers
        netem.engine.run_until(31.0)
        evaluate(plane)
        topo.link("node2", "node3").set_rate_limit(3.0)  # violates anew
        iteration = evaluate(plane)
        assert iteration.migrated == []  # cooldown restarted

    def test_headroom_violation_escalates_to_full_probe(self):
        controller, plane, topo, netem, _ = make_controller()
        netem.engine.run_until(100.0)  # past the full-probe cooldown
        before = controller.monitor.full_probe_count
        topo.link("node2", "node3").set_rate_limit(3.0)
        iteration = evaluate(plane)
        assert iteration.full_probes_triggered >= 1
        assert controller.monitor.full_probe_count > before

    def test_restart_window_respected(self):
        _, plane, topo, _, _ = make_controller()
        topo.link("node2", "node3").set_rate_limit(3.0)
        evaluate(plane)  # migrates consumer -> node1 (restart 10 s)
        topo.link("node1", "node2").set_rate_limit(3.0)  # new home broken too
        iteration = evaluate(plane)  # still restarting: no action
        assert iteration.migrated == []

    def test_iterations_recorded(self):
        controller, plane, _, _, _ = make_controller()
        evaluate(plane)
        evaluate(plane)
        assert len(controller.iterations) == 2

    def test_migration_events_view(self):
        controller, plane, topo, _, _ = make_controller()
        topo.link("node2", "node3").set_rate_limit(3.0)
        evaluate(plane)
        events = controller.migration_events()
        assert len(events) == 1
        assert events[0][1] == "consumer"


class TestPeriodic:
    """The control plane's epoch is the only timer a controller has."""

    def test_start_arms_periodic_evaluation(self):
        controller, _, topo, netem, deployment = make_controller(armed=True)
        # The plane's epoch is the only driver a controller has.
        assert not hasattr(controller, "start")
        assert not hasattr(controller, "evaluate")
        topo.link("node2", "node3").set_rate_limit(3.0)
        netem.start()
        netem.engine.run_until(65.0)
        assert len(controller.iterations) == 2  # one per 30 s epoch
        assert deployment.migrations  # migrated at first post-drop eval

    def test_stop(self):
        controller, plane, _, netem, _ = make_controller(armed=True)
        plane.stop()
        netem.engine.run_until(100.0)
        assert controller.iterations == []

    def test_table1_rows_only_nonzero_iterations(self):
        controller, plane, topo, _, _ = make_controller()
        evaluate(plane)  # healthy
        topo.link("node2", "node3").set_rate_limit(3.0)
        evaluate(plane)  # violating
        rows = controller.table1_rows()
        assert len(rows) == 1
        index, over_quota, migrated = rows[0]
        assert index == 1
        assert over_quota >= 1
        assert migrated == 1
