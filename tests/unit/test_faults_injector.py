"""Fault injector: topology state flips, flow teardown, reconvergence."""

import pytest

from repro.errors import RoutingError, SimulationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    Partition,
    ProbeBlackout,
)
from repro.mesh.topology import full_mesh_topology, line_topology
from repro.net.netem import NetworkEmulator
from repro.obs.trace import Tracer
from repro.sim.engine import Engine


def make_netem(topology):
    return NetworkEmulator(topology, engine=Engine(), tick_s=1.0)


def install(netem, events, tracer=None):
    injector = FaultInjector(FaultPlan(events), netem, tracer=tracer)
    injector.install()
    return injector


class TestNodeCrash:
    def test_crash_tears_down_crossing_flows(self):
        netem = make_netem(line_topology([10.0, 10.0]))
        netem.add_flow("f", "node1", "node3", 2.0)
        injector = install(netem, [NodeCrash(at_s=5.0, node="node2")])
        netem.engine.run_until(10.0)
        assert not netem.topology.is_node_up("node2")
        assert not netem.topology.link("node1", "node2").up
        assert not netem.has_flow("f")
        assert injector.injected[0].flows_removed == 1
        with pytest.raises(RoutingError):
            netem.router.traceroute("node1", "node3")

    def test_reboot_restores_node_and_links(self):
        netem = make_netem(line_topology([10.0, 10.0]))
        install(
            netem,
            [NodeCrash(at_s=5.0, node="node2", reboot_after_s=20.0)],
        )
        netem.engine.run_until(10.0)
        assert not netem.topology.is_node_up("node2")
        netem.engine.run_until(30.0)
        assert netem.topology.is_node_up("node2")
        assert netem.topology.link("node1", "node2").up
        assert netem.router.traceroute("node1", "node3") == (
            "node1", "node2", "node3",
        )

    def test_ground_truth_records_last_fault(self):
        netem = make_netem(line_topology([10.0, 10.0]))
        injector = install(netem, [NodeCrash(at_s=7.0, node="node3")])
        assert injector.last_fault_of("node3") is None
        netem.engine.run_until(8.0)
        fault = injector.last_fault_of("node3")
        assert fault is not None and fault[1] == 7.0
        assert injector.last_fault_of("node1") is None


class TestLinkFaults:
    def test_link_down_reroutes_flows(self):
        netem = make_netem(full_mesh_topology(3))
        netem.add_flow("f", "node1", "node2", 2.0)
        assert netem.flow("f").path == ("node1", "node2")
        injector = install(netem, [LinkDown(at_s=5.0, a="node1", b="node2")])
        netem.engine.run_until(10.0)
        assert netem.has_flow("f")
        assert netem.flow("f").path == ("node1", "node3", "node2")
        assert injector.injected[0].flows_rerouted == 1
        # Both endpoints are still alive; only the link failed.
        assert netem.topology.is_node_up("node1")
        assert netem.topology.is_node_up("node2")

    def test_restore_heals_the_direct_path(self):
        netem = make_netem(full_mesh_topology(3))
        netem.add_flow("f", "node1", "node2", 2.0)
        install(
            netem,
            [LinkDown(at_s=5.0, a="node1", b="node2", restore_after_s=10.0)],
        )
        netem.engine.run_until(20.0)
        assert netem.topology.link("node1", "node2").up
        assert netem.flow("f").path == ("node1", "node2")

    def test_flap_applies_every_cycle(self):
        netem = make_netem(full_mesh_topology(3))
        injector = install(
            netem,
            [LinkFlap(at_s=5.0, a="node1", b="node2", down_s=2.0, up_s=2.0,
                      cycles=3)],
        )
        netem.engine.run_until(30.0)
        kinds = [f.kind for f in injector.injected]
        assert kinds.count("link_down") == 3
        assert kinds.count("link_down.cleared") == 3
        assert netem.topology.link("node1", "node2").up


class TestPartition:
    def test_partition_cuts_only_cross_links(self):
        netem = make_netem(full_mesh_topology(4))
        install(
            netem,
            [Partition(at_s=5.0, group=("node1", "node2"))],
        )
        netem.engine.run_until(10.0)
        assert netem.topology.link("node1", "node2").up
        assert netem.topology.link("node3", "node4").up
        assert not netem.topology.link("node1", "node3").up
        assert not netem.topology.link("node2", "node4").up
        with pytest.raises(RoutingError):
            netem.router.traceroute("node1", "node4")

    def test_heal_reconnects(self):
        netem = make_netem(full_mesh_topology(4))
        install(
            netem,
            [Partition(at_s=5.0, group=("node1",), heal_after_s=10.0)],
        )
        netem.engine.run_until(20.0)
        assert netem.router.traceroute("node1", "node4") == ("node1", "node4")

    def test_heal_does_not_resurrect_crashed_endpoint(self):
        """A link that is down both from the partition and because its
        endpoint crashed stays down after the partition heals."""
        netem = make_netem(full_mesh_topology(3))
        install(
            netem,
            [
                NodeCrash(at_s=4.0, node="node1"),
                Partition(at_s=5.0, group=("node1",), heal_after_s=10.0),
            ],
        )
        netem.engine.run_until(20.0)
        assert not netem.topology.link("node1", "node2").up
        assert not netem.topology.link("node1", "node3").up


class TestProbeBlackout:
    def test_blackout_windows_no_substrate_change(self):
        netem = make_netem(full_mesh_topology(3))
        injector = install(
            netem, [ProbeBlackout(at_s=10.0, node="node2", duration_s=5.0)]
        )
        netem.engine.run_until(20.0)
        assert injector.in_blackout("node2", 12.0)
        assert not injector.in_blackout("node2", 15.0)
        assert not injector.in_blackout("node2", 9.0)
        assert not injector.in_blackout("node1", 12.0)
        assert netem.topology.is_node_up("node2")


class TestLifecycle:
    def test_double_install_rejected(self):
        netem = make_netem(full_mesh_topology(3))
        injector = FaultInjector(
            FaultPlan([NodeCrash(at_s=1.0, node="node1")]), netem
        )
        injector.install()
        with pytest.raises(SimulationError, match="already installed"):
            injector.install()

    def test_install_validates_against_topology(self):
        netem = make_netem(full_mesh_topology(3))
        injector = FaultInjector(
            FaultPlan([NodeCrash(at_s=1.0, node="ghost")]), netem
        )
        with pytest.raises(SimulationError, match="unknown node"):
            injector.install()
        assert not injector.installed

    def test_trace_events_emitted(self):
        tracer = Tracer()
        netem = make_netem(full_mesh_topology(3))
        install(
            netem,
            [NodeCrash(at_s=5.0, node="node2", reboot_after_s=10.0)],
            tracer=tracer,
        )
        netem.engine.run_until(20.0)
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["fault.injected", "fault.cleared"]
        injected, cleared = tracer.events
        assert injected.data["fault"] == "node_crash"
        assert injected.data["target"] == "node2"
        assert cleared.cause == injected.id
