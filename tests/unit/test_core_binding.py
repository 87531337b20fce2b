"""Unit tests for the deployment ↔ network binding."""

import pickle

import pytest

from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding, EdgeCosts, edge_flow_id
from repro.core.dag import Component, ComponentDAG
from repro.errors import DagError, SchedulingError
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator


def make_world(weight=5.0):
    dag = ComponentDAG("app")
    dag.add_component(Component("a", cpu=1, memory_mb=10))
    dag.add_component(Component("b", cpu=1, memory_mb=10))
    dag.add_dependency("a", "b", weight)
    deployment = Deployment("app")
    deployment.bind("a", "node1")
    deployment.bind("b", "node2")
    netem = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
    return DeploymentBinding(dag, deployment, netem), dag, deployment, netem


class TestSyncFlows:
    def test_creates_flow_for_inter_node_edge(self):
        binding, dag, _, netem = make_world()
        binding.sync_flows()
        flow = netem.flow(edge_flow_id("app", "a", "b"))
        assert flow.src == "node1" and flow.dst == "node2"
        assert flow.demand_mbps == 5.0

    def test_no_flow_for_colocated_edge(self):
        binding, _, deployment, netem = make_world()
        binding.sync_flows()
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert not netem.has_flow(edge_flow_id("app", "a", "b"))

    def test_reroutes_after_migration(self):
        binding, _, deployment, netem = make_world()
        binding.sync_flows()
        deployment.rebind("b", "node3", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        flow = netem.flow(edge_flow_id("app", "a", "b"))
        assert flow.dst == "node3"

    def test_restarting_component_silences_edges(self):
        binding, _, deployment, netem = make_world()
        binding.sync_flows()
        deployment.rebind("b", "node3", time=0.0, restart_seconds=30.0)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 0.0
        netem.engine.run_until(31.0)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 5.0

    def test_remove_flows(self):
        binding, _, _, netem = make_world()
        binding.sync_flows()
        binding.remove_flows()
        assert not netem.has_flow(edge_flow_id("app", "a", "b"))

    def test_app_mismatch_raises(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a"))
        deployment = Deployment("other")
        netem = NetworkEmulator(full_mesh_topology(2))
        with pytest.raises(DagError):
            DeploymentBinding(dag, deployment, netem)


class TestDemandControl:
    def test_scale(self):
        binding, _, _, netem = make_world()
        binding.set_demand_scale("a", "b", 2.0)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 10.0

    def test_override(self):
        binding, _, _, netem = make_world()
        binding.set_demand_override("a", "b", 1.5)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 1.5
        binding.set_demand_override("a", "b", None)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 5.0

    def test_global_scale(self):
        binding, _, _, netem = make_world()
        binding.set_global_scale(0.5)
        binding.sync_flows()
        assert netem.flow(edge_flow_id("app", "a", "b")).demand_mbps == 2.5

    def test_negative_scale_raises(self):
        binding, _, _, _ = make_world()
        with pytest.raises(DagError):
            binding.set_demand_scale("a", "b", -1.0)

    def test_scale_unknown_edge_raises(self):
        binding, _, _, _ = make_world()
        with pytest.raises(DagError):
            binding.set_demand_scale("b", "a", 1.0)


class TestMeasurement:
    def test_goodput_full_when_link_fits(self):
        binding, _, _, _ = make_world(weight=5.0)
        binding.sync_flows()
        assert binding.goodput("a", "b") == 1.0

    def test_goodput_fraction_when_squeezed(self):
        binding, _, _, _ = make_world(weight=20.0)
        binding.sync_flows()
        assert binding.goodput("a", "b") == pytest.approx(0.5)

    def test_goodput_colocated_is_one(self):
        binding, _, deployment, _ = make_world(weight=20.0)
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert binding.goodput("a", "b") == 1.0

    def test_achieved_mbps(self):
        binding, _, _, _ = make_world(weight=20.0)
        binding.sync_flows()
        assert binding.achieved_mbps("a", "b") == pytest.approx(10.0)

    def test_achieved_colocated_is_demand(self):
        binding, _, deployment, _ = make_world(weight=7.0)
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert binding.achieved_mbps("a", "b") == 7.0

    def test_edge_transfer_time_uses_flow_rate(self):
        binding, _, _, _ = make_world(weight=5.0)
        binding.sync_flows()
        # 5 Mbit at the flow's 5 Mbps = 1 s, plus tiny propagation.
        assert binding.edge_transfer_time_s("a", "b", 5.0) == pytest.approx(
            1.0, abs=0.01
        )

    def test_edge_transfer_time_colocated_is_zero(self):
        binding, _, deployment, _ = make_world()
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert binding.edge_transfer_time_s("a", "b", 100.0) == 0.0

    def test_inter_node_edges(self):
        binding, _, deployment, _ = make_world()
        assert binding.inter_node_edges() == [("a", "b", 5.0)]
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        assert binding.inter_node_edges() == []


class TestCrossings:
    """``crossings()``: placement-derived structure, kept between calls
    and keyed on the deployment's revision."""

    AB = ("a", "b")

    def crossing(self, src_node, dst_node):
        return ((src_node, dst_node), edge_flow_id("app", "a", "b"))

    def test_inter_node_colocated_and_undeployed(self):
        binding, _, deployment, _ = make_world()
        assert binding.crossings() == {self.AB: self.crossing("node1", "node2")}
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        assert binding.crossings() == {self.AB: None}
        deployment.unbind("b")
        assert binding.crossings() == {}
        with pytest.raises(SchedulingError, match="'b' is not deployed"):
            binding.crossings()[self.AB]
        with pytest.raises(SchedulingError, match="'b' is not deployed"):
            EdgeCosts(binding).crossing_time_s("a", "b", 1.0)
        with pytest.raises(SchedulingError, match="'b' is not deployed"):
            binding.sync_flows()

    def test_kept_until_the_revision_moves(self):
        binding, _, deployment, netem = make_world()
        table = binding.crossings()
        binding.sync_flows()
        netem.engine.run_until(5.0)
        binding.set_global_scale(2.0)
        binding.sync_flows()
        EdgeCosts(binding).transfer_time_s("a", "b", 1.0)
        assert binding.crossings() is table  # nothing moved a pod
        deployment.rebind("b", "node3", time=5.0, restart_seconds=0.0)
        rebuilt = binding.crossings()
        assert rebuilt is not table
        assert rebuilt == {self.AB: self.crossing("node1", "node3")}

    def test_rebind_between_two_sample_calls_changes_the_answer(self):
        binding, _, deployment, _ = make_world()
        binding.sync_flows()
        assert EdgeCosts(binding).crossing_time_s("a", "b", 5.0) > 0.0
        deployment.rebind("b", "node1", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert EdgeCosts(binding).crossing_time_s("a", "b", 5.0) is None
        assert binding.edge_transfer_time_s("a", "b", 5.0) == 0.0
        deployment.rebind("b", "node3", time=0.0, restart_seconds=0.0)
        binding.sync_flows()
        assert EdgeCosts(binding).crossing_time_s("a", "b", 5.0) > 0.0

    def test_pairs_outside_the_dag_are_resolved_on_demand(self):
        binding, _, deployment, _ = make_world()
        crossings = binding.crossings()
        # Not a DAG edge: placement still answers, with no flow to ride.
        assert crossings[("b", "a")] == (("node2", "node1"), None)
        assert crossings[("a", "a")] is None
        deployment.rebind("a", "node2", time=0.0, restart_seconds=0.0)
        assert binding.crossings()[("b", "a")] is None

    def test_checkpoint_carries_placement_not_the_table(self):
        binding, _, deployment, _ = make_world()
        binding.sync_flows()
        assert binding._crossings[0] == deployment.revision
        restored = pickle.loads(pickle.dumps(binding))
        assert restored._crossings == (-1, None)
        assert restored.deployment.revision == deployment.revision
        assert restored.crossings() == binding.crossings()
        restored.deployment.rebind("b", "node3", time=0.0, restart_seconds=0.0)
        restored.sync_flows()
        assert restored.crossings() == {self.AB: self.crossing("node1", "node3")}
        assert restored.netem.flow(edge_flow_id("app", "a", "b")).dst == "node3"
        # The original is untouched by its copy's migration.
        assert binding.crossings() == {self.AB: self.crossing("node1", "node2")}
