"""Unit tests for placement explanations."""

from repro.cluster.orchestrator import ClusterState
from repro.core.dag import Component, ComponentDAG
from repro.core.explain import explain_placement
from repro.mesh.topology import citylab_subset
from repro.net.netem import NetworkEmulator


def demo_dag(edge_mbps=10.0):
    dag = ComponentDAG("demo")
    dag.add_component(Component("a", cpu=8, memory_mb=64))
    dag.add_component(Component("b", cpu=8, memory_mb=64))
    dag.add_component(Component("c", cpu=8, memory_mb=64))
    dag.add_dependency("a", "b", edge_mbps)
    dag.add_dependency("b", "c", 1.0)
    return dag


def world():
    topology = citylab_subset()
    return ClusterState.from_topology(topology), NetworkEmulator(topology)


class TestExplainPlacement:
    def test_reports_order_ranking_and_assignments(self):
        cluster, netem = world()
        explanation = explain_placement(demo_dag(), cluster, netem)
        assert explanation.order == ("a", "b", "c")
        assert explanation.node_ranking[0] == "node1"
        assert set(explanation.assignments) == {"a", "b", "c"}

    def test_does_not_mutate_the_live_ledger(self):
        cluster, netem = world()
        free_before = [node.free for node in cluster.schedulable_nodes()]
        explain_placement(demo_dag(), cluster, netem)
        assert [node.free for node in cluster.schedulable_nodes()] == free_before

    def test_edge_fates_cover_every_edge(self):
        cluster, netem = world()
        explanation = explain_placement(demo_dag(), cluster, netem)
        assert len(explanation.edges) == 2

    def test_colocated_fraction(self):
        cluster, netem = world()
        # 8-core components on 12/12/12/8 nodes: every component sits
        # alone, so nothing is co-located.
        explanation = explain_placement(demo_dag(), cluster, netem)
        assert explanation.colocated_fraction == 0.0

        small = ComponentDAG("small")
        small.add_component(Component("x", cpu=1, memory_mb=8))
        small.add_component(Component("y", cpu=1, memory_mb=8))
        small.add_dependency("x", "y", 5.0)
        cluster2, netem2 = world()
        explanation2 = explain_placement(small, cluster2, netem2)
        assert explanation2.colocated_fraction == 1.0

    def test_flags_under_provisioned_edges(self):
        cluster, netem = world()
        # A 100 Mbps requirement across a mesh whose best path is ~25.
        explanation = explain_placement(demo_dag(edge_mbps=100.0), cluster, netem)
        assert not all(edge.satisfied for edge in explanation.edges)
        assert "UNDER-PROVISIONED" in explanation.render()

    def test_render_is_human_readable(self):
        cluster, netem = world()
        text = explain_placement(demo_dag(), cluster, netem).render()
        assert "packing order" in text
        assert "node ranking" in text
        assert "loopback" in text or "via" in text

    def test_works_without_netem(self):
        cluster, _ = world()
        explanation = explain_placement(demo_dag(), cluster, None)
        for edge in explanation.edges:
            if not edge.colocated:
                assert edge.path_capacity_mbps is None
                assert edge.satisfied  # unknown capacity is not flagged


class TestEdgeFateSatisfied:
    def test_loopback_always_satisfied(self):
        from repro.core.explain import EdgeFate

        edge = EdgeFate(
            src="a", dst="b", required_mbps=10_000.0, colocated=True
        )
        assert edge.satisfied

    def test_unknown_capacity_not_flagged(self):
        from repro.core.explain import EdgeFate

        edge = EdgeFate(
            src="a", dst="b", required_mbps=100.0, colocated=False,
            path=("node1", "node2"), path_capacity_mbps=None,
        )
        assert edge.satisfied

    def test_wireless_path_with_headroom_satisfied(self):
        from repro.core.explain import EdgeFate

        edge = EdgeFate(
            src="a", dst="b", required_mbps=10.0, colocated=False,
            path=("node1", "node2"), path_capacity_mbps=25.0,
        )
        assert edge.satisfied

    def test_constrained_wireless_path_flagged(self):
        from repro.core.explain import EdgeFate

        edge = EdgeFate(
            src="a", dst="b", required_mbps=100.0, colocated=False,
            path=("node1", "node3", "node2"), path_capacity_mbps=25.0,
        )
        assert not edge.satisfied

    def test_exact_capacity_boundary_satisfied(self):
        from repro.core.explain import EdgeFate

        edge = EdgeFate(
            src="a", dst="b", required_mbps=25.0, colocated=False,
            path=("node1", "node2"), path_capacity_mbps=25.0,
        )
        assert edge.satisfied
