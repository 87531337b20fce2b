"""Unit tests for the component DAG."""

import pytest

from repro.apps.social import SocialNetworkApp
from repro.core.dag import Component, ComponentDAG
from repro.errors import CycleError, DagError, UnknownComponentError


def chain_dag(weights=(5.0, 3.0)):
    dag = ComponentDAG("app")
    names = [chr(ord("a") + i) for i in range(len(weights) + 1)]
    for name in names:
        dag.add_component(Component(name))
    for (src, dst), weight in zip(zip(names, names[1:]), weights):
        dag.add_dependency(src, dst, weight)
    return dag


class TestConstruction:
    def test_empty_app_name_raises(self):
        with pytest.raises(DagError):
            ComponentDAG("")

    def test_duplicate_component_raises(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a"))
        with pytest.raises(DagError):
            dag.add_component(Component("a"))

    def test_edge_to_unknown_component_raises(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a"))
        with pytest.raises(UnknownComponentError):
            dag.add_dependency("a", "ghost", 1.0)

    def test_self_edge_raises(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a"))
        with pytest.raises(DagError):
            dag.add_dependency("a", "a", 1.0)

    def test_duplicate_edge_raises(self):
        dag = chain_dag()
        with pytest.raises(DagError):
            dag.add_dependency("a", "b", 1.0)

    def test_negative_weight_raises(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a"))
        dag.add_component(Component("b"))
        with pytest.raises(DagError):
            dag.add_dependency("a", "b", -1.0)

    def test_two_cycle_rejected(self):
        dag = chain_dag()
        with pytest.raises(CycleError):
            dag.add_dependency("b", "a", 1.0)

    def test_long_cycle_rejected_and_rolled_back(self):
        dag = chain_dag()  # a->b->c
        with pytest.raises(CycleError):
            dag.add_dependency("c", "a", 1.0)
        # The offending edge must not linger.
        assert dag.dependencies("c") == {}
        dag.validate()

    def test_rejected_edge_leaves_the_graph_untouched(self):
        dag = ComponentDAG("app")
        for name in "abcd":
            dag.add_component(Component(name))
        for src, dst in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            dag.add_dependency(src, dst, 1.0)
        before = list(dag.edges())
        with pytest.raises(CycleError):
            dag.add_dependency("d", "a", 2.0)  # closes a->c->d->a
        assert list(dag.edges()) == before
        assert dag.dependents("a") == {} and dag.dependencies("d") == {}
        dag.add_dependency("a", "d", 3.0)  # a second path is no cycle
        assert dag.topological_sort() == ["a", "b", "c", "d"]

    def test_building_the_social_dag_sorts_once(self, monkeypatch):
        """The cycle check walks from the new edge's head; the one full
        sort is ``validate()``'s."""
        sorts = []
        sort = ComponentDAG.topological_sort

        def counted(self):
            sorts.append(self.app)
            return sort(self)

        monkeypatch.setattr(ComponentDAG, "topological_sort", counted)
        dag = SocialNetworkApp().build_dag()
        assert dag.edge_count() > 1
        assert sorts == [dag.app]

    def test_component_with_negative_resources_raises(self):
        with pytest.raises(DagError):
            Component("a", cpu=-1)

    def test_zero_resource_component_allowed(self):
        Component("client", cpu=0.0, memory_mb=0.0)


class TestQueries:
    def test_dependencies_and_dependents(self):
        dag = chain_dag()
        assert dag.dependencies("a") == {"b": 5.0}
        assert dag.dependents("b") == {"a": 5.0}
        assert dag.dependencies("c") == {}

    def test_neighbors_both_directions(self):
        dag = chain_dag()
        assert dag.neighbors("b") == {"a", "c"}

    def test_weight(self):
        dag = chain_dag()
        assert dag.weight("a", "b") == 5.0
        with pytest.raises(DagError):
            dag.weight("b", "a")

    def test_roots(self):
        dag = chain_dag()
        assert dag.roots() == ["a"]

    def test_edges_iteration(self):
        dag = chain_dag()
        assert list(dag.edges()) == [("a", "b", 5.0), ("b", "c", 3.0)]
        assert dag.edge_count() == 2
        assert dag.total_bandwidth_mbps() == 8.0

    def test_contains_and_len(self):
        dag = chain_dag()
        assert "a" in dag
        assert "z" not in dag
        assert len(dag) == 3


class TestTopologicalSort:
    def test_chain(self):
        assert chain_dag().topological_sort() == ["a", "b", "c"]

    def test_respects_edges(self):
        dag = ComponentDAG("app")
        for name in "abcd":
            dag.add_component(Component(name))
        dag.add_dependency("d", "a", 1.0)
        dag.add_dependency("a", "b", 1.0)
        dag.add_dependency("c", "b", 1.0)
        order = dag.topological_sort()
        position = {name: i for i, name in enumerate(order)}
        assert position["d"] < position["a"] < position["b"]
        assert position["c"] < position["b"]

    def test_insertion_order_ties(self):
        dag = ComponentDAG("app")
        for name in ("z", "m", "a"):
            dag.add_component(Component(name))
        # No edges: ties resolve to insertion order, not alphabetical.
        assert dag.topological_sort() == ["z", "m", "a"]

    def test_empty_dag(self):
        assert ComponentDAG("app").topological_sort() == []


class TestPodsConversion:
    def test_to_pods_carries_annotations(self):
        dag = chain_dag()
        pods = dag.to_pods()
        by_name = {p.name: p for p in pods}
        assert by_name["a"].bandwidth_mbps == {"b": 5.0}
        assert by_name["a"].app == "app"
        assert by_name["c"].bandwidth_mbps == {}

    def test_to_pods_carries_pins(self):
        dag = ComponentDAG("app")
        dag.add_component(Component("a", pinned_node="node7"))
        assert dag.to_pods()[0].pinned_node == "node7"
