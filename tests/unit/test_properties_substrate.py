"""Property-based tests for traces, queues, placement, and migration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.orchestrator import ClusterState
from repro.cluster.resources import NodeResources, ResourceSpec
from repro.core.controlplane import check_cluster_ledger
from repro.core.dag import Component, ComponentDAG
from repro.core.migration import MigrationPlanner, Violation
from repro.core.ordering import order_components
from repro.core.placement import PlacementEngine
from repro.errors import InsufficientCapacityError
from repro.mesh.traces import BandwidthTrace
from tests.oracles import LockstepQueue


class TestTraceProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookup_always_returns_a_sample_value(self, values, t):
        trace = BandwidthTrace(range(len(values)), values)
        assert trace.value_at(t) in values

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=2,
            max_size=50,
        ),
        st.floats(min_value=0.5, max_value=60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rolling_mean_within_range(self, values, window):
        trace = BandwidthTrace(range(len(values)), values)
        smoothed = trace.rolling_mean(window)
        assert smoothed.values.min() >= min(values) - 1e-9
        assert smoothed.values.max() <= max(values) + 1e-9


class TestQueueProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),  # offered
                st.floats(min_value=0.0, max_value=100.0),  # capacity
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_backlog_bounded_and_nonnegative(self, steps):
        queue = LockstepQueue(buffer_mbit=50.0)
        for offered, capacity in steps:
            queue.update(1.0, offered, capacity)
            assert 0.0 <= queue.backlog_mbit <= 50.0
            assert 0.0 <= queue.last_loss_fraction <= 1.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_in_minus_out_minus_dropped_is_backlog(self, offers):
        queue = LockstepQueue(buffer_mbit=30.0)
        capacity = 10.0
        total_in = 0.0
        drained_upper = 0.0
        for offered in offers:
            queue.update(1.0, offered, capacity)
            total_in += offered
            drained_upper += capacity
        # Everything offered is either still queued, drained, or dropped.
        assert (
            queue.backlog_mbit
            <= total_in - queue.dropped_mbit_total + 1e-6
        )
        assert queue.dropped_mbit_total <= total_in + 1e-6


@st.composite
def placement_scenarios(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=5))
    node_cpu = [
        draw(st.floats(min_value=1.0, max_value=16.0)) for _ in range(n_nodes)
    ]
    n_comps = draw(st.integers(min_value=1, max_value=10))
    comp_cpu = [
        draw(st.floats(min_value=0.1, max_value=4.0)) for _ in range(n_comps)
    ]
    heuristic = draw(st.sampled_from(["bfs", "longest_path"]))
    return node_cpu, comp_cpu, heuristic


class TestPlacementProperties:
    @given(placement_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_never_oversubscribes(self, scenario):
        node_cpu, comp_cpu, heuristic = scenario
        cluster = ClusterState(
            NodeResources(f"n{i}", ResourceSpec(cpu, 1e6))
            for i, cpu in enumerate(node_cpu)
        )
        dag = ComponentDAG("prop")
        for i, cpu in enumerate(comp_cpu):
            dag.add_component(Component(f"c{i}", cpu=cpu, memory_mb=1))
        for i in range(len(comp_cpu) - 1):
            dag.add_dependency(f"c{i}", f"c{i + 1}", float(i + 1))
        order = order_components(dag, heuristic)
        engine = PlacementEngine(cluster)
        try:
            assignments = engine.place(dag.to_pods(), order)
        except InsufficientCapacityError:
            return  # infeasible draws are fine
        # Every component assigned exactly once; no node oversubscribed.
        assert sorted(assignments) == sorted(dag.component_names)
        check_cluster_ledger(cluster)


@st.composite
def violation_sets(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    dag = ComponentDAG("prop")
    for i in range(n):
        dag.add_component(Component(f"c{i}"))
    edges = []
    for i in range(n - 1):
        weight = draw(st.floats(min_value=0.1, max_value=50.0))
        dag.add_dependency(f"c{i}", f"c{i + 1}", weight)
        edges.append((f"c{i}", f"c{i + 1}", weight))
    chosen = draw(
        st.lists(st.sampled_from(edges), unique=True, min_size=1)
    )
    violations = [
        Violation(
            component=src,
            dependency=dst,
            required_mbps=weight,
            goodput=0.2,
            utilization=1.0,
            available_mbps=0.0,
            headroom_mbps=1.0,
        )
        for src, dst, weight in chosen
    ]
    return dag, violations


class TestMigrationSelectionProperties:
    @given(violation_sets())
    @settings(max_examples=100, deadline=None)
    def test_never_selects_both_ends_of_an_edge(self, scenario):
        dag, violations = scenario
        planner = MigrationPlanner(dag)
        candidates = set(planner.select_candidates(violations))
        for src, dst, _ in dag.edges():
            assert not ({src, dst} <= candidates)

    @given(violation_sets())
    @settings(max_examples=100, deadline=None)
    def test_candidates_come_from_violations(self, scenario):
        dag, violations = scenario
        planner = MigrationPlanner(dag)
        involved = {v.component for v in violations} | {
            v.dependency for v in violations
        }
        assert set(planner.select_candidates(violations)) <= involved

    @given(violation_sets())
    @settings(max_examples=60, deadline=None)
    def test_nonempty_when_any_movable_violation(self, scenario):
        dag, violations = scenario
        planner = MigrationPlanner(dag)
        assert planner.select_candidates(violations)
