"""Unit tests for Algorithm 3: violation detection, candidate pruning,
and target selection."""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.orchestrator import ClusterState
from repro.cluster.resources import NodeResources, ResourceSpec
from repro.core import migration
from repro.core.binding import DeploymentBinding
from repro.core.dag import Component, ComponentDAG
from repro.core.migration import MigrationPlanner, Violation
from repro.mesh.topology import line_topology, regional_mesh
from repro.net.netem import NetworkEmulator
from repro.obs.trace import Tracer


def pair_dag(weight=8.0, pinned_producer=None):
    dag = ComponentDAG("pair")
    dag.add_component(
        Component("producer", cpu=1, memory_mb=10, pinned_node=pinned_producer)
    )
    dag.add_component(Component("consumer", cpu=1, memory_mb=10))
    dag.add_dependency("producer", "consumer", weight)
    return dag


def violation(component="producer", dependency="consumer", **kwargs):
    defaults = dict(
        required_mbps=8.0,
        goodput=0.3,
        utilization=1.0,
        available_mbps=0.0,
        headroom_mbps=2.0,
    )
    defaults.update(kwargs)
    return Violation(component=component, dependency=dependency, **defaults)


class TestDetectViolations:
    def _setup(self, capacity=25.0, demand=8.0):
        dag = pair_dag(weight=demand)
        topo = line_topology([capacity])
        netem = NetworkEmulator(topo)
        deployment = Deployment("pair")
        deployment.bind("producer", "node1")
        deployment.bind("consumer", "node2")
        netem.add_flow("e", "node1", "node2", demand)
        netem.recompute()
        flow = netem.flow("e")
        goodput = {"e": flow.goodput_fraction}
        planner = MigrationPlanner(dag, goodput_threshold=0.5)
        violations = planner.detect_violations(
            deployment,
            netem,
            goodput_of=lambda s, d: flow.goodput_fraction,
            achieved_mbps_of=lambda s, d: flow.allocated_mbps,
        )
        return violations

    def test_healthy_edge_no_violation(self):
        assert self._setup(capacity=25.0, demand=8.0) == []

    def test_starved_edge_trips_goodput(self):
        violations = self._setup(capacity=3.0, demand=8.0)
        assert len(violations) == 1
        assert violations[0].goodput == pytest.approx(3.0 / 8.0)

    def test_quota_exhaustion_trips_utilization(self):
        # Edge achieves its full 8 Mbps quota but leaves <20% headroom
        # on a 9 Mbps link.
        violations = self._setup(capacity=9.0, demand=8.0)
        assert len(violations) == 1
        assert violations[0].utilization == pytest.approx(1.0)
        assert violations[0].headroom_violated

    def test_colocated_edge_never_violates(self):
        dag = pair_dag()
        topo = line_topology([1.0])
        netem = NetworkEmulator(topo)
        deployment = Deployment("pair")
        deployment.bind("producer", "node1")
        deployment.bind("consumer", "node1")
        planner = MigrationPlanner(dag)
        assert (
            planner.detect_violations(
                deployment,
                netem,
                goodput_of=lambda s, d: 0.0,
                achieved_mbps_of=lambda s, d: 0.0,
            )
            == []
        )

    def test_goodput_trigger_disabled_at_zero(self):
        dag = pair_dag(weight=8.0)
        topo = line_topology([3.0])
        netem = NetworkEmulator(topo)
        deployment = Deployment("pair")
        deployment.bind("producer", "node1")
        deployment.bind("consumer", "node2")
        planner = MigrationPlanner(dag, goodput_threshold=0.0)
        violations = planner.detect_violations(
            deployment,
            netem,
            goodput_of=lambda s, d: 0.3,
            achieved_mbps_of=lambda s, d: 2.4,  # 0.3 of quota: no util trip
        )
        assert violations == []


class TestSelectCandidates:
    def test_single_end_of_pair_survives(self):
        dag = pair_dag()
        planner = MigrationPlanner(dag)
        candidates = planner.select_candidates([violation()])
        assert len(candidates) == 1

    def test_pinned_component_excluded(self):
        dag = pair_dag(pinned_producer="node3")
        planner = MigrationPlanner(dag)
        candidates = planner.select_candidates([violation()])
        assert candidates == ["consumer"]

    def test_largest_bandwidth_retained_neighbours_pruned(self):
        dag = ComponentDAG("app")
        for name in ("hub", "x", "y"):
            dag.add_component(Component(name))
        dag.add_dependency("hub", "x", 10.0)
        dag.add_dependency("hub", "y", 5.0)
        planner = MigrationPlanner(dag)
        # hub carries 15 Mbps total — the largest — so it is retained
        # and both of its violating partners are pruned: only one end
        # of each communicating pair moves.
        candidates = planner.select_candidates(
            [
                violation("hub", "x"),
                violation("hub", "y"),
            ]
        )
        assert candidates == ["hub"]

    def test_no_duplicates(self):
        dag = pair_dag()
        planner = MigrationPlanner(dag)
        candidates = planner.select_candidates([violation(), violation()])
        assert len(candidates) == len(set(candidates))

    def test_empty_violations(self):
        planner = MigrationPlanner(pair_dag())
        assert planner.select_candidates([]) == []


class TestSelectTarget:
    def _world(self, consumer_node="node2"):
        dag = pair_dag(pinned_producer="node1")
        topo = line_topology([25.0, 25.0])  # node1 - node2 - node3
        netem = NetworkEmulator(topo)
        cluster = ClusterState(
            NodeResources(name, ResourceSpec(4, 1000))
            for name in ("node1", "node2", "node3")
        )
        deployment = Deployment("pair")
        deployment.bind("producer", "node1")
        deployment.bind("consumer", consumer_node)
        planner = MigrationPlanner(dag)
        return planner, deployment, cluster, netem

    def test_prefers_colocation_with_dependency(self):
        planner, deployment, cluster, netem = self._world("node3")
        target, _ = planner.select_target(
            "consumer", deployment, cluster, netem
        )
        assert target == "node1"  # where the producer lives

    def test_excludes_current_node(self):
        planner, deployment, cluster, netem = self._world("node2")
        target, _ = planner.select_target(
            "consumer", deployment, cluster, netem
        )
        assert target != "node2"

    def test_respects_resource_fit(self):
        planner, deployment, cluster, netem = self._world("node3")
        cluster.node("node1").allocate(ResourceSpec(4, 0))  # full
        target, _ = planner.select_target(
            "consumer", deployment, cluster, netem
        )
        assert target == "node2"  # closest feasible alternative

    def test_none_when_nowhere_fits(self):
        planner, deployment, cluster, netem = self._world("node3")
        cluster.node("node1").allocate(ResourceSpec(4, 0))
        cluster.node("node2").allocate(ResourceSpec(4, 0))
        assert planner.select_target(
            "consumer", deployment, cluster, netem
        ) == (None, None)

    def test_explicit_exclusion(self):
        planner, deployment, cluster, netem = self._world("node3")
        target, _ = planner.select_target(
            "consumer", deployment, cluster, netem, exclude={"node1"}
        )
        assert target == "node2"

    def test_claimed_nodes_filter_one_ranking(self):
        """A claimed node is ranked but not granted: one ranking gives
        the granted node and the node the claim deflected the choice
        from, and the trace ranks only what could be granted."""
        planner, deployment, cluster, netem = self._world("node3")
        tracer = Tracer()
        granted, preferred = planner.select_target(
            "consumer", deployment, cluster, netem, claimed={"node1"},
            tracer=tracer,
        )
        assert (granted, preferred) == ("node2", "node1")
        assert granted == planner.select_target(
            "consumer", deployment, cluster, netem, exclude={"node1"}
        )[0]
        (ranked,) = tracer.events
        assert [row["node"] for row in ranked.data["ranking"]] == ["node2"]
        assert ranked.data["chosen"] == "node2"
        # Every candidate claimed: nothing granted, the preference kept.
        assert planner.select_target(
            "consumer", deployment, cluster, netem,
            claimed={"node1", "node2"},
        ) == (None, "node1")

    def test_capacities_are_read_once_per_decision(self, monkeypatch):
        planner, deployment, cluster, netem = self._world("node3")
        reads = []
        read = netem.capacities_now

        def counted():
            reads.append(netem.now)
            return read()

        monkeypatch.setattr(netem, "capacities_now", counted)
        priced = []
        estimate = planner._estimate_achievable

        def spy(component, node, *args):
            priced.append(node)
            return estimate(component, node, *args)

        monkeypatch.setattr(planner, "_estimate_achievable", spy)
        planner.select_target("consumer", deployment, cluster, netem)
        assert priced == ["node1", "node2"] and len(reads) == 1
        # No candidate fits: nothing is priced and nothing read.
        cluster.node("node1").allocate(ResourceSpec(4, 0))
        cluster.node("node2").allocate(ResourceSpec(4, 0))
        planner.select_target("consumer", deployment, cluster, netem)
        assert priced == ["node1", "node2"] and len(reads) == 1

    def test_improvement_gate_blocks_pointless_moves(self):
        # Consumer sits on node2 with a healthy direct 25 Mbps link;
        # moving to node3 would put it behind two hops with competing
        # traffic — the gate must reject when no gain is possible.
        planner, deployment, cluster, netem = self._world("node2")
        netem.add_flow("edge", "node1", "node2", 8.0)
        netem.recompute()
        # Saturate node2->node3 so a move to node3 cannot improve.
        netem.add_flow("noise", "node2", "node3", 25.0)
        netem.recompute()
        cluster.node("node1").allocate(ResourceSpec(4, 0))  # block colocation
        target, _ = planner.select_target(
            "consumer",
            deployment,
            cluster,
            netem,
            achieved_mbps_of=lambda s, d: 8.0,
        )
        assert target is None


class TestWhatIfOwnFlows:
    """The what-if behind ``select_target`` re-routes the component's
    own edges hypothetically, so the flows the binding registered for
    them must be left out — by the binding's own id rule, or they would
    be counted twice — and prices them against the flows linked to the
    hypothetical paths only."""

    @staticmethod
    def _priced(monkeypatch, planner, component, node, deployment, netem):
        """The estimate and the flow ids its one what-if solve saw."""
        seen = []
        solve = migration.max_min_allocation

        def spy(demands, capacities):
            seen.append({demand.flow_id for demand in demands})
            return solve(demands, capacities)

        monkeypatch.setattr(migration, "max_min_allocation", spy)
        estimate = planner._estimate_achievable(
            component, node, deployment, netem, netem.capacities_now()
        )
        (what_if,) = seen
        return estimate, what_if

    def test_excluded_ids_are_the_ones_the_binding_registered(self, monkeypatch):
        dag = ComponentDAG("shop")
        for name in ("a", "b", "c", "d"):
            dag.add_component(Component(name, cpu=1, memory_mb=10))
        dag.add_dependency("a", "b", 4.0)
        dag.add_dependency("b", "c", 3.0)
        dag.add_dependency("b", "d", 2.0)
        dag.add_dependency("a", "d", 1.0)
        netem = NetworkEmulator(line_topology([25.0, 25.0, 25.0]))
        deployment = Deployment("shop")
        for name, node in zip("abcd", ("node1", "node2", "node3", "node4")):
            deployment.bind(name, node)
        binding = DeploymentBinding(dag, deployment, netem)
        binding.sync_flows()
        # Another tenant with the same component names is not "own".
        netem.add_flow("other:a->b", "node1", "node2", 1.0)
        # Nothing priced crosses node3->node2 or node2->node1.
        netem.add_flow("far:x->y", "node3", "node1", 6.0)
        netem.recompute()
        registered = {
            flow_id
            for edge, flow_id in binding._flow_ids.items()
            if "b" in edge
        }
        assert len(registered) == 3
        assert all(netem.has_flow(flow_id) for flow_id in registered)

        estimate, what_if = self._priced(
            monkeypatch, MigrationPlanner(dag), "b", "node4", deployment, netem
        )
        assert estimate > 0
        live = {flow.flow_id for flow in netem.flows}
        hypothetical = what_if - live
        # a->b re-routed node1->node4 and b->c node4->node3; b->d became
        # loopback.  Priced beside them: the flows linked to those paths
        # (a->d and the other tenant share node1->node2), none of b's own.
        assert len(hypothetical) == 2
        assert what_if - hypothetical == {"other:a->b", "shop:a->d"}
        assert not what_if & registered
        assert "far:x->y" not in what_if

    def test_another_region_s_flows_are_never_priced(self, monkeypatch):
        dag = ComponentDAG("shop")
        for name in ("a", "b"):
            dag.add_component(Component(name, cpu=1, memory_mb=10))
        dag.add_dependency("a", "b", 5.0)
        # Two regions; neither's traffic crosses the backbone.
        netem = NetworkEmulator(regional_mesh(2, 3))
        deployment = Deployment("shop")
        deployment.bind("a", "r0n1")
        deployment.bind("b", "r0n2")
        DeploymentBinding(dag, deployment, netem).sync_flows()
        netem.add_flow("near", "r0n3", "r0n2", 7.0)
        for i, (src, dst) in enumerate(
            [("r1n1", "r1n2"), ("r1n2", "r1n3"), ("r1n3", "r1n1")]
        ):
            netem.add_flow(f"region1:{i}", src, dst, 9.0)
        netem.recompute()

        estimate, what_if = self._priced(
            monkeypatch, MigrationPlanner(dag), "a", "r0n3", deployment, netem
        )
        assert estimate == 5.0
        assert what_if == {"__whatif_a_out_b", "near"}
