"""Unit tests for the §8 extensions: the hybrid ordering heuristic and
stateful migration cost."""

import pytest

from repro.cluster.orchestrator import ClusterState, Orchestrator
from repro.config import BassConfig
from repro.core.dag import Component, ComponentDAG
from repro.core.ordering import (
    breadth_first_order,
    hybrid_order,
    longest_path_order,
    order_components,
)
from repro.core.scheduler import BassScheduler
from repro.errors import DagError


def mixed_dag() -> ComponentDAG:
    """A pipeline head feeding a wide fan-out tail.

    src -> s1 -> s2 -> hub -> {f1..f4}: the head is a deep chain (the
    longest-path regime), the tail is a high-fanout region (the BFS
    regime) — §8's motivating shape.
    """
    dag = ComponentDAG("mixed")
    for name in ("src", "s1", "s2", "hub", "f1", "f2", "f3", "f4"):
        dag.add_component(Component(name))
    dag.add_dependency("src", "s1", 10.0)
    dag.add_dependency("s1", "s2", 9.0)
    dag.add_dependency("s2", "hub", 8.0)
    for i, weight in enumerate((7.0, 6.0, 5.0, 4.0), start=1):
        dag.add_dependency("hub", f"f{i}", weight)
    return dag.validate()


def chain_dag() -> ComponentDAG:
    dag = ComponentDAG("chain")
    names = ["a", "b", "c", "d"]
    for name in names:
        dag.add_component(Component(name))
    for src, dst in zip(names, names[1:]):
        dag.add_dependency(src, dst, 5.0)
    return dag


def star_dag() -> ComponentDAG:
    dag = ComponentDAG("star")
    dag.add_component(Component("hub"))
    for i in range(4):
        dag.add_component(Component(f"leaf{i}"))
        dag.add_dependency("hub", f"leaf{i}", float(4 - i))
    return dag


class TestHybridOrder:
    def test_is_permutation(self):
        dag = mixed_dag()
        assert sorted(hybrid_order(dag)) == sorted(dag.component_names)

    def test_pure_chain_matches_longest_path(self):
        dag = chain_dag()
        assert hybrid_order(dag) == longest_path_order(dag)

    def test_pure_star_matches_bfs(self):
        dag = star_dag()
        assert hybrid_order(dag) == breadth_first_order(dag)

    def test_mixed_dag_handles_both_regions(self):
        order = hybrid_order(mixed_dag())
        # Whole-graph fanout (4 at the hub) >= threshold, so the region
        # is BFS-ordered from the start: heavy chain first, then fans.
        assert order[0] == "src"
        assert sorted(order[-4:]) == ["f1", "f2", "f3", "f4"]

    def test_threshold_flips_regime(self):
        dag = star_dag()
        wide = hybrid_order(dag, fanout_threshold=2)
        narrow = hybrid_order(dag, fanout_threshold=100)
        assert wide == breadth_first_order(dag)
        assert narrow == longest_path_order(dag)

    def test_empty_dag(self):
        assert hybrid_order(ComponentDAG("x")) == []

    def test_bad_threshold_raises(self):
        with pytest.raises(DagError):
            hybrid_order(chain_dag(), fanout_threshold=0)

    def test_dispatch(self):
        dag = mixed_dag()
        assert order_components(dag, "hybrid") == hybrid_order(dag)

    def test_scheduler_accepts_hybrid(self):
        from repro.cluster.resources import NodeResources, ResourceSpec

        cluster = ClusterState(
            [NodeResources("n1", ResourceSpec(16, 1e6))]
        )
        scheduler = BassScheduler("hybrid")
        assignments = scheduler.schedule(mixed_dag(), cluster)
        assert len(assignments) == 8


class TestStatefulMigration:
    def test_component_state_size(self):
        component = Component("db", state_mb=100.0)
        assert component.state_mb == 100.0
        with pytest.raises(DagError):
            Component("db", state_mb=-1.0)

    def test_restart_override(self):
        from repro.cluster.pod import PodSpec
        from repro.cluster.resources import (
            NodeResources,
            ResourceSpec,
        )

        cluster = ClusterState(
            NodeResources(f"node{i}", ResourceSpec(4, 1024))
            for i in (1, 2)
        )
        orch = Orchestrator(cluster, restart_seconds=10.0)
        pod = PodSpec("db", "app", resources=ResourceSpec(1, 128))
        cluster.node("node1").allocate(pod.resources)
        deployment = orch.deploy([pod], {"db": "node1"})
        orch.migrate("app", "db", "node2", restart_override_s=42.0)
        assert deployment.unavailable_until("db") == 42.0

    def test_stateful_component_pays_transfer_time(self):
        """End-to-end: a stateful component's migration window includes
        the checkpoint's transfer time over the mesh."""
        from repro.core.binding import DeploymentBinding
        from repro.core.controller import BandwidthController
        from repro.core.controlplane import ControlPlane
        from repro.mesh.node import MeshNode
        from repro.mesh.topology import MeshTopology
        from repro.net.netem import NetworkEmulator

        topo = MeshTopology()
        topo.add_node(MeshNode("node1", cpu_cores=8))
        topo.add_node(MeshNode("node2", cpu_cores=1, memory_mb=512))
        topo.add_node(MeshNode("node3", cpu_cores=8))
        for a, b in (("node1", "node2"), ("node2", "node3"),
                     ("node1", "node3")):
            topo.add_link(a, b, capacity_mbps=25.0)
        netem = NetworkEmulator(topo)
        cluster = ClusterState.from_topology(topo)
        orch = Orchestrator(cluster, engine=netem.engine, restart_seconds=5.0)

        dag = ComponentDAG("pair")
        dag.add_component(
            Component("producer", cpu=1, memory_mb=256, pinned_node="node2")
        )
        dag.add_component(
            Component("consumer", cpu=1, memory_mb=256, state_mb=50.0)
        )
        dag.add_dependency("producer", "consumer", 8.0)
        pods = dag.to_pods()
        cluster.node("node2").allocate(pods[0].resources)
        cluster.node("node3").allocate(pods[1].resources)
        assignments = {"producer": "node2", "consumer": "node3"}
        deployment = orch.deploy(pods, assignments)
        binding = DeploymentBinding(dag, deployment, netem)
        binding.sync_flows()
        plane = ControlPlane(netem, orch)
        monitor = plane.monitor_for(None, assignments=assignments)
        monitor.probe_all_links()
        netem.engine.run_until(2.0)
        netem.recompute()
        controller = BandwidthController(
            "pair",
            orch,
            binding,
            monitor,
            BassConfig().with_migration(cooldown_s=0.0),
        )
        plane.register(controller)
        topo.link("node2", "node3").set_rate_limit(3.0)
        (iteration,) = plane.run_epoch()
        assert iteration.migrated == ["consumer"]
        window = deployment.unavailable_until("consumer") - netem.now
        # 5 s base restart + 50 MB x 8 / available Mbps of transfer.
        assert window > 5.0 + 5.0
