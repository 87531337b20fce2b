"""Unit tests for the k3s baseline scheduler and the orchestrator."""

import pytest

from repro.cluster.k3s import K3sScheduler
from repro.cluster.orchestrator import ClusterState, Orchestrator
from repro.cluster.pod import PodSpec
from repro.cluster.resources import NodeResources, ResourceSpec
from repro.errors import (
    InsufficientCapacityError,
    MigrationError,
    SchedulingError,
)
from repro.mesh.topology import citylab_subset
from repro.sim.engine import Engine


def cluster_of(*sizes):
    return ClusterState(
        NodeResources(f"node{i + 1}", ResourceSpec(cpu, 10_000))
        for i, cpu in enumerate(sizes)
    )


def free_cpu(cluster):
    return sum(node.free.cpu for node in cluster.schedulable_nodes())


def pods(*cpus, app="app"):
    return [
        PodSpec(f"p{i}", app, resources=ResourceSpec(cpu, 100))
        for i, cpu in enumerate(cpus)
    ]


class TestK3sScheduler:
    def test_spreads_across_empty_nodes(self):
        cluster = cluster_of(8, 8, 8)
        assignments = K3sScheduler().schedule(pods(1, 1, 1), cluster)
        assert len(set(assignments.values())) == 3

    def test_least_allocated_prefers_emptiest(self):
        cluster = cluster_of(8, 8)
        cluster.node("node1").allocate(ResourceSpec(4, 0))
        assignments = K3sScheduler().schedule(pods(1), cluster)
        assert assignments["p0"] == "node2"

    def test_filters_nodes_without_capacity(self):
        cluster = cluster_of(2, 8)
        assignments = K3sScheduler().schedule(pods(4), cluster)
        assert assignments["p0"] == "node2"

    def test_infeasible_raises(self):
        cluster = cluster_of(2, 2)
        with pytest.raises(InsufficientCapacityError):
            K3sScheduler().schedule(pods(4), cluster)

    def test_commits_resources_between_pods(self):
        cluster = cluster_of(4, 4)
        # The first two pods commit 3 cores on each node, so a third
        # 3-core pod has nowhere to go — proof that allocations stick.
        with pytest.raises(InsufficientCapacityError):
            K3sScheduler().schedule(pods(3, 3, 3), cluster)

    def test_pinned_pod_goes_to_pin(self):
        cluster = cluster_of(8, 8)
        pod = PodSpec(
            "p", "app", resources=ResourceSpec(1, 100), pinned_node="node2"
        )
        assignments = K3sScheduler().schedule([pod], cluster)
        assert assignments["p"] == "node2"

    def test_pinned_pod_without_room_raises(self):
        cluster = cluster_of(0.5, 8)
        pod = PodSpec(
            "p", "app", resources=ResourceSpec(1, 100), pinned_node="node1"
        )
        with pytest.raises(InsufficientCapacityError):
            K3sScheduler().schedule([pod], cluster)

    def test_deterministic_tie_break(self):
        cluster = cluster_of(8, 8, 8)
        assignments = K3sScheduler().schedule(pods(1), cluster)
        assert assignments["p0"] == "node1"

    def test_bandwidth_annotations_ignored(self):
        # The defining deficiency: two chatty pods still get spread.
        cluster = cluster_of(8, 8)
        chatty = [
            PodSpec(
                "a",
                "app",
                resources=ResourceSpec(1, 100),
                bandwidth_mbps={"b": 100.0},
            ),
            PodSpec("b", "app", resources=ResourceSpec(1, 100)),
        ]
        assignments = K3sScheduler().schedule(chatty, cluster)
        assert assignments["a"] != assignments["b"]


class TestClusterState:
    def test_from_topology_excludes_control(self):
        cluster = ClusterState.from_topology(citylab_subset())
        assert "node0" not in cluster
        assert set(cluster.node_names) == {"node1", "node2", "node3", "node4"}

    def test_duplicate_node_raises(self):
        with pytest.raises(SchedulingError):
            ClusterState(
                [
                    NodeResources("n", ResourceSpec(1, 1)),
                    NodeResources("n", ResourceSpec(1, 1)),
                ]
            )

    def test_unknown_node_raises(self):
        with pytest.raises(SchedulingError):
            cluster_of(4).node("ghost")

    def test_total_free(self):
        cluster = cluster_of(4, 4)
        cluster.node("node1").allocate(ResourceSpec(1, 100))
        assert free_cpu(cluster) == 7


class TestOrchestrator:
    def _deployed(self):
        cluster = cluster_of(8, 8)
        engine = Engine()
        orch = Orchestrator(cluster, engine=engine, restart_seconds=10.0)
        pod_list = pods(2, 2)
        assignments = K3sScheduler().schedule(pod_list, cluster)
        deployment = orch.deploy(pod_list, assignments)
        return orch, deployment, engine

    def test_deploy_records_bindings(self):
        orch, deployment, _ = self._deployed()
        assert len(deployment) == 2
        assert deployment.is_available("p0", 0.0)

    def test_deploy_twice_raises(self):
        orch, _, _ = self._deployed()
        extra = pods(1)
        with pytest.raises(SchedulingError):
            orch.deploy(extra, {"p0": "node1"})

    def test_deploy_empty_raises(self):
        orch = Orchestrator(cluster_of(4))
        with pytest.raises(SchedulingError):
            orch.deploy([], {})

    def test_deploy_mixed_apps_raises(self):
        orch = Orchestrator(cluster_of(8))
        mixed = pods(1, app="a") + pods(1, app="b")
        with pytest.raises(SchedulingError):
            orch.deploy(mixed, {"p0": "node1"})

    def test_deploy_missing_assignment_raises(self):
        orch = Orchestrator(cluster_of(8))
        with pytest.raises(SchedulingError):
            orch.deploy(pods(1, 1), {"p0": "node1"})

    def test_migrate_moves_resources(self):
        orch, deployment, engine = self._deployed()
        source = deployment.node_of("p0")
        target = "node2" if source == "node1" else "node1"
        before_free = orch.cluster.node(target).free.cpu
        record = orch.migrate("app", "p0", target)
        assert deployment.node_of("p0") == target
        assert orch.cluster.node(target).free.cpu == before_free - 2
        assert record.to_node == target

    def test_migrate_applies_restart_window(self):
        orch, deployment, engine = self._deployed()
        engine.run_until(100.0)
        source = deployment.node_of("p0")
        target = "node2" if source == "node1" else "node1"
        orch.migrate("app", "p0", target)
        assert not deployment.is_available("p0", 105.0)
        assert deployment.is_available("p0", 110.0)

    def test_migrate_to_same_node_raises(self):
        orch, deployment, _ = self._deployed()
        with pytest.raises(MigrationError):
            orch.migrate("app", "p0", deployment.node_of("p0"))

    def test_migrate_to_full_node_raises(self):
        cluster = cluster_of(8, 1)
        orch = Orchestrator(cluster)
        pod_list = pods(2)
        assignments = {"p0": "node1"}
        cluster.node("node1").allocate(pod_list[0].resources)
        orch.deploy(pod_list, assignments)
        with pytest.raises(MigrationError):
            orch.migrate("app", "p0", "node2")

    def test_teardown_releases_resources(self):
        orch, _, _ = self._deployed()
        free_before = free_cpu(orch.cluster)
        orch.teardown("app")
        assert free_cpu(orch.cluster) == free_before + 4
        assert orch.apps == []

    def test_unknown_app_raises(self):
        orch, _, _ = self._deployed()
        with pytest.raises(SchedulingError):
            orch.deployment("ghost")
