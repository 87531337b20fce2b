"""Unit tests for the BASS scheduler facade."""

import pytest

from repro.cluster.orchestrator import ClusterState
from repro.cluster.resources import NodeResources, ResourceSpec
from repro.core.dag import Component, ComponentDAG
from repro.core.scheduler import BassScheduler
from repro.errors import DagError
from repro.mesh.topology import citylab_subset
from repro.net.netem import NetworkEmulator


def chatty_dag():
    dag = ComponentDAG("app")
    for name in ("a", "b", "c"):
        dag.add_component(Component(name, cpu=1, memory_mb=64))
    dag.add_dependency("a", "b", 10.0)
    dag.add_dependency("b", "c", 1.0)
    return dag


def cluster_of(*sizes):
    return ClusterState(
        NodeResources(f"node{i + 1}", ResourceSpec(cpu, 10_000))
        for i, cpu in enumerate(sizes)
    )


class TestBassScheduler:
    def test_invalid_heuristic_raises(self):
        with pytest.raises(DagError):
            BassScheduler("alphabetical")

    def test_name(self):
        assert BassScheduler("bfs").name == "bass-bfs"
        assert BassScheduler("longest_path").name == "bass-longest-path"

    def test_schedules_whole_application(self):
        scheduler = BassScheduler("bfs")
        assignments = scheduler.schedule(chatty_dag(), cluster_of(8, 8))
        assert set(assignments) == {"a", "b", "c"}

    def test_colocates_chatty_pair(self):
        scheduler = BassScheduler("longest_path")
        assignments = scheduler.schedule(chatty_dag(), cluster_of(8, 8))
        assert assignments["a"] == assignments["b"]

    def test_records_dag_processing_time(self):
        scheduler = BassScheduler("bfs")
        assert scheduler.last_dag_processing_s is None
        scheduler.order(chatty_dag())
        assert scheduler.last_dag_processing_s is not None
        assert scheduler.last_dag_processing_s >= 0.0

    def test_schedule_with_netem_prefers_good_links(self):
        topo = citylab_subset()
        cluster = ClusterState.from_topology(topo)
        netem = NetworkEmulator(topo)
        assignments = BassScheduler("bfs").schedule(
            chatty_dag(), cluster, netem
        )
        # node1 has the fattest links and fits everything.
        assert set(assignments.values()) == {"node1"}
