"""Unit tests for deployment state and pods."""

import pytest

from repro.cluster.deployment import Deployment
from repro.cluster.pod import PodSpec
from repro.errors import MigrationError, SchedulingError


class TestPodSpec:
    def test_total_bandwidth(self):
        pod = PodSpec("a", "app", bandwidth_mbps={"b": 2.0, "c": 3.0})
        assert pod.total_bandwidth_mbps() == 5.0

    def test_empty_name_raises(self):
        with pytest.raises(SchedulingError):
            PodSpec("", "app")

    def test_negative_bandwidth_raises(self):
        with pytest.raises(SchedulingError):
            PodSpec("a", "app", bandwidth_mbps={"b": -1.0})


class TestDeployment:
    def test_bind_and_lookup(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        assert dep.node_of("a") == "node1"
        assert dep.is_deployed("a")
        assert not dep.is_deployed("b")

    def test_double_bind_raises(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        with pytest.raises(SchedulingError):
            dep.bind("a", "node2")

    def test_unknown_pod_raises(self):
        with pytest.raises(SchedulingError):
            Deployment("app").node_of("ghost")

    def test_colocated(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        dep.bind("b", "node1")
        dep.bind("c", "node2")
        assert dep.colocated("a", "b")
        assert not dep.colocated("a", "c")

    def test_pods_on(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        dep.bind("b", "node2")
        dep.bind("c", "node1")
        assert sorted(dep.pods_on("node1")) == ["a", "c"]

    def test_rebind_records_migration(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        record = dep.rebind(
            "a", "node2", time=100.0, restart_seconds=20.0, reason="test"
        )
        assert record.from_node == "node1"
        assert record.to_node == "node2"
        assert dep.node_of("a") == "node2"
        assert len(dep.migrations) == 1

    def test_rebind_same_node_raises(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        with pytest.raises(MigrationError):
            dep.rebind("a", "node1", time=0.0, restart_seconds=1.0)

    def test_rebind_undeployed_raises(self):
        with pytest.raises(MigrationError):
            Deployment("app").rebind("a", "n", time=0.0, restart_seconds=1.0)

    def test_availability_window_after_migration(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        assert dep.is_available("a", 0.0)
        dep.rebind("a", "node2", time=100.0, restart_seconds=20.0)
        assert not dep.is_available("a", 110.0)
        assert dep.is_available("a", 120.0)
        assert dep.restarting(110.0) == {"a": 120.0}

    def test_undeployed_pod_never_available(self):
        assert not Deployment("app").is_available("ghost", 0.0)

    def test_unbind(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        assert dep.unbind("a") == "node1"
        assert not dep.is_deployed("a")
        with pytest.raises(SchedulingError):
            dep.unbind("a")

    def test_bindings_copy_is_isolated(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        bindings = dep.bindings
        bindings["a"] = "elsewhere"
        assert dep.node_of("a") == "node1"

    def test_nodes_used_and_len(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        dep.bind("b", "node1")
        assert set(dep.bindings.values()) == {"node1"}
        assert len(dep) == 2

    def test_revision_moves_with_every_placement_write_and_nothing_else(self):
        dep = Deployment("app")
        assert dep.revision == 0
        dep.bind("a", "node1")
        dep.bind("b", "node2", available_at=5.0)
        assert dep.revision == 2
        dep.rebind("a", "node2", time=10.0, restart_seconds=20.0)
        assert dep.revision == 3
        dep.unbind("b")
        assert dep.revision == 4
        # Refused writes and every read leave it alone.
        for refused in (
            lambda: dep.bind("a", "node3"),
            lambda: dep.rebind("a", "node2", time=0.0, restart_seconds=1.0),
            lambda: dep.rebind("ghost", "node2", time=0.0, restart_seconds=1.0),
            lambda: dep.unbind("ghost"),
        ):
            with pytest.raises((SchedulingError, MigrationError)):
                refused()
        dep.node_of("a"), dep.is_deployed("a"), dep.is_available("a", 15.0)
        dep.restarting(15.0), dep.colocated("a", "a")
        dep.pods_on("node2"), dep.bindings, len(dep)
        assert dep.revision == 4

    def test_restarting_is_the_set_is_available_denies(self):
        dep = Deployment("app")
        dep.bind("a", "node1")
        dep.bind("b", "node1", available_at=5.0)
        dep.bind("c", "node2")
        dep.rebind("c", "node3", time=10.0, restart_seconds=20.0)
        dep.bind("gone", "node2", available_at=50.0)
        dep.unbind("gone")
        serves_again = {"a": 0.0, "b": 5.0, "c": 30.0}
        for time in (0.0, 4.999, 5.0, 10.0, 29.999, 30.0, 49.0, 50.0, 1e9):
            denied = {
                pod: serves_again[pod]
                for pod in ("a", "b", "c", "gone")
                if dep.is_deployed(pod) and not dep.is_available(pod, time)
            }
            assert dep.restarting(time) == denied, time
        assert dep.restarting(12.0) == {"c": 30.0}
        assert dep.restarting(30.0) == {}
