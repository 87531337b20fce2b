"""Unit tests for mesh nodes, links, and topology."""

import pytest

from repro.errors import TopologyError
from repro.mesh.link import Link, link_id
from repro.mesh.node import MeshNode
from repro.mesh.topology import (
    CITYLAB_LINK_MEANS,
    MeshTopology,
    citylab_subset,
    full_mesh_topology,
    line_topology,
    star_topology,
)
from repro.mesh.traces import BandwidthTrace


class TestMeshNode:
    def test_defaults(self):
        node = MeshNode("n")
        assert node.schedulable
        assert node.cpu_cores > 0

    def test_control_role_not_schedulable(self):
        assert not MeshNode("c", role="control").schedulable

    def test_empty_name_raises(self):
        with pytest.raises(TopologyError):
            MeshNode("")

    def test_bad_role_raises(self):
        with pytest.raises(TopologyError):
            MeshNode("n", role="manager")

    def test_nonpositive_resources_raise(self):
        with pytest.raises(TopologyError):
            MeshNode("n", cpu_cores=0)
        with pytest.raises(TopologyError):
            MeshNode("n", memory_mb=-1)


class TestLink:
    def test_link_id_canonical(self):
        assert link_id("b", "a") == ("a", "b")
        assert link_id("a", "b") == ("a", "b")

    def test_self_link_raises(self):
        with pytest.raises(TopologyError):
            link_id("a", "a")

    def test_capacity_both_directions(self):
        link = Link("a", "b", capacity_mbps=10.0)
        assert link.capacity("a", "b", 0.0) == 10.0
        assert link.capacity("b", "a", 0.0) == 10.0

    def test_unknown_direction_raises(self):
        link = Link("a", "b", capacity_mbps=10.0)
        with pytest.raises(TopologyError):
            link.capacity("a", "c", 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_mbps": float("nan")},
            {"capacity_mbps": float("inf")},
            {"capacity_mbps": 10.0, "latency_ms": float("nan")},
            {"capacity_mbps": 10.0, "latency_ms": float("inf")},
        ],
        ids=["capacity-nan", "capacity-inf", "latency-nan", "latency-inf"],
    )
    def test_non_finite_parameters_raise(self, kwargs):
        """NaN passes ``<= 0`` / ``< 0``; an infinite latency reads as
        "no route" to the latency models."""
        with pytest.raises(TopologyError):
            Link("a", "b", **kwargs)
        topology = MeshTopology()
        topology.add_node(MeshNode("a"))
        topology.add_node(MeshNode("b"))
        with pytest.raises(TopologyError):
            topology.add_link("a", "b", **kwargs)
        assert not topology.has_link("a", "b")

    @pytest.mark.parametrize("limit", [float("nan"), float("inf")])
    def test_non_finite_rate_limit_raises(self, limit):
        link = Link("a", "b", capacity_mbps=10.0)
        link.set_rate_limit(4.0)
        with pytest.raises(TopologyError):
            link.set_rate_limit(limit)
        with pytest.raises(TopologyError):
            link.set_rate_limit(limit, src="a", dst="b")
        assert link.capacity("a", "b", 0.0) == 4.0

    def test_rate_limit_caps_capacity(self):
        link = Link("a", "b", capacity_mbps=10.0)
        link.set_rate_limit(4.0)
        assert link.capacity("a", "b", 0.0) == 4.0
        link.set_rate_limit(None)
        assert link.capacity("a", "b", 0.0) == 10.0

    def test_directional_rate_limit(self):
        link = Link("a", "b", capacity_mbps=10.0)
        link.set_rate_limit(4.0, src="a", dst="b")
        assert link.capacity("a", "b", 0.0) == 4.0
        assert link.capacity("b", "a", 0.0) == 10.0

    def test_trace_drives_capacity(self):
        link = Link("a", "b", capacity_mbps=10.0)
        link.set_trace(BandwidthTrace([0, 10], [5.0, 2.0]))
        assert link.capacity("a", "b", 0.0) == 5.0
        assert link.capacity("a", "b", 10.0) == 2.0

    def test_rate_limit_composes_with_trace(self):
        link = Link("a", "b", capacity_mbps=10.0)
        link.set_trace(BandwidthTrace.constant(8.0))
        link.set_rate_limit(3.0)
        assert link.capacity("a", "b", 0.0) == 3.0

    def test_other_end(self):
        link = Link("a", "b", capacity_mbps=1.0)
        assert link.other_end("a") == "b"
        assert link.other_end("b") == "a"
        with pytest.raises(TopologyError):
            link.other_end("c")

    def test_nonpositive_capacity_raises(self):
        with pytest.raises(TopologyError):
            Link("a", "b", capacity_mbps=0.0)

    def test_half_specified_direction_raises(self):
        link = Link("a", "b", capacity_mbps=1.0)
        with pytest.raises(TopologyError):
            link.set_rate_limit(1.0, src="a")


class TestMeshTopology:
    def _simple(self):
        topo = MeshTopology()
        topo.add_node(MeshNode("a"))
        topo.add_node(MeshNode("b"))
        topo.add_node(MeshNode("c"))
        topo.add_link("a", "b", capacity_mbps=10.0)
        topo.add_link("b", "c", capacity_mbps=5.0)
        return topo

    def test_duplicate_node_raises(self):
        topo = MeshTopology()
        topo.add_node(MeshNode("a"))
        with pytest.raises(TopologyError):
            topo.add_node(MeshNode("a"))

    def test_duplicate_link_raises(self):
        topo = self._simple()
        with pytest.raises(TopologyError):
            topo.add_link("b", "a", capacity_mbps=1.0)

    def test_link_to_unknown_node_raises(self):
        topo = self._simple()
        with pytest.raises(TopologyError):
            topo.add_link("a", "zzz", capacity_mbps=1.0)

    def test_neighbors(self):
        topo = self._simple()
        assert topo.neighbors("b") == {"a", "c"}
        assert topo.neighbors("a") == {"b"}

    def test_capacity_query(self):
        topo = self._simple()
        assert topo.capacity("a", "b", 0.0) == 10.0

    def test_total_link_capacity(self):
        topo = self._simple()
        assert topo.total_link_capacity("b", 0.0) == 15.0
        assert topo.total_link_capacity("a", 0.0) == 10.0

    def test_is_connected(self):
        topo = self._simple()
        assert topo.is_connected()
        topo.add_node(MeshNode("island"))
        assert not topo.is_connected()

    def test_iter_directed_links_covers_both_directions(self):
        topo = self._simple()
        directed = {(s, d) for s, d, _ in topo.iter_directed_links()}
        assert ("a", "b") in directed and ("b", "a") in directed
        assert len(directed) == 4

    def test_contains(self):
        topo = self._simple()
        assert "a" in topo
        assert "zzz" not in topo

    def test_worker_names_excludes_control(self):
        topo = MeshTopology()
        topo.add_node(MeshNode("w"))
        topo.add_node(MeshNode("c", role="control"))
        assert topo.worker_names == ["w"]


class TestBuilders:
    def test_citylab_subset_layout(self):
        """Fig 15a: four heterogeneous workers plus the control node on a
        connected mesh of links with equal capacity both ways."""
        topo = citylab_subset()
        assert set(topo.worker_names) == {"node1", "node2", "node3", "node4"}
        assert "node0" in topo
        assert not topo.node("node0").schedulable
        assert topo.is_connected()
        # §6.3: 12- and 8-core VMs.
        assert {topo.node(n).cpu_cores for n in topo.worker_names} == {12, 8}
        for (a, b), mean in CITYLAB_LINK_MEANS.items():
            assert topo.capacity(a, b, 0.0) == mean
            assert topo.capacity(b, a, 0.0) == mean
        # The Fig 8 link.
        assert topo.capacity("node3", "node4", 0.0) == 25.0

    def test_citylab_heterogeneous_cores(self):
        topo = citylab_subset()
        assert topo.node("node4").cpu_cores == 8
        assert topo.node("node1").cpu_cores == 12

    def test_citylab_with_traces_varies(self):
        topo = citylab_subset(with_traces=True, trace_duration_s=600)
        values = {topo.capacity("node2", "node3", float(t)) for t in range(0, 600, 30)}
        assert len(values) > 1

    def test_citylab_without_control(self):
        topo = citylab_subset(control_node=False)
        assert "node0" not in topo

    def test_citylab_is_connected(self):
        assert citylab_subset().is_connected()

    def test_line_topology(self):
        topo = line_topology([100.0, 50.0])
        assert len(topo.nodes) == 3
        assert topo.capacity("node1", "node2", 0.0) == 100.0
        assert topo.capacity("node2", "node3", 0.0) == 50.0
        assert not topo.has_link("node1", "node3")

    def test_full_mesh(self):
        topo = full_mesh_topology(4, capacity_mbps=10.0)
        assert len(topo.links) == 6
        assert topo.is_connected()

    def test_full_mesh_too_small_raises(self):
        with pytest.raises(TopologyError):
            full_mesh_topology(1)

    def test_star_topology(self):
        topo = star_topology(3)
        assert topo.neighbors("hub") == {"leaf1", "leaf2", "leaf3"}

    def test_star_needs_leaves(self):
        with pytest.raises(TopologyError):
            star_topology(0)
