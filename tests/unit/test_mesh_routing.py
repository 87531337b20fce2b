"""Unit tests for mesh routing."""

import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.errors import RoutingError, TopologyError
from repro.mesh.node import MeshNode
from repro.mesh.routing import Router
from repro.mesh.topology import MeshTopology, citylab_subset, line_topology


def diamond() -> MeshTopology:
    """a - b - d and a - c - d, with b-path links fatter."""
    topo = MeshTopology()
    for name in "abcd":
        topo.add_node(MeshNode(name))
    topo.add_link("a", "b", capacity_mbps=10.0)
    topo.add_link("b", "d", capacity_mbps=8.0)
    topo.add_link("a", "c", capacity_mbps=3.0)
    topo.add_link("c", "d", capacity_mbps=3.0)
    return topo


class TestTraceroute:
    def test_direct_route(self):
        router = Router(line_topology([10.0]))
        assert router.traceroute("node1", "node2") == ("node1", "node2")

    def test_multi_hop_route(self):
        router = Router(line_topology([10.0, 10.0]))
        assert router.traceroute("node1", "node3") == (
            "node1",
            "node2",
            "node3",
        )

    def test_same_node(self):
        router = Router(line_topology([10.0]))
        assert router.traceroute("node1", "node1") == ("node1",)

    def test_lexicographic_tie_break(self):
        router = Router(diamond())
        # Both a-b-d and a-c-d are two hops; 'b' wins deterministically.
        assert router.traceroute("a", "d") == ("a", "b", "d")

    def test_unknown_node_raises(self):
        router = Router(line_topology([10.0]))
        with pytest.raises(TopologyError):
            router.traceroute("node1", "ghost")

    def test_partition_raises(self):
        topo = line_topology([10.0])
        topo.add_node(MeshNode("island"))
        router = Router(topo)
        with pytest.raises(RoutingError):
            router.traceroute("node1", "island")

    def test_cache_invalidates_on_topology_change(self):
        topo = diamond()
        router = Router(topo)
        assert router.traceroute("a", "d") == ("a", "b", "d")
        # Adding a link bumps the topology version; the router notices
        # and reconverges (as a real mesh protocol would) on next query.
        topo.add_link("a", "d", capacity_mbps=1.0)
        assert router.traceroute("a", "d") == ("a", "d")

    def test_explicit_invalidate_still_works(self):
        topo = diamond()
        router = Router(topo)
        assert router.traceroute("a", "d") == ("a", "b", "d")
        router.invalidate()
        assert router.traceroute("a", "d") == ("a", "b", "d")


class TestPathQueries:
    def test_hop_count(self):
        router = Router(line_topology([10.0, 10.0]))
        assert router.hop_count("node1", "node3") == 2
        assert router.hop_count("node1", "node1") == 0

    def test_bottleneck_bandwidth_is_min_along_path(self):
        router = Router(line_topology([10.0, 4.0]))
        assert router.bottleneck_bandwidth("node1", "node3", 0.0) == 4.0

    def test_bottleneck_same_node_is_infinite(self):
        router = Router(line_topology([10.0]))
        assert router.bottleneck_bandwidth("node1", "node1", 0.0) == float(
            "inf"
        )

    def test_bottleneck_respects_direction_of_shaping(self):
        topo = line_topology([10.0])
        topo.link("node1", "node2").set_rate_limit(2.0, src="node1", dst="node2")
        router = Router(topo)
        assert router.bottleneck_bandwidth("node1", "node2", 0.0) == 2.0
        assert router.bottleneck_bandwidth("node2", "node1", 0.0) == 10.0

    def test_path_links_in_order(self):
        router = Router(line_topology([10.0, 4.0]))
        links = router.path_links("node1", "node3")
        assert [link.id for link in links] == [
            ("node1", "node2"),
            ("node2", "node3"),
        ]

    def test_path_latency_sums_hops(self):
        topo = line_topology([10.0, 10.0])
        router = Router(topo)
        per_hop = topo.link("node1", "node2").latency_ms
        assert router.path_latency_ms("node1", "node3") == pytest.approx(
            2 * per_hop
        )

    def test_citylab_routes_avoid_control_node(self):
        router = Router(citylab_subset())
        for src in ("node2", "node3", "node4"):
            path = router.traceroute(src, "node1")
            assert "node0" not in path


class TestPathCaching:
    def test_traceroute_returns_shared_immutable_tuple(self):
        router = Router(line_topology([10.0, 10.0]))
        first = router.traceroute("node1", "node3")
        second = router.traceroute("node1", "node3")
        assert isinstance(first, tuple)
        assert first is second  # cached object, no per-call copy

    def test_self_route_is_cached_tuple(self):
        router = Router(line_topology([10.0]))
        assert router.traceroute("node1", "node1") is router.traceroute(
            "node1", "node1"
        )

    def test_path_link_keys_match_traceroute(self):
        router = Router(line_topology([10.0, 10.0]))
        links = router.path_link_keys("node1", "node3")
        assert links == (("node1", "node2"), ("node2", "node3"))
        assert router.path_link_keys("node1", "node3") is links
        assert router.path_link_keys("node1", "node1") == ()

    def test_caches_drop_on_topology_version_bump(self):
        topo = diamond()
        topo.add_node(MeshNode("e"))
        topo.add_link("c", "e", capacity_mbps=3.0)
        router = Router(topo)
        assert router.traceroute("a", "e") == ("a", "c", "e")
        assert router.path_link_keys("a", "e") == (("a", "c"), ("c", "e"))
        topo.add_link("a", "e", capacity_mbps=3.0)
        assert router.traceroute("a", "e") == ("a", "e")
        assert router.path_link_keys("a", "e") == (("a", "e"),)

    def test_invalidate_clears_link_cache_too(self):
        router = Router(line_topology([10.0]))
        router.path_link_keys("node1", "node2")
        router.invalidate()
        assert router._path_cache == {}
        assert router._link_cache == {}


def random_mesh(rng, n_nodes: int) -> MeshTopology:
    """A sparse random mesh with a few distinct link widths (so the
    widest strategy has ties to break), then node crashes and link
    failures — often enough to partition it."""
    topo = MeshTopology()
    names = [f"n{i:02d}" for i in range(n_nodes)]
    for name in rng.permutation(names):
        topo.add_node(MeshNode(str(name)))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 2.5 / n_nodes:
                topo.add_link(
                    a, b, capacity_mbps=float(rng.choice([5.0, 10.0, 20.0]))
                )
    for name in names:
        if rng.random() < 0.1:
            topo.set_node_up(name, False)
    for link in topo.links:
        if rng.random() < 0.1:
            topo.set_link_up(*link.id, False)
    return topo


def oracle_path(topo: MeshTopology, strategy: str, src: str, dst: str):
    """The router's contract, spelled with networkx: ``None`` when the
    live mesh does not join the endpoints."""
    graph = topo.graph()
    if src not in graph or dst not in graph or not nx.has_path(graph, src, dst):
        return None
    if strategy == "min_hop":
        return tuple(min(nx.all_shortest_paths(graph, src, dst)))
    return tuple(
        min(
            nx.all_simple_paths(graph, src, dst),
            key=lambda path: (
                -min(
                    topo.link(a, b).base_capacity(a, b)
                    for a, b in zip(path, path[1:])
                ),
                len(path),
                path,
            ),
        )
    )


class TestAgainstNetworkxOracle:
    @pytest.mark.parametrize("strategy", Router.STRATEGIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_every_pair_on_random_failed_meshes(self, strategy, seed):
        rng = np.random.default_rng(seed)
        # Simple-path enumeration (the widest oracle) is exponential.
        topo = random_mesh(rng, 24 if strategy == "min_hop" else 9)
        router = Router(topo, strategy=strategy)
        unreachable = 0
        for src in topo.node_names:
            for dst in topo.node_names:
                if src == dst:
                    continue
                want = oracle_path(topo, strategy, src, dst)
                if want is None:
                    unreachable += 1
                    with pytest.raises(RoutingError):
                        router.traceroute(src, dst)
                else:
                    assert router.traceroute(src, dst) == want
        assert unreachable  # crashes/partitions were exercised
        assert topo.is_connected() == (
            len(topo.graph()) == 0 or nx.is_connected(topo.graph())
        )

    def test_recovery_reroutes_through_the_restored_link(self):
        topo = diamond()
        router = Router(topo)
        topo.set_link_up("a", "b", False)
        assert router.traceroute("a", "d") == ("a", "c", "d")
        topo.set_link_up("a", "b", True)
        assert router.traceroute("a", "d") == ("a", "b", "d")

    def test_router_pickles_without_its_search_structure(self):
        import pickle

        router = Router(citylab_subset())
        router.traceroute("node2", "node4")
        assert router._mesh is not None
        restored = pickle.loads(pickle.dumps(router))
        assert restored._mesh is None
        assert restored.traceroute("node2", "node4") == router.traceroute(
            "node2", "node4"
        )
        assert restored.traceroute("node4", "node2") == router.traceroute(
            "node4", "node2"
        )


def test_emulator_and_harness_never_import_networkx():
    """networkx stays off the import and routing path: it is loaded
    only by ``MeshTopology.graph()``, which nothing in ``repro`` calls."""
    code = (
        "import sys\n"
        "import repro.net.netem, repro.experiments.common\n"
        "from repro.mesh.topology import citylab_subset\n"
        "emu = repro.net.netem.NetworkEmulator(citylab_subset())\n"
        "emu.add_flow('f', 'node2', 'node4', 5.0)\n"
        "emu.tick()\n"
        "assert emu.topology.is_connected()\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
        "emu.topology.graph()\n"
        "assert 'networkx' in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
