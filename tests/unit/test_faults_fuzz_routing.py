"""Seeded fuzz: routing never uses down elements, and never lies.

Random subsets of nodes and links are failed (and partially restored)
across many seeded trials; after every mutation the invariants hold:

* every path the router returns traverses only up nodes and up links;
* every live flow in the emulator runs over such a path;
* a pair the live graph cannot connect raises ``RoutingError`` — it is
  reported unreachable, never silently routed through dead gear.
"""

import itertools

import networkx as nx
import pytest

from repro.errors import RoutingError
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

NODES = 6
SEEDS = range(12)


def assert_path_alive(topology, path):
    for name in path:
        assert topology.is_node_up(name), f"path {path} uses down node {name}"
    for a, b in zip(path, path[1:]):
        assert topology.link(a, b).up, f"path {path} uses down link {a}-{b}"


def live_graph(topology):
    graph = nx.Graph()
    graph.add_nodes_from(
        n.name for n in topology.nodes if topology.is_node_up(n.name)
    )
    graph.add_edges_from(
        link.id
        for link in topology.links
        if link.up
        and topology.is_node_up(link.id[0])
        and topology.is_node_up(link.id[1])
    )
    return graph


def check_all_pairs(netem):
    """The router's answer matches the live graph for every pair."""
    topology = netem.topology
    graph = live_graph(topology)
    for src, dst in itertools.permutations(topology.node_names, 2):
        reachable = (
            src in graph and dst in graph and nx.has_path(graph, src, dst)
        )
        if reachable:
            assert_path_alive(topology, netem.router.traceroute(src, dst))
        else:
            with pytest.raises(RoutingError):
                netem.router.traceroute(src, dst)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_failures_never_route_through_dead_gear(seed):
    gen = RngStreams(seed).get("fuzz")
    netem = NetworkEmulator(
        full_mesh_topology(NODES), engine=Engine(), tick_s=1.0
    )
    topology = netem.topology
    names = topology.node_names
    link_ids = sorted(link.id for link in topology.links)

    # Seed some flows between random pairs while everything is up.
    for i in range(4):
        src, dst = (names[j] for j in gen.choice(NODES, size=2, replace=False))
        netem.add_flow(f"flow{i}", src, dst, 1.0)

    for _step in range(8):
        roll = gen.uniform()
        if roll < 0.35:
            node = names[int(gen.integers(NODES))]
            topology.set_node_up(node, up=not topology.is_node_up(node))
        elif roll < 0.7:
            a, b = link_ids[int(gen.integers(len(link_ids)))]
            topology.set_link_up(a, b, up=not topology.link(a, b).up)
        else:  # restore everything, as a reboot wave would
            for node in names:
                topology.set_node_up(node, up=True)
            for a, b in link_ids:
                topology.set_link_up(a, b, up=True)
        netem.on_topology_change()

        # Surviving flows run over live paths; none route through the dead.
        for flow in netem.flows:
            assert topology.is_node_up(flow.src)
            assert topology.is_node_up(flow.dst)
            assert_path_alive(topology, flow.path)
        check_all_pairs(netem)


def test_full_restore_heals_every_pair():
    gen = RngStreams(99).get("fuzz")
    netem = NetworkEmulator(
        full_mesh_topology(NODES), engine=Engine(), tick_s=1.0
    )
    topology = netem.topology
    for node in topology.node_names:
        if gen.uniform() < 0.5:
            topology.set_node_up(node, up=False)
    netem.on_topology_change()
    for node in topology.node_names:
        topology.set_node_up(node, up=True)
    netem.on_topology_change()
    for src, dst in itertools.permutations(topology.node_names, 2):
        assert netem.router.traceroute(src, dst)
