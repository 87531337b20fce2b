"""Mesh topology: the graph of nodes and wireless links.

Includes builders for the topologies used throughout the paper:

* :func:`citylab_subset` — the 5-node subset of the CityLab testbed used
  for the emulated-mesh evaluation (§6.3, Fig 15a): one control-plane
  node plus four heterogeneous workers joined by wireless links.
* :func:`line_topology` / :func:`star_topology` — the small LAN setups
  of the motivation and microbenchmark experiments (Fig 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from ..errors import TopologyError
from .link import Link, LinkId, link_id
from .node import MeshNode
from .tracegen import citylab_link_trace

if TYPE_CHECKING:
    import networkx as nx


class MeshTopology:
    """A set of mesh nodes and the wireless links joining them.

    The topology is the single source of truth for instantaneous link
    capacity; the network emulator, router, and net-monitor all query it.

    Example:
        >>> topo = MeshTopology()
        >>> topo.add_node(MeshNode("a"))
        >>> topo.add_node(MeshNode("b"))
        >>> _ = topo.add_link("a", "b", capacity_mbps=10.0)
        >>> topo.capacity("a", "b", t=0.0)
        10.0
    """

    def __init__(self) -> None:
        self._nodes: dict[str, MeshNode] = {}
        self._links: dict[LinkId, Link] = {}
        self._adjacency: dict[str, set[str]] = {}
        #: Nodes currently crashed (fault injection); empty in a healthy
        #: mesh, so the fault machinery costs nothing when unused.
        self._down_nodes: set[str] = set()
        #: Per-link reasons the link is down: the sentinel ``"link"`` for
        #: an explicit link failure, plus ``"node:<name>"`` per crashed
        #: endpoint.  A link is up iff its reason set is empty, so a
        #: rebooting node does not resurrect a link whose other endpoint
        #: is still dead (or whose radio failed independently).
        self._link_down_reasons: dict[LinkId, set[str]] = {}
        #: Monotonic change counter, bumped on every structural change
        #: (node/link added, element failed or restored).  The router
        #: watches it to drop stale cached paths automatically.
        self.version: int = 0

    # -- nodes ----------------------------------------------------------

    def add_node(self, node: MeshNode) -> None:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency[node.name] = set()
        self.version += 1

    def node(self, name: str) -> MeshNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> list[MeshNode]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def worker_names(self) -> list[str]:
        return [n.name for n in self._nodes.values() if n.schedulable]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # -- links ----------------------------------------------------------

    def add_link(
        self,
        a: str,
        b: str,
        capacity_mbps: float,
        *,
        latency_ms: float = 2.0,
    ) -> Link:
        for name in (a, b):
            if name not in self._nodes:
                raise TopologyError(f"unknown node {name!r} in link {a}-{b}")
        lid = link_id(a, b)
        if lid in self._links:
            raise TopologyError(f"duplicate link {lid}")
        link = Link(a, b, capacity_mbps, latency_ms=latency_ms)
        self._links[lid] = link
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self.version += 1
        # A link added while an endpoint is down joins the mesh down.
        for name in (a, b):
            if name in self._down_nodes:
                self._add_link_down_reason(lid, f"node:{name}")
        return link

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[link_id(a, b)]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        return link_id(a, b) in self._links

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    def neighbors(self, name: str) -> set[str]:
        try:
            return set(self._adjacency[name])
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def capacity(self, src: str, dst: str, t: float) -> float:
        """Instantaneous capacity of the direct link ``src -> dst``."""
        return self.link(src, dst).capacity(src, dst, t)

    def iter_directed_links(self) -> Iterator[tuple[str, str, Link]]:
        """Yield (src, dst, link) for both directions of every link."""
        for link in self._links.values():
            a, b = link.id
            yield a, b, link
            yield b, a, link

    # -- failure state (fault injection) ---------------------------------

    def _add_link_down_reason(self, lid: LinkId, reason: str) -> None:
        reasons = self._link_down_reasons.setdefault(lid, set())
        reasons.add(reason)
        self._links[lid].up = False

    def _remove_link_down_reason(self, lid: LinkId, reason: str) -> None:
        reasons = self._link_down_reasons.get(lid)
        if reasons is None:
            return
        reasons.discard(reason)
        if not reasons:
            del self._link_down_reasons[lid]
            self._links[lid].up = True

    def set_node_up(self, name: str, up: bool) -> None:
        """Crash (``up=False``) or reboot (``up=True``) a node.

        Crashing a node takes every adjacent link down with it; a reboot
        restores only links with no *other* reason to be down (an
        explicitly failed radio, or a still-dead far endpoint, keeps the
        link dark).  Idempotent in both directions.
        """
        node = self.node(name)
        reason = f"node:{node.name}"
        if up and name in self._down_nodes:
            self._down_nodes.discard(name)
            for peer in self._adjacency[name]:
                self._remove_link_down_reason(link_id(name, peer), reason)
            self.version += 1
        elif not up and name not in self._down_nodes:
            self._down_nodes.add(name)
            for peer in self._adjacency[name]:
                self._add_link_down_reason(link_id(name, peer), reason)
            self.version += 1

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Fail (``up=False``) or restore (``up=True``) a single link.

        Restoring clears only the explicit link failure; a link whose
        endpoint node is down stays down until the node reboots.
        """
        self.link(a, b)  # validates the link exists
        lid = link_id(a, b)
        if up:
            if "link" in self._link_down_reasons.get(lid, ()):
                self._remove_link_down_reason(lid, "link")
                self.version += 1
        else:
            if "link" not in self._link_down_reasons.get(lid, ()):
                self._add_link_down_reason(lid, "link")
                self.version += 1

    def is_node_up(self, name: str) -> bool:
        self.node(name)  # validates
        return name not in self._down_nodes

    def is_link_up(self, a: str, b: str) -> bool:
        return self.link(a, b).up

    @property
    def down_nodes(self) -> set[str]:
        """Names of currently crashed nodes."""
        return set(self._down_nodes)

    @property
    def up_worker_names(self) -> list[str]:
        """Schedulable nodes that are currently alive."""
        return [
            n.name
            for n in self._nodes.values()
            if n.schedulable and n.name not in self._down_nodes
        ]

    # -- derived views ---------------------------------------------------

    def live_adjacency(self) -> dict[str, list[str]]:
        """Live node -> live neighbours over up links.  Down nodes and
        down links are excluded, so routing never traverses a failed
        element (a crashed node's links are all down with it)."""
        adjacency: dict[str, list[str]] = {
            name: [] for name in self._nodes if name not in self._down_nodes
        }
        for (a, b), link in self._links.items():
            if link.up:
                adjacency[a].append(b)
                adjacency[b].append(a)
        return adjacency

    def graph(self) -> nx.Graph:
        """An undirected networkx view of the *live* mesh (hop-count
        weights), for analysis and plotting.  networkx is an optional
        dependency (the ``dev`` extra), imported lazily here and only
        here: routing runs on :meth:`live_adjacency`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(
            name for name in self._nodes if name not in self._down_nodes
        )
        graph.add_edges_from(
            lid for lid, link in self._links.items() if link.up
        )
        return graph

    def is_connected(self) -> bool:
        """BASS assumes no partitions (§3.1) — check the assumption.

        Under fault injection this checks the *live* subgraph: down
        nodes are excluded, and a mesh whose surviving nodes all reach
        each other still counts as connected.
        """
        adjacency = self.live_adjacency()
        if not adjacency:
            return True
        start = next(iter(adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for peer in adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == len(adjacency)

    def total_link_capacity(self, name: str, t: float) -> float:
        """Sum of outgoing capacity across all of a node's links.

        §3.2.1 ranks nodes partly by "combined capacity across all of the
        node's links".
        """
        return sum(
            self.link(name, peer).capacity(name, peer, t)
            for peer in self._adjacency.get(name, ())
        )


    # -- serialization ---------------------------------------------------

    def to_spec(self) -> dict:
        """A JSON-serializable description of nodes and links.

        Traces and rate limits are runtime state and are not included.
        """
        return {
            "nodes": [
                {
                    "name": node.name,
                    "cpu_cores": node.cpu_cores,
                    "memory_mb": node.memory_mb,
                    "role": node.role,
                }
                for node in self.nodes
            ],
            "links": [
                {
                    "a": link.id[0],
                    "b": link.id[1],
                    "capacity_mbps": link.base_capacity(*link.id),
                    "latency_ms": link.latency_ms,
                }
                for link in self.links
            ],
        }

    @staticmethod
    def from_spec(spec: dict) -> "MeshTopology":
        """Build a topology from a :meth:`to_spec`-shaped dict.

        Lets deployments describe their community mesh in a plain JSON
        file::

            {"nodes": [{"name": "roof-1", "cpu_cores": 4}, ...],
             "links": [{"a": "roof-1", "b": "roof-2",
                        "capacity_mbps": 18.5}, ...]}
        """
        try:
            node_specs = spec["nodes"]
            link_specs = spec.get("links", [])
        except (TypeError, KeyError):
            raise TopologyError("spec must be a dict with a 'nodes' list") from None
        topo = MeshTopology()
        for node_spec in node_specs:
            try:
                topo.add_node(
                    MeshNode(
                        name=node_spec["name"],
                        cpu_cores=node_spec.get("cpu_cores", 4.0),
                        memory_mb=node_spec.get("memory_mb", 8192.0),
                        role=node_spec.get("role", "worker"),
                    )
                )
            except (TypeError, KeyError):
                raise TopologyError(
                    f"malformed node spec {node_spec!r}"
                ) from None
        for link_spec in link_specs:
            try:
                topo.add_link(
                    link_spec["a"],
                    link_spec["b"],
                    capacity_mbps=link_spec["capacity_mbps"],
                    latency_ms=link_spec.get("latency_ms", 2.0),
                )
            except (TypeError, KeyError):
                raise TopologyError(
                    f"malformed link spec {link_spec!r}"
                ) from None
        return topo

    @staticmethod
    def from_json(path) -> "MeshTopology":
        """Load a topology from a JSON file of :meth:`to_spec` shape."""
        import json

        with open(path) as handle:
            return MeshTopology.from_spec(json.load(handle))


# -- topology builders -----------------------------------------------------

#: Mean link capacities (Mbps) of the 5-node CityLab subset (Fig 15a).
#: The figure's printed values are not machine-readable in the paper PDF,
#: so these are plausible values consistent with the text: node3-node4 is
#: the 25 Mbps link exercised in Fig 8; node1 is well connected (clients
#: there see the best bitrates in Fig 15b); node2 sits behind the weakest
#: links (240 Kbps bitrates without migration).  Documented in DESIGN.md.
CITYLAB_LINK_MEANS: dict[tuple[str, str], float] = {
    ("node1", "node2"): 19.9,
    ("node1", "node3"): 15.0,
    ("node1", "node4"): 12.0,
    ("node2", "node3"): 7.62,
    ("node3", "node4"): 25.0,
}

#: Variability class of each CityLab link (drives trace generation).
CITYLAB_LINK_VARIABILITY: dict[tuple[str, str], str] = {
    ("node1", "node2"): "low",
    ("node1", "node3"): "moderate",
    ("node1", "node4"): "moderate",
    ("node2", "node3"): "high",
    ("node3", "node4"): "moderate",
}


def citylab_subset(
    *,
    with_traces: bool = False,
    trace_duration_s: float = 1200.0,
    rng: Optional[np.random.Generator] = None,
    control_node: bool = True,
) -> MeshTopology:
    """The 5-node CityLab subset of §6.3 (Fig 15a).

    Four heterogeneous workers (8 GB RAM; nodes 1–3 have 12 cores,
    node 4 has 8, per §6.3) plus an optional control-plane node attached
    to node1 over a fast link.

    Args:
        with_traces: attach CityLab-style synthetic traces to every link
            (otherwise links hold their static mean capacity).
        trace_duration_s: length of the generated traces.
        rng: random generator for trace synthesis.
        control_node: include ``node0`` running the control plane.
    """
    topo = MeshTopology()
    core_counts = {"node1": 12, "node2": 12, "node3": 12, "node4": 8}
    for name, cores in core_counts.items():
        topo.add_node(MeshNode(name, cpu_cores=cores, memory_mb=8192))
    if control_node:
        topo.add_node(MeshNode("node0", cpu_cores=4, memory_mb=8192, role="control"))
        topo.add_link("node0", "node1", capacity_mbps=100.0, latency_ms=1.0)
    rng = rng if rng is not None else np.random.default_rng(42)
    for (a, b), mean in CITYLAB_LINK_MEANS.items():
        link = topo.add_link(a, b, capacity_mbps=mean, latency_ms=2.0)
        if with_traces:
            variability = CITYLAB_LINK_VARIABILITY[(a, b)]
            trace = citylab_link_trace(
                mean, trace_duration_s, variability=variability, rng=rng
            )
            link.set_trace(trace)
    return topo


def line_topology(
    capacities_mbps: Iterable[float] = (1000.0, 1000.0),
    *,
    cpu_cores: float = 16.0,
    memory_mb: float = 131072.0,
) -> MeshTopology:
    """A chain node1 - node2 - ... used in the motivation setup (Fig 3).

    The default mirrors the 3-node bridged-LAN cluster: 1 Gbps links that
    the experiment later throttles with ``tc``.
    """
    capacities = list(capacities_mbps)
    topo = MeshTopology()
    for i in range(len(capacities) + 1):
        topo.add_node(
            MeshNode(f"node{i + 1}", cpu_cores=cpu_cores, memory_mb=memory_mb)
        )
    for i, capacity in enumerate(capacities):
        topo.add_link(f"node{i + 1}", f"node{i + 2}", capacity_mbps=capacity)
    return topo


def full_mesh_topology(
    n_nodes: int,
    capacity_mbps: float = 1000.0,
    *,
    cpu_cores: float = 16.0,
    memory_mb: float = 131072.0,
) -> MeshTopology:
    """A complete graph — models the microbenchmarks' bridged LAN, where
    every node can reach every other at full speed (§6.2.1)."""
    if n_nodes < 2:
        raise TopologyError("full mesh needs at least 2 nodes")
    topo = MeshTopology()
    for i in range(n_nodes):
        topo.add_node(
            MeshNode(f"node{i + 1}", cpu_cores=cpu_cores, memory_mb=memory_mb)
        )
    names = topo.node_names
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            topo.add_link(a, b, capacity_mbps=capacity_mbps, latency_ms=0.5)
    return topo


def regional_mesh(
    n_regions: int = 2,
    nodes_per_region: int = 3,
    *,
    intra_capacity_mbps: float = 40.0,
    backbone_capacity_mbps: float = 15.0,
    cpu_cores: float = 8.0,
    memory_mb: float = 8192.0,
) -> MeshTopology:
    """A community mesh of dense neighbourhoods joined by a thin backbone.

    Each region is a full mesh of ``nodes_per_region`` workers named
    ``r{i}n{j}`` (``j`` starting at 1) with fast intra-region links;
    region gateways (``r{i}n1``) form a backbone ring (a chain for two
    regions) of slower, higher-latency links.  This is the topology the
    many-region control plane is built for: probing floods stay cheap
    inside a region, and only handoffs cross the backbone.
    """
    if n_regions < 1:
        raise TopologyError("regional mesh needs at least 1 region")
    if nodes_per_region < 1:
        raise TopologyError("regional mesh needs at least 1 node per region")
    topo = MeshTopology()
    for i in range(n_regions):
        names = [f"r{i}n{j + 1}" for j in range(nodes_per_region)]
        for name in names:
            topo.add_node(
                MeshNode(name, cpu_cores=cpu_cores, memory_mb=memory_mb)
            )
        for a_index, a in enumerate(names):
            for b in names[a_index + 1 :]:
                topo.add_link(
                    a, b, capacity_mbps=intra_capacity_mbps, latency_ms=2.0
                )
    gateways = [f"r{i}n1" for i in range(n_regions)]
    for i in range(n_regions):
        a, b = gateways[i], gateways[(i + 1) % n_regions]
        if a == b or topo.has_link(a, b):
            continue
        topo.add_link(
            a, b, capacity_mbps=backbone_capacity_mbps, latency_ms=8.0
        )
    return topo


def regional_specs(
    n_regions: int, nodes_per_region: int
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Explicit region specs matching :func:`regional_mesh`'s naming —
    the shape ``FleetConfig.region_specs`` expects."""
    return tuple(
        (
            f"region{i}",
            tuple(f"r{i}n{j + 1}" for j in range(nodes_per_region)),
        )
        for i in range(n_regions)
    )


def star_topology(
    n_leaves: int,
    capacity_mbps: float = 100.0,
    *,
    hub: str = "hub",
    cpu_cores: float = 8.0,
    memory_mb: float = 8192.0,
) -> MeshTopology:
    """A hub-and-spoke mesh, a common shape for small community deployments."""
    if n_leaves < 1:
        raise TopologyError("star needs at least 1 leaf")
    topo = MeshTopology()
    topo.add_node(MeshNode(hub, cpu_cores=cpu_cores, memory_mb=memory_mb))
    for i in range(n_leaves):
        name = f"leaf{i + 1}"
        topo.add_node(MeshNode(name, cpu_cores=cpu_cores, memory_mb=memory_mb))
        topo.add_link(hub, name, capacity_mbps=capacity_mbps)
    return topo
