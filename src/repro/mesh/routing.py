"""Decentralized routing over the mesh.

BASS deliberately does not control routing (§1): ad-hoc mesh protocols
route packets however they like, and BASS only requires that the network
stay connected.  We model the common case — shortest-path (minimum hop)
routing, as established protocols like OLSR/Babel converge to — and
expose the two primitives the paper's net-monitor uses:

* ``traceroute(src, dst)`` — the node path a packet takes (§4.2 uses the
  real traceroute for this);
* ``bottleneck_bandwidth(src, dst, t)`` — "the capacity of the node pair
  [is] the bottleneck link along the path" (§4.2).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..errors import RoutingError, TopologyError
from ..sim.derived import Derived, forget
from .link import Link
from .topology import MeshTopology


class _LiveMesh:
    """Integer-indexed search structure over the live mesh.

    Nodes are numbered in name order, so scanning a node's (sorted)
    neighbour list visits peers in name order — which is what makes the
    greedy walk in :meth:`path` return the lexicographically smallest
    shortest path.  Hop-distance maps are flat lists, one per
    destination, cached for the life of the structure (one topology
    version).
    """

    __slots__ = ("names", "index", "adj", "_hops")

    def __init__(self, adjacency: dict[str, list[str]]) -> None:
        self.names = sorted(adjacency)
        self.index = {name: i for i, name in enumerate(self.names)}
        index = self.index
        self.adj = [
            sorted(index[peer] for peer in adjacency[name])
            for name in self.names
        ]
        self._hops: dict[int, list[int]] = {}

    def hops_to(
        self,
        dst: int,
        usable: Optional[Callable[[int, int], bool]] = None,
    ) -> list[int]:
        """BFS hop count from every node to ``dst`` (-1: unreachable),
        optionally over the directed edges ``usable(u, v)`` admits."""
        if usable is None and dst in self._hops:
            return self._hops[dst]
        hops = [-1] * len(self.names)
        hops[dst] = 0
        frontier = [dst]
        while frontier:
            reached = []
            for v in frontier:
                step = hops[v] + 1
                for u in self.adj[v]:
                    if hops[u] < 0 and (usable is None or usable(u, v)):
                        hops[u] = step
                        reached.append(u)
            frontier = reached
        if usable is None:
            self._hops[dst] = hops
        return hops

    def path(
        self,
        src: int,
        dst: int,
        usable: Optional[Callable[[int, int], bool]] = None,
    ) -> Optional[list[str]]:
        """The fewest-hop path, smallest in name order among ties."""
        hops = self.hops_to(dst, usable)
        if hops[src] < 0:
            return None
        walk = [src]
        node = src
        while node != dst:
            closer = hops[node] - 1
            node = next(
                peer
                for peer in self.adj[node]
                if hops[peer] == closer
                and (usable is None or usable(node, peer))
            )
            walk.append(node)
        return [self.names[i] for i in walk]


class Router(Derived):
    """Mesh path computation with deterministic tie-breaking.

    Two strategies, selected by ``strategy``:

    * ``"min_hop"`` (default) — shortest path by hop count, the common
      fixed point of OLSR/Babel-style protocols.  Ties break
      lexicographically.
    * ``"widest"`` — the path maximizing the bottleneck link's *base*
      capacity (then fewest hops, then lexicographic).  Models
      bandwidth-aware mesh routing (e.g. ETX-weighted variants); paths
      are chosen from base capacities so routing stays stable while
      capacities fluctuate, matching BASS's assumption that it cannot
      steer routing in real time (§1).

    Paths are computed once and cached; the cache (and the live-mesh
    search structure paths are computed on) is dropped whenever the
    topology version moves.
    """

    STRATEGIES = ("min_hop", "widest")

    DERIVED = {
        # Search structure for ``_cached_version``'s live mesh, built
        # on the first cache miss.
        "_mesh": None,
    }

    def __init__(
        self, topology: MeshTopology, *, strategy: str = "min_hop"
    ) -> None:
        if strategy not in self.STRATEGIES:
            raise TopologyError(
                f"unknown routing strategy {strategy!r}; "
                f"expected one of {self.STRATEGIES}"
            )
        self._topology = topology
        self.strategy = strategy
        self._path_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._link_cache: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
        self._cached_version = topology.version
        self._link_cache_version = topology.version
        forget(self)

    @property
    def topology(self) -> MeshTopology:
        return self._topology

    def invalidate(self) -> None:
        """Drop cached paths (call after adding nodes or links)."""
        self._path_cache.clear()
        self._link_cache.clear()
        self._mesh = None

    def traceroute(self, src: str, dst: str) -> tuple[str, ...]:
        """The node path from ``src`` to ``dst``, inclusive of both ends.

        Returns the cached immutable tuple itself — callers on the hot
        path (the emulator's per-query path resolution) share it without
        a per-call copy.

        Raises:
            RoutingError: if the mesh is partitioned between the nodes.
        """
        for name in (src, dst):
            if name not in self._topology:
                raise TopologyError(f"unknown node {name!r}")
        if self._cached_version != self._topology.version:
            # Topology changed (node/link added, failed, or recovered)
            # since the cache was filled — recompute from scratch.
            self._path_cache.clear()
            self._mesh = None
            self._cached_version = self._topology.version
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            if src == dst:
                cached = (src,)
            else:
                cached = tuple(self._shortest_path(src, dst))
            self._path_cache[key] = cached
        return cached

    def _shortest_path(self, src: str, dst: str) -> list[str]:
        mesh = self._mesh
        if mesh is None:
            mesh = self._mesh = _LiveMesh(self._topology.live_adjacency())
        s, d = mesh.index.get(src), mesh.index.get(dst)
        if s is None or d is None:
            # A down endpoint is absent from the live mesh —
            # unreachable, same as a partition.
            path = None
        elif self.strategy == "widest":
            path = self._widest_path(mesh, s, d)
        else:
            path = mesh.path(s, d)
        if path is None:
            raise RoutingError(
                f"mesh is partitioned: no route {src!r} -> {dst!r}"
            )
        return path

    def _widest_path(
        self, mesh: _LiveMesh, src: int, dst: int
    ) -> Optional[list[str]]:
        """Maximize the path's bottleneck base capacity, then hop count,
        then name order: find the best achievable bottleneck (a
        max-bottleneck Dijkstra), then the min-hop path over the links
        at least that wide."""
        names = mesh.names
        link = self._topology.link

        def width(u: int, v: int) -> float:
            return link(names[u], names[v]).base_capacity(names[u], names[v])

        best = {src: float("inf")}
        heap = [(-best[src], src)]
        while heap:
            neg, u = heapq.heappop(heap)
            if u == dst:
                break
            if -neg < best[u]:
                continue  # stale entry
            for v in mesh.adj[u]:
                through = min(-neg, width(u, v))
                if through > best.get(v, -1.0):
                    best[v] = through
                    heapq.heappush(heap, (-through, v))
        else:
            return None
        bottleneck = best[dst]
        return mesh.path(src, dst, lambda a, b: width(a, b) >= bottleneck)

    def path_links(self, src: str, dst: str) -> list[Link]:
        """Links along the route, in traversal order."""
        path = self.traceroute(src, dst)
        return [
            self._topology.link(a, b) for a, b in zip(path, path[1:])
        ]

    def hop_count(self, src: str, dst: str) -> int:
        """Number of wireless hops between the nodes (0 if same node)."""
        return len(self.traceroute(src, dst)) - 1

    def path_link_keys(self, src: str, dst: str) -> tuple[tuple[str, str], ...]:
        """Directed (src, dst) link keys along the route, cached.

        The per-route tuple is computed once and shared, so per-query
        callers (``path_available_bandwidth``, ``path_delay_s``) avoid
        re-zipping the node path on every call.
        """
        if self._link_cache_version != self._topology.version:
            self._link_cache.clear()
            self._link_cache_version = self._topology.version
        key = (src, dst)
        cached = self._link_cache.get(key)
        if cached is None:
            path = self.traceroute(src, dst)
            cached = tuple(zip(path, path[1:]))
            self._link_cache[key] = cached
        return cached

    def bottleneck_bandwidth(self, src: str, dst: str, t: float) -> float:
        """Path capacity = minimum directed link capacity along the route.

        Co-located endpoints communicate over loopback; we report
        infinity for that case so callers can treat it as unconstrained.
        """
        path = self.traceroute(src, dst)
        if len(path) == 1:
            return float("inf")
        return min(
            self._topology.link(a, b).capacity(a, b, t)
            for a, b in zip(path, path[1:])
        )

    def path_latency_ms(self, src: str, dst: str) -> float:
        """Sum of one-way propagation latencies along the route."""
        return sum(link.latency_ms for link in self.path_links(src, dst))
