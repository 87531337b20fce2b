"""Initial placement: node ranking and greedy packing (§3.2.1).

"To schedule a component, we first rank nodes based on their CPU,
memory, and combined capacity across all of the node's links.  We pack
the node with application components as long as its capacity permits."

The packing walks the heuristic's component order with a *sticky*
cursor: components go onto the current node while CPU and memory fit;
when one does not fit, the cursor advances to the next-ranked node.  If
no node from the cursor onward fits, we fall back to first-fit over the
whole ranking (so feasibility never depends on order alone).  Bandwidth
is honoured as a soft preference: among feasible nodes, ones whose
links can carry the component's inter-node edges win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cluster.orchestrator import ClusterState
from ..cluster.pod import PodSpec
from ..errors import InsufficientCapacityError
from ..net.netem import NetworkEmulator
from ..obs.trace import NULL_TRACER, TracerBase


@dataclass(frozen=True)
class NodeRank:
    """A node's rank key: link capacity first, then CPU, then memory."""

    name: str
    link_capacity_mbps: float
    cpu: float
    memory_mb: float

    @property
    def sort_key(self) -> tuple[float, float, float, str]:
        return (
            -self.link_capacity_mbps,
            -self.cpu,
            -self.memory_mb,
            self.name,
        )


def rank_nodes(
    cluster: ClusterState, netem: Optional[NetworkEmulator] = None
) -> list[str]:
    """Rank schedulable nodes best-first (§3.2.1).

    Nodes with more aggregate link capacity are preferred, then more
    CPU, then more memory; names break ties deterministically.  Without
    a network emulator (pure resource scheduling) link capacity is 0 for
    every node and the ranking degenerates to CPU/memory.
    """
    ranks = []
    for node in cluster.schedulable_nodes():
        if netem is not None:
            link_capacity = netem.topology.total_link_capacity(
                node.node_name, netem.now
            )
        else:
            link_capacity = 0.0
        ranks.append(
            NodeRank(
                name=node.node_name,
                link_capacity_mbps=link_capacity,
                cpu=node.capacity.cpu,
                memory_mb=node.capacity.memory_mb,
            )
        )
    ranks.sort(key=lambda r: r.sort_key)
    return [r.name for r in ranks]


class PlacementEngine:
    """Greedy packing of an ordered component list onto ranked nodes.

    Args:
        cluster: resource ledger; allocations are committed here.
        netem: optional network emulator for bandwidth-aware preferences.
        tracer: flight recorder for ``placement.decision`` events.
            Deliberately *not* resolved from the process default: shadow
            placements (``explain_placement`` replays the pipeline on a
            scratch ledger) must stay silent unless handed a tracer.
    """

    def __init__(
        self,
        cluster: ClusterState,
        netem: Optional[NetworkEmulator] = None,
        *,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.cluster = cluster
        self.netem = netem
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def place(
        self,
        pods: Sequence[PodSpec],
        order: Sequence[str],
        *,
        trace_cause: Optional[int] = None,
    ) -> dict[str, str]:
        """Assign pods to nodes following ``order``; commit allocations.

        Args:
            pods: the application's pods (any order).
            order: component names in packing order (from a heuristic);
                must be a permutation of the pod names.
            trace_cause: flight-recorder id of the ``placement.plan``
                event that ordered this packing, if any.

        Returns:
            Mapping pod name → node name.

        Raises:
            InsufficientCapacityError: a pod fits on no node.
        """
        by_name = {pod.name: pod for pod in pods}
        if set(order) != set(by_name):
            raise InsufficientCapacityError(
                "order must be a permutation of the pod names"
            )
        ranking = rank_nodes(self.cluster, self.netem)
        assignments: dict[str, str] = {}
        cursor = 0
        for name in order:
            pod = by_name[name]
            if pod.pinned_node is not None:
                node = self._place_pinned(pod)
            else:
                node, cursor = self._place_next(
                    pod, ranking, cursor, assignments, by_name
                )
            self.cluster.node(node).allocate(pod.resources)
            assignments[name] = node
            if self.tracer.enabled:
                self.tracer.emit(
                    "placement.decision",
                    self.netem.now if self.netem is not None else 0.0,
                    app=pod.app,
                    cause=trace_cause,
                    pod=name,
                    node=node,
                    pinned=pod.pinned_node is not None,
                )
        return assignments

    def _place_pinned(self, pod: PodSpec) -> str:
        node = self.cluster.node(pod.pinned_node)
        if not node.can_fit(pod.resources):
            raise InsufficientCapacityError(
                f"pod {pod.name!r} pinned to {pod.pinned_node!r} "
                "which cannot fit it"
            )
        return pod.pinned_node

    def _place_next(
        self,
        pod: PodSpec,
        ranking: list[str],
        cursor: int,
        assignments: dict[str, str],
        by_name: dict[str, PodSpec],
    ) -> tuple[str, int]:
        """Pick a node for ``pod``; return (node, new cursor)."""
        # Pass 1: sticky cursor onward (packing semantics).
        for index in range(cursor, len(ranking)):
            node_name = ranking[index]
            if self._feasible(pod, node_name):
                if self._bandwidth_ok(pod, node_name, assignments, by_name):
                    return node_name, index
        # Pass 2: cursor onward ignoring the bandwidth preference.
        for index in range(cursor, len(ranking)):
            node_name = ranking[index]
            if self._feasible(pod, node_name):
                return node_name, index
        # Pass 3: first-fit over the whole ranking (don't advance cursor).
        for node_name in ranking:
            if self._feasible(pod, node_name):
                return node_name, cursor
        raise InsufficientCapacityError(
            f"no node can fit pod {pod.name!r} "
            f"(cpu={pod.resources.cpu}, mem={pod.resources.memory_mb})"
        )

    def _feasible(self, pod: PodSpec, node_name: str) -> bool:
        return self.cluster.node(node_name).can_fit(pod.resources)

    def _bandwidth_ok(
        self,
        pod: PodSpec,
        node_name: str,
        assignments: dict[str, str],
        by_name: dict[str, PodSpec],
    ) -> bool:
        """Would the node's links carry the pod's inter-node edges?

        Checks both directions: this pod's annotated egress to already
        placed components, and already placed components' egress to it.
        Co-located pairs need no network bandwidth.
        """
        if self.netem is None:
            return True
        for dep, mbps in pod.bandwidth_mbps.items():
            dep_node = assignments.get(dep)
            if dep_node is None or dep_node == node_name or mbps <= 0:
                continue
            if not self._path_can_carry(node_name, dep_node, mbps):
                return False
        for placed_name, placed_node in assignments.items():
            mbps = by_name[placed_name].bandwidth_mbps.get(pod.name, 0.0)
            if mbps <= 0 or placed_node == node_name:
                continue
            if not self._path_can_carry(placed_node, node_name, mbps):
                return False
        return True

    def _path_can_carry(self, src: str, dst: str, mbps: float) -> bool:
        if self.netem.path_capacity(src, dst) == float("inf"):
            return True
        return self.netem.path_available_bandwidth(src, dst) >= mbps
