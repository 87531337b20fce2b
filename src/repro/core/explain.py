"""Placement explanations: why did BASS put each component there?

Operators of a community mesh are volunteers (§3.1); a scheduler they
cannot interrogate is a scheduler they will not trust.
:func:`explain_placement` re-runs the scheduling pipeline with full
bookkeeping and renders a human-readable rationale: the heuristic's
component order, the node ranking, each component's landing spot, and
every application edge's fate (loopback vs which wireless path, and
whether that path can carry the annotated requirement).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from ..cluster.orchestrator import ClusterState
from ..net.netem import NetworkEmulator
from .dag import ComponentDAG
from .ordering import order_components
from .placement import PlacementEngine, rank_nodes


@dataclass(frozen=True)
class EdgeFate:
    """What happens to one application edge under a placement."""

    src: str
    dst: str
    required_mbps: float
    colocated: bool
    path: tuple[str, ...] = ()
    path_capacity_mbps: Optional[float] = None

    @property
    def satisfied(self) -> bool:
        """Whether the path can carry the requirement (loopback always can)."""
        if self.colocated:
            return True
        if self.path_capacity_mbps is None:
            return True
        return self.path_capacity_mbps >= self.required_mbps


@dataclass(frozen=True)
class PlacementExplanation:
    """The full rationale behind one scheduling decision."""

    heuristic: str
    order: tuple[str, ...]
    node_ranking: tuple[str, ...]
    assignments: dict[str, str]
    edges: tuple[EdgeFate, ...] = field(default_factory=tuple)

    @property
    def colocated_fraction(self) -> float:
        """Fraction of annotated bandwidth kept on loopback."""
        total = sum(e.required_mbps for e in self.edges)
        if total <= 0:
            return 1.0
        kept = sum(e.required_mbps for e in self.edges if e.colocated)
        return kept / total

    def render(self) -> str:
        """A terminal-friendly report."""
        lines = [
            f"heuristic: {self.heuristic}",
            f"packing order: {' -> '.join(self.order)}",
            f"node ranking: {' > '.join(self.node_ranking)}",
            "placement:",
        ]
        by_node: dict[str, list[str]] = {}
        for component, node in self.assignments.items():
            by_node.setdefault(node, []).append(component)
        for node in self.node_ranking:
            if node in by_node:
                lines.append(f"  {node}: {', '.join(by_node[node])}")
        lines.append("edges:")
        for edge in self.edges:
            if edge.colocated:
                lines.append(
                    f"  {edge.src} -> {edge.dst} "
                    f"({edge.required_mbps:g} Mbps): loopback"
                )
            else:
                capacity = (
                    f"{edge.path_capacity_mbps:g} Mbps path"
                    if edge.path_capacity_mbps is not None
                    else "capacity unknown"
                )
                marker = "" if edge.satisfied else "  !! UNDER-PROVISIONED"
                lines.append(
                    f"  {edge.src} -> {edge.dst} "
                    f"({edge.required_mbps:g} Mbps): via "
                    f"{' - '.join(edge.path)} ({capacity}){marker}"
                )
        lines.append(
            f"bandwidth kept on loopback: {self.colocated_fraction:.0%}"
        )
        return "\n".join(lines)


def explain_placement(
    dag: ComponentDAG,
    cluster: ClusterState,
    netem: Optional[NetworkEmulator] = None,
    *,
    heuristic: str = "longest_path",
) -> PlacementExplanation:
    """Run the BASS scheduling pipeline and explain its decisions.

    The provided ``cluster`` is not mutated — placement is simulated on
    a deep copy, so this is safe to call against a live ledger (e.g. to
    preview where a new application *would* land).
    """
    order = order_components(dag, heuristic)
    shadow = copy.deepcopy(cluster)
    ranking = rank_nodes(shadow, netem)
    assignments = PlacementEngine(shadow, netem).place(dag.to_pods(), order)

    edges: list[EdgeFate] = []
    for src, dst, required in dag.edges():
        src_node, dst_node = assignments[src], assignments[dst]
        if src_node == dst_node:
            edges.append(
                EdgeFate(
                    src=src, dst=dst, required_mbps=required, colocated=True
                )
            )
            continue
        path: tuple[str, ...] = (src_node, dst_node)
        capacity = None
        if netem is not None:
            path = tuple(netem.router.traceroute(src_node, dst_node))
            capacity = netem.path_capacity(src_node, dst_node)
        edges.append(
            EdgeFate(
                src=src,
                dst=dst,
                required_mbps=required,
                colocated=False,
                path=path,
                path_capacity_mbps=capacity,
            )
        )
    return PlacementExplanation(
        heuristic=heuristic,
        order=tuple(order),
        node_ranking=tuple(ranking),
        assignments=assignments,
        edges=tuple(edges),
    )
