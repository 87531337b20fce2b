"""Dynamic component migration (§3.2.2, Algorithm 3).

Two situations warrant migration: (1) a component's traffic nearly
exhausts its link (utilization erodes the headroom), and (2) the link's
capacity degrades so far that the component's goodput falls below the
system threshold.  Algorithm 3 walks the application DAG, collects the
violating components, sorts them by bandwidth requirement (largest
first) and prunes the dependency partners of each retained candidate so
only one end of a communicating pair moves — avoiding cascades.

Pseudocode repairs (documented in DESIGN.md §5): the listing's guard
reads ``goodput > threshold`` and its last line returns the unpruned
list; §3.2.2's prose ("we migrate a component when its goodput falls
below a system defined threshold", "by migrating only one component of
the dependency pair") makes clear both are typos.  We implement the
prose semantics and prune partners in both edge directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Optional

from ..cluster.deployment import Deployment
from ..cluster.orchestrator import ClusterState
from ..errors import RoutingError
from ..net.fairness import FlowDemand, LinkKey, max_min_allocation
from ..net.netem import NetworkEmulator
from ..obs.trace import NULL_TRACER, TracerBase
from .binding import edge_flow_id
from .dag import ComponentDAG

_EPSILON = 1e-9


@dataclass(frozen=True)
class Violation:
    """A dependency edge whose bandwidth need is (about to be) unmet.

    Attributes:
        component: upstream component (the traffic source).
        dependency: downstream component.
        required_mbps: the edge's annotated requirement.
        goodput: achieved / offered bandwidth on the edge (starvation
            signal: < 1 means the network squeezes what the edge sends).
        utilization: achieved / *required* bandwidth — "the fraction of
            the allocated bandwidth quota the component has used"
            (§3.2.2, Algorithm 3 line 7).  This is the knob §6.3.3
            sweeps: a low threshold fires as soon as a component uses a
            sliver of its quota on a headroom-starved link (premature),
            a high one waits until the quota is nearly exhausted (late).
        available_mbps: spare capacity on the connecting path.
        headroom_mbps: spare capacity the system wants to keep there.
    """

    component: str
    dependency: str
    required_mbps: float
    goodput: float
    utilization: float
    available_mbps: float
    headroom_mbps: float

    @property
    def severity(self) -> float:
        """How far out of spec the edge is, in [0, 2].

        The goodput gap (starvation) and the headroom deficit (eroded
        safety margin) each contribute up to 1.  The fleet arbiter uses
        the per-app maximum to order tenants within an epoch: the worst-
        off application migrates first.
        """
        goodput_gap = max(0.0, 1.0 - self.goodput)
        if self.headroom_mbps > 0:
            headroom_gap = max(
                0.0,
                min(
                    1.0,
                    (self.headroom_mbps - self.available_mbps)
                    / self.headroom_mbps,
                ),
            )
        else:
            headroom_gap = 0.0
        return goodput_gap + headroom_gap


class MigrationPlanner:
    """Selects migration candidates and their target nodes.

    Two triggers mark an edge as violating (§3.2.2's two situations):

    1. **Goodput / starvation**: the edge achieves less than
       ``goodput_threshold`` of what it *offers* — link capacity
       degraded underneath it (§3.2.2: "we migrate a component when its
       goodput falls below a system defined threshold in response to
       the changes in link capacity").  Set 0 to disable.
    2. **Quota utilization + headroom** (Algorithm 3's guard): the edge
       uses more than ``link_utilization_threshold`` of its annotated
       bandwidth quota *and* the path's spare capacity is below the
       required headroom — the component's own traffic is eroding the
       safety margin even without a capacity change.  This is the
       threshold swept in §6.3.3 (Figs 14c/d, 15b, 16).

    Args:
        dag: the application's component DAG.
        goodput_threshold: trigger 1 threshold (0 disables).
        link_utilization_threshold: trigger 2 utilization fraction.
        headroom_fraction: spare capacity to preserve on links, as a
            fraction of link capacity.
    """

    def __init__(
        self,
        dag: ComponentDAG,
        *,
        goodput_threshold: float = 0.5,
        link_utilization_threshold: float = 0.65,
        headroom_fraction: float = 0.2,
        improvement_margin: float = 0.1,
    ) -> None:
        self.dag = dag
        self.goodput_threshold = goodput_threshold
        self.link_utilization_threshold = link_utilization_threshold
        self.headroom_fraction = headroom_fraction
        self.improvement_margin = improvement_margin

    # -- violation detection (inputs to Algorithm 3) -------------------------

    def detect_violations(
        self,
        deployment: Deployment,
        netem: NetworkEmulator,
        *,
        goodput_of: Callable[[str, str], float],
        achieved_mbps_of: Callable[[str, str], float],
    ) -> list[Violation]:
        """Scan every inter-node dependency edge for bandwidth trouble.

        Args:
            deployment: current component → node bindings.
            netem: network emulator, queried for available capacity.
            goodput_of: callback returning achieved/offered for an edge
                (src, dst) — passive measurement (§4.2).
            achieved_mbps_of: callback returning the edge's achieved
                traffic rate in Mbps (for the quota-utilization signal).

        Returns:
            One :class:`Violation` per edge that trips either trigger.
        """
        violations: list[Violation] = []
        for src, dst, required in self.dag.edges():
            if required <= 0:
                continue
            src_node = deployment.node_of(src)
            dst_node = deployment.node_of(dst)
            if src_node == dst_node:
                continue  # co-located: loopback cannot be violated
            try:
                available = netem.path_available_bandwidth(src_node, dst_node)
                capacity = netem.path_capacity(src_node, dst_node)
            except RoutingError:
                # No route between the endpoints (crashed node or
                # partition): nothing is deliverable.
                available = 0.0
                capacity = 0.0
            headroom = (
                0.0 if capacity == float("inf")
                else capacity * self.headroom_fraction
            )
            goodput = goodput_of(src, dst)
            utilization = achieved_mbps_of(src, dst) / required
            goodput_trip = (
                self.goodput_threshold > 0
                and goodput < self.goodput_threshold - _EPSILON
            )
            utilization_trip = (
                utilization > self.link_utilization_threshold + _EPSILON
                and available < headroom - _EPSILON
            )
            if goodput_trip or utilization_trip:
                violations.append(
                    Violation(
                        component=src,
                        dependency=dst,
                        required_mbps=required,
                        goodput=goodput,
                        utilization=utilization,
                        available_mbps=available,
                        headroom_mbps=headroom,
                    )
                )
        return violations

    # -- Algorithm 3 -------------------------------------------------------------

    def select_candidates(self, violations: list[Violation]) -> list[str]:
        """Prune the violating components to a cascade-free migration set.

        Both endpoints of a violating edge are initially candidates
        (pinned components are excluded up front — user-device stand-ins
        can never move, and letting them into the list would prune away
        the movable partner); candidates are sorted by total annotated
        bandwidth (largest first) and each retained candidate removes
        its DAG neighbours from the remainder, so at most one end of any
        communicating pair moves.
        """
        initial: list[str] = []
        seen: set[str] = set()
        for violation in violations:
            for name in (violation.component, violation.dependency):
                if name in seen:
                    continue
                seen.add(name)
                if self.dag.component(name).pinned_node is not None:
                    continue
                initial.append(name)

        def total_bandwidth(name: str) -> float:
            return sum(self.dag.dependencies(name).values()) + sum(
                self.dag.dependents(name).values()
            )

        initial.sort(key=lambda name: (-total_bandwidth(name), name))
        final = list(initial)
        for candidate in initial:
            if candidate not in final:
                continue
            for neighbor in self.dag.neighbors(candidate):
                if neighbor in final and neighbor != candidate:
                    final.remove(neighbor)
        return final

    # -- target selection (§3.2.2 closing paragraph) ----------------------------

    def select_target(
        self,
        component: str,
        deployment: Deployment,
        cluster: ClusterState,
        netem: NetworkEmulator,
        *,
        exclude: Optional[set[str]] = None,
        claimed: Collection[str] = (),
        allow: Optional[frozenset[str]] = None,
        achieved_mbps_of: Optional[Callable[[str, str], float]] = None,
        tracer: Optional[TracerBase] = None,
        trace_cause: Optional[int] = None,
    ) -> tuple[Optional[str], Optional[str]]:
        """Choose the node to move ``component`` to.

        Candidate nodes are ranked by the number of the component's DAG
        neighbours already deployed there ("the node which ranks highest
        in terms of the number of existing deployed dependencies"),
        subject to CPU/memory fit; among those, nodes whose links can
        carry the component's inter-node edges with headroom win, then
        higher estimated achievable bandwidth.  When
        ``achieved_mbps_of`` is given, targets that neither satisfy the
        edges outright nor beat the component's *currently achieved*
        aggregate bandwidth are rejected — a move that pays the restart
        cost only to violate again from the new node is thrash, not
        mitigation.  ``allow`` restricts candidates to a node set (a
        region's jurisdiction); ``exclude`` still removes nodes from
        within it.

        Returns ``(granted, preferred)``: the best node outside
        ``claimed`` (other tenants' claims) and the best node outright,
        None where none qualifies.  No price depends on the claims, so
        one ranking gives both; the traced ranking is the granted one's.
        """
        current = deployment.node_of(component)
        spec = self.dag.component(component)
        excluded = exclude or set()
        neighbors = self.dag.neighbors(component)
        neighbor_nodes: dict[str, int] = {}
        for neighbor in neighbors:
            if deployment.is_deployed(neighbor):
                node = deployment.node_of(neighbor)
                neighbor_nodes[node] = neighbor_nodes.get(node, 0) + 1

        current_achieved = None
        if achieved_mbps_of is not None:
            current_achieved = self._current_achieved(
                component, achieved_mbps_of
            )
        # Every candidate is priced at this instant: read the capacities
        # once, when the first one is.
        capacities = None
        candidates = []
        for node in cluster.schedulable_nodes():
            name = node.node_name
            if name == current or name in excluded:
                continue
            if allow is not None and name not in allow:
                continue
            if not node.can_fit(spec.resources):
                continue
            bandwidth_ok = self._edges_satisfied_from(
                component, name, deployment, netem
            )
            if capacities is None:
                capacities = netem.capacities_now()
            estimate = self._estimate_achievable(
                component, name, deployment, netem, capacities
            )
            if (
                not bandwidth_ok
                and current_achieved is not None
                and estimate
                <= current_achieved * (1.0 + self.improvement_margin) + _EPSILON
            ):
                continue
            candidates.append(
                (
                    -neighbor_nodes.get(name, 0),
                    0 if bandwidth_ok else 1,
                    -estimate,
                    name,
                )
            )
        candidates.sort()
        preferred = candidates[0][3] if candidates else None
        if claimed:
            candidates = [row for row in candidates if row[3] not in claimed]
        granted = candidates[0][3] if candidates else None
        tracer = tracer if tracer is not None else NULL_TRACER
        if tracer.enabled:
            tracer.emit(
                "migration.target_ranked",
                netem.now,
                cause=trace_cause,
                component=component,
                ranking=[
                    {
                        "node": name,
                        "neighbors": -neighbor_score,
                        "bandwidth_ok": not bandwidth_penalty,
                        "estimate_mbps": -negative_estimate,
                    }
                    for neighbor_score, bandwidth_penalty, negative_estimate, name
                    in candidates[:5]
                ],
                chosen=granted,
            )
        return granted, preferred

    def _current_achieved(
        self, component: str, achieved_mbps_of: Callable[[str, str], float]
    ) -> float:
        """Aggregate achieved bandwidth across the component's edges."""
        total = 0.0
        for dep, _ in self.dag.dependencies(component).items():
            total += achieved_mbps_of(component, dep)
        for pred, _ in self.dag.dependents(component).items():
            total += achieved_mbps_of(pred, component)
        return total

    def _estimate_achievable(
        self,
        component: str,
        node: str,
        deployment: Deployment,
        netem: NetworkEmulator,
        capacities: Mapping[LinkKey, float],
    ) -> float:
        """Aggregate bandwidth the component would achieve on ``node``.

        Runs a *what-if* max-min allocation at ``capacities``: the
        component's edges are routed as if it ran on ``node`` and solved
        jointly with the current flows linked to those paths — the ones
        ``netem.linked_flows`` reaches, less the component's own edges.
        Max-min decomposes over link-connected components, so no other
        flow can move the answer; the rest of the fleet is not priced.
        Edges co-located with their peer count at full demand
        (loopback).  Using the joint allocation (rather than independent
        per-edge caps) keeps the comparison honest under saturation — an
        optimistic bound would see phantom improvements everywhere and
        cause migration ping-pong.
        """
        app = self.dag.app
        edges = self._component_edges(component)
        own_flow_ids = {
            edge_flow_id(app, component, peer)
            if role == "out"
            else edge_flow_id(app, peer, component)
            for peer, role, _ in edges
        }
        loopback_total = 0.0
        hypothetical = []
        for peer, role, mbps in edges:
            if mbps <= 0 or not deployment.is_deployed(peer):
                continue
            peer_node = deployment.node_of(peer)
            if peer_node == node:
                loopback_total += mbps
                continue
            src, dst = (node, peer_node) if role == "out" else (peer_node, node)
            try:
                path = netem.router.traceroute(src, dst)
            except RoutingError:
                continue  # unreachable peer contributes nothing
            hypothetical.append(
                FlowDemand(
                    flow_id=f"__whatif_{component}_{role}_{peer}",
                    links=tuple(zip(path, path[1:])),
                    demand_mbps=mbps,
                )
            )
        linked = netem.linked_flows(
            (key for demand in hypothetical for key in demand.links),
            own_flow_ids,
        )
        demands = [
            FlowDemand(
                flow_id=flow.flow_id,
                links=flow.links,
                demand_mbps=flow.demand_mbps,
            )
            for flow in linked
        ]
        demands.extend(hypothetical)
        rates = max_min_allocation(demands, capacities)
        return loopback_total + sum(
            rates[demand.flow_id] for demand in hypothetical
        )

    def _component_edges(
        self, component: str
    ) -> list[tuple[str, str, float]]:
        """The component's edges in both directions: (peer, role, mbps)."""
        edges = []
        for dep, mbps in self.dag.dependencies(component).items():
            edges.append((dep, "out", mbps))
        for pred, mbps in self.dag.dependents(component).items():
            edges.append((pred, "in", mbps))
        return edges

    def _edges_satisfied_from(
        self,
        component: str,
        node: str,
        deployment: Deployment,
        netem: NetworkEmulator,
    ) -> bool:
        """Could all of the component's edges be carried from ``node``?"""
        for peer, role, mbps in self._component_edges(component):
            if mbps <= 0 or not deployment.is_deployed(peer):
                continue
            peer_node = deployment.node_of(peer)
            if peer_node == node:
                continue
            src, dst = (node, peer_node) if role == "out" else (peer_node, node)
            try:
                capacity = netem.path_capacity(src, dst)
                headroom = (
                    0.0 if capacity == float("inf")
                    else capacity * self.headroom_fraction
                )
                if netem.path_available_bandwidth(src, dst) < mbps + headroom:
                    return False
            except RoutingError:
                return False  # unreachable peer: edge cannot be carried
        return True
