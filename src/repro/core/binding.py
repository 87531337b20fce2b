"""Deployment ↔ network binding.

For every inter-node edge of a deployed application DAG, a fluid flow
must exist in the network emulator carrying the edge's demand; edges
between co-located components use loopback and produce no flow.  The
:class:`DeploymentBinding` keeps this mapping in sync across initial
deployment, demand changes (workload-dependent traffic), migrations
(endpoints move; the component is silent while restarting), and
teardown.  It is also the source of passive goodput measurements for
the controller.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, Optional

from ..cluster.deployment import Deployment
from ..errors import DagError, RoutingError, SimulationError
from ..net.netem import NetworkEmulator
from ..sim.derived import Derived, forget
from .dag import ComponentDAG


def edge_flow_id(app: str, src: str, dst: str) -> str:
    """Stable flow identifier for an application edge."""
    return f"{app}:{src}->{dst}"


Crossing = Optional[tuple[tuple[str, str], Optional[str]]]
"""Where an edge crosses the network: ``((src_node, dst_node), flow_id)``
(``flow_id`` is None for a pair that is not a DAG edge), or None when
its endpoints share a node."""


class _Crossings(dict):
    """``{(src, dst): Crossing}`` under one placement.

    Holds every DAG edge whose endpoints are both deployed; any other
    pair is resolved against the deployment when first asked for, which
    raises :class:`~repro.errors.SchedulingError` for an endpoint that
    is not deployed — where a ``node_of`` walk would have raised it.
    """

    __slots__ = ("_node_of",)

    def __init__(self, deployment: Deployment) -> None:
        self._node_of = deployment.node_of

    def __missing__(self, edge: tuple[str, str]) -> Crossing:
        nodes = (self._node_of(edge[0]), self._node_of(edge[1]))
        crossing = self[edge] = None if nodes[0] == nodes[1] else (nodes, None)
        return crossing


class DeploymentBinding(Derived):
    """Synchronizes an application's DAG edges with emulator flows.

    Args:
        dag: the application DAG (edge weights = default demands).
        deployment: live component → node bindings.
        netem: the network emulator to create flows in.

    Example:
        After a migration, call :meth:`sync_flows` so edge flows are
        rerouted to the component's new node.
    """

    DERIVED = {
        # ``(deployment revision, table)``: see :meth:`crossings`.
        "_crossings": (-1, None),
        # What the last full pass of :meth:`sync_flows` read; None
        # forces the next one.
        "_synced": None,
    }

    def __init__(
        self,
        dag: ComponentDAG,
        deployment: Deployment,
        netem: NetworkEmulator,
    ) -> None:
        if dag.app != deployment.app:
            raise DagError(
                f"DAG app {dag.app!r} != deployment app {deployment.app!r}"
            )
        self.dag = dag
        self.deployment = deployment
        self.netem = netem
        self._demand_scale: dict[tuple[str, str], float] = {}
        self._demand_override: dict[tuple[str, str], Optional[float]] = {}
        # Demands derive from the weights as annotated at deployment
        # time: online profiling may later revise the DAG's requirement
        # annotations without changing what the application sends.
        self._base_weights: dict[tuple[str, str], float] = {
            (src, dst): weight for src, dst, weight in dag.edges()
        }
        # Edges whose endpoints the mesh cannot currently connect (a
        # crashed node or partition); they carry no flow and count as
        # zero goodput until routing heals and sync_flows clears them.
        self._unroutable: set[tuple[str, str]] = set()
        # Flow ids are read on every sync, goodput probe and latency
        # sample; format each once (interned, as ``add_flow`` stores it).
        self._flow_ids: dict[tuple[str, str], str] = {
            edge: sys.intern(edge_flow_id(dag.app, *edge))
            for edge in self._base_weights
        }
        # Bumped when a scale or an override actually changes.
        self._demand_rev = 0
        forget(self)

    # -- placement ------------------------------------------------------------

    def crossings(self) -> Mapping[tuple[str, str], Crossing]:
        """Where every edge runs under the current placement.

        ``crossings()[(src, dst)]`` is the pair's :data:`Crossing`; it
        raises :class:`~repro.errors.SchedulingError` when an endpoint
        is not deployed.  This is structure derived from placement
        alone, so the table is kept between calls and rebuilt exactly
        when ``deployment.revision`` moved — a handful of migrations
        per run, against per-tick readers (flow sync, latency
        sampling).
        """
        deployment = self.deployment
        revision, table = self._crossings
        if revision != deployment.revision:
            nodes = deployment.bindings
            table = _Crossings(deployment)
            for edge, flow_id in self._flow_ids.items():
                src_node, dst_node = nodes.get(edge[0]), nodes.get(edge[1])
                if src_node is not None and dst_node is not None:
                    table[edge] = (
                        None
                        if src_node == dst_node
                        else ((src_node, dst_node), flow_id)
                    )
            self._crossings = (deployment.revision, table)
        return table

    # -- demand control -------------------------------------------------------

    def set_demand_scale(self, src: str, dst: str, scale: float) -> None:
        """Scale an edge's demand relative to its annotated weight.

        Workload models use this to convert request rate into traffic
        (e.g. demand proportional to offered RPS).
        """
        if not 0 <= scale < math.inf:  # NaN included
            raise DagError("demand scale must be finite and >= 0")
        self.dag.weight(src, dst)  # validates the edge exists
        if self._demand_scale.get((src, dst)) != scale:
            self._demand_rev += 1
        self._demand_scale[(src, dst)] = scale

    def set_demand_override(
        self, src: str, dst: str, demand_mbps: Optional[float]
    ) -> None:
        """Pin an edge's demand to an absolute value (None clears)."""
        if demand_mbps is not None and not 0 <= demand_mbps < math.inf:
            raise DagError("demand override must be finite and >= 0, or None")
        self.dag.weight(src, dst)
        if self._demand_override.get((src, dst)) != demand_mbps:
            self._demand_rev += 1
        self._demand_override[(src, dst)] = demand_mbps

    def set_global_scale(self, scale: float) -> None:
        """Scale every edge's demand (e.g. load level of the workload)."""
        if not 0 <= scale < math.inf:  # NaN included
            raise DagError("demand scale must be finite and >= 0")
        scales = dict.fromkeys(self._base_weights, scale)
        if self._demand_scale != scales:
            self._demand_rev += 1
        self._demand_scale.update(scales)

    def edge_demand(self, src: str, dst: str) -> float:
        """Current offered demand for an edge, Mbps.

        A component mid-restart sends and receives nothing, so edges
        touching it carry zero demand until it is available again.
        """
        now = self.netem.now
        if not (
            self.deployment.is_available(src, now)
            and self.deployment.is_available(dst, now)
        ):
            return 0.0
        return self._offered_demand((src, dst))

    def _offered_demand(self, edge: tuple[str, str]) -> float:
        """What the edge sends when both its endpoints are serving."""
        override = self._demand_override.get(edge)
        if override is not None:
            return override
        base = self._base_weights.get(edge)
        if base is None:
            base = self.dag.weight(*edge)
        return base * self._demand_scale.get(edge, 1.0)

    # -- flow synchronization ------------------------------------------------------

    def sync_flows(self) -> None:
        """Create/update/remove emulator flows to match current state.

        Co-located edges carry no flow.  Flows whose endpoints moved are
        recreated on the new route; demands are refreshed everywhere.
        An edge whose endpoints the mesh cannot connect (crashed node,
        partition) gets no flow and is recorded as unroutable — its
        traffic simply does not arrive until routing heals.

        The clock and the restart set are read once, placement comes
        from :meth:`crossings`; per edge only the emulator is asked.
        The per-edge pass is skipped when nothing it reads has moved
        since the last one — placement (``Deployment.revision``), the
        mesh (``topology.version``), a scale or override, the restart
        set, and the emulator's flow table (``flow_revision``, as that
        pass left it): it would only re-assert what every flow already
        has.  The final ``recompute()`` always runs.
        """
        netem = self.netem
        restarting = self.deployment.restarting(netem.now)
        key = (
            self.deployment.revision,
            netem.topology.version,
            self._demand_rev,
            restarting,
            netem.flow_revision,
        )
        if key != self._synced:
            self._sync_edges(restarting)
            self._synced = (*key[:-1], netem.flow_revision)
        netem.recompute()

    def _sync_edges(self, restarting: Mapping[str, float]) -> None:
        """The per-edge pass of :meth:`sync_flows`."""
        netem = self.netem
        crossings = self.crossings()
        unroutable = self._unroutable
        for edge, flow_id in self._flow_ids.items():
            crossing = crossings[edge]
            if crossing is None:
                if netem.has_flow(flow_id):
                    netem.remove_flow(flow_id)
                unroutable.discard(edge)
                continue
            src_node, dst_node = crossing[0]
            if restarting and (edge[0] in restarting or edge[1] in restarting):
                demand = 0.0  # a restarting component is silent
            else:
                demand = self._offered_demand(edge)
            try:
                try:
                    flow = netem.flow(flow_id)
                except SimulationError:
                    netem.add_flow(flow_id, src_node, dst_node, demand)
                else:
                    if flow.src != src_node or flow.dst != dst_node:
                        netem.reroute_flow(flow_id, src_node, dst_node)
                    netem.set_demand(flow_id, demand)
            except RoutingError:
                netem.remove_flow(flow_id)
                unroutable.add(edge)
            else:
                unroutable.discard(edge)

    @property
    def unroutable_edges(self) -> set[tuple[str, str]]:
        """Edges with no usable mesh route, as of the last sync."""
        return set(self._unroutable)

    def remove_flows(self) -> None:
        """Drop all of the application's edge flows (teardown)."""
        for flow_id in self._flow_ids.values():
            self.netem.remove_flow(flow_id)

    # -- passive measurement --------------------------------------------------------

    def goodput(self, src: str, dst: str) -> float:
        """Measured goodput fraction for an edge.

        Co-located edges (and edges with no required bandwidth) always
        achieve full goodput; otherwise it is the flow's achieved /
        offered ratio.  An edge silenced by a restart reports full
        goodput — an unavailable component is the migration's own cost,
        not a new bandwidth violation.
        """
        required = self.dag.weight(src, dst)
        if required <= 0:
            return 1.0
        if self.deployment.colocated(src, dst):
            return 1.0
        demand = self.edge_demand(src, dst)
        if demand <= 0:
            return 1.0
        flow_id = self._flow_ids[(src, dst)]
        if not self.netem.has_flow(flow_id):
            # Positive demand but no flow: the edge is unroutable (the
            # flow was torn down when the mesh lost the path) — nothing
            # arrives, so goodput is zero.
            return 0.0
        flow = self.netem.flow(flow_id)
        if flow.demand_mbps <= 0:
            return 1.0
        return min(1.0, flow.allocated_mbps / flow.demand_mbps)

    def achieved_mbps(self, src: str, dst: str) -> float:
        """Achieved traffic rate on an edge (Mbps).

        Co-located edges deliver their full demand over loopback.
        """
        if self.deployment.colocated(src, dst):
            return self.edge_demand(src, dst)
        flow_id = self._flow_ids[(src, dst)]
        if not self.netem.has_flow(flow_id):
            return 0.0
        return self.netem.flow(flow_id).allocated_mbps

    def edge_transfer_time_s(
        self, src: str, dst: str, payload_mbit: float
    ) -> float:
        """Time for ``payload_mbit`` to cross an edge right now.

        See :meth:`EdgeCosts.transfer_time_s`; callers pricing many
        payloads at one instant share one :class:`EdgeCosts` instead.
        """
        return EdgeCosts(self).transfer_time_s(src, dst, payload_mbit)

    def inter_node_edges(self) -> list[tuple[str, str, float]]:
        """Edges currently crossing the network, with requirements."""
        result = []
        for src, dst, weight in self.dag.edges():
            if not self.deployment.colocated(src, dst):
                result.append((src, dst, weight))
        return result


class EdgeCosts:
    """Edge transfer times and restart stalls over one frozen instant.

    A latency sampler prices many payloads at one instant: the clock,
    the placement, the allocation and the queues do not move between
    them.  So the clock and the set of restarting components are read
    once, here; and edges between the same two nodes share one path, so
    each ``(src_node, dst_node)`` path delay — the per-hop queue walk —
    is asked of the emulator once and reused.  Every answer is the
    float a fresh lookup would give.

    Only *structure* outlives the object: "which node is this pod on"
    comes from the binding's revision-keyed
    :meth:`~DeploymentBinding.crossings`.  Every *value* — rates,
    delays, spare bandwidth, stalls — is read from the emulator and the
    deployment by each object anew.  Discard it when simulated time,
    flows or placement move on.  A caller that keeps prices beyond the
    instant keys them on the emulator's
    :meth:`~repro.net.netem.NetworkEmulator.observation_key`, which
    covers path delays and flow rates but not the capacities behind a
    price at the path's spare bandwidth: :attr:`spare_priced` counts
    those, and :attr:`stalls` moves with the clock.
    """

    def __init__(self, binding: DeploymentBinding) -> None:
        self._netem = netem = binding.netem
        #: The binding's placement table this instant prices against
        #: (:meth:`DeploymentBinding.crossings`).
        self.crossings = binding.crossings()
        now = netem.now
        #: Component mid-restart -> how long a request touching it now
        #: stalls (s).  Empty outside restart windows.
        self.stalls: dict[str, float] = {
            pod: max(0.0, until - now)
            for pod, until in binding.deployment.restarting(now).items()
        }
        # (src_node, dst_node) -> path delay s; inf = no route.
        self._delays: dict[tuple[str, str], float] = {}
        #: Prices that rode the path's spare bandwidth (no live flow).
        self.spare_priced = 0

    def transfer_time_s(
        self, src: str, dst: str, payload_mbit: float
    ) -> float:
        """Time for ``payload_mbit`` to cross the edge ``src -> dst``.

        The payload rides the edge's fluid flow, so it moves at the
        flow's *allocated* (max-min fair) rate and additionally waits
        behind the path's propagation and queue backlog.  Co-located
        edges hand data over loopback at no cost; an edge the mesh
        cannot route never delivers (``inf``).
        """
        if payload_mbit <= 0:
            return 0.0
        return self.crossing_time_s(src, dst, payload_mbit) or 0.0

    def crossing_time_s(
        self, src: str, dst: str, payload_mbit: float
    ) -> Optional[float]:
        """:meth:`transfer_time_s`, or None when the edge does not cross
        the network — the one placement probe a chain step needs to
        charge both its hop overhead and its transfer.

        Raises:
            SchedulingError: an endpoint is not deployed.
        """
        crossing = self.crossings[(src, dst)]
        if crossing is None:
            return None
        return self.crossing_cost_s(crossing, payload_mbit)

    def crossing_cost_s(
        self,
        crossing: tuple[tuple[str, str], Optional[str]],
        payload_mbit: float,
    ) -> float:
        """Time for ``payload_mbit`` to ride ``crossing``, a non-None
        :data:`Crossing` already read from :attr:`crossings` — the
        pricing behind :meth:`crossing_time_s`, for callers that hold
        the crossings of a chain across calls."""
        if payload_mbit <= 0:
            return 0.0
        nodes, flow_id = crossing
        netem = self._netem
        delay_s = self._delays.get(nodes)
        if delay_s is None:
            try:
                delay_s = netem.path_delay_s(*nodes)
            except RoutingError:
                delay_s = math.inf
            self._delays[nodes] = delay_s
        if delay_s == math.inf:
            # No route at all: the payload never arrives.
            return delay_s
        rate = 0.0
        if flow_id is not None:
            try:
                flow = netem.flow(flow_id)
            except SimulationError:
                pass  # no flow: not synced yet, or unroutable at the last sync
            else:
                if flow.demand_mbps > 0:
                    rate = flow.allocated_mbps
        if rate <= 0:
            # No live flow (or one silenced by a restart window): the
            # payload would ride whatever the path has spare.  Restart
            # stalls themselves are charged by the caller, not here.
            rate = netem.path_available_bandwidth(*nodes)
            self.spare_priced += 1
        if rate < 0.01:
            rate = 0.01  # a starved edge still trickles
        return payload_mbit / rate + delay_s
