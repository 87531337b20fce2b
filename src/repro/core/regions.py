"""The region layer of the control plane.

Every mesh runs the regional fleet round; the paper's five-node figures
run it with one region, ``region0``, spanning the mesh (what
``FleetConfig.region_specs`` defaults to).  City-scale meshes cannot
afford one global observe/plan/act loop: probe load and
migration-decision latency both grow with the number of nodes and
tenants (see the decentralized resource-mapping designs in PAPERS.md),
so the same plane shards geographically:

* :class:`RegionMap` is the layout ``FleetConfig.region_specs`` names,
  validated: disjoint regions covering exactly the mesh's nodes.
* :class:`RegionController` owns one region's runtime: a region-scoped
  :class:`~repro.core.netmonitor.NetMonitor` view (probe dedup and the
  headroom cache are per-region; startup floods and epoch probing never
  cross a region boundary) and the local claims board its tenants
  arbitrate against.

Claims are *eventually consistent*: while a fleet round is in flight,
each region sees only its own claims plus the fleet arbiter's published
board from the previous round (other regions' claims arrive one round
late).  Conflicting same-round claims from different regions are
resolved after the fact by the arbiter's (severity, epoch, region)
ordering — see :class:`~repro.core.controlplane.FleetArbiter`.

A migration whose only viable target lies in another region is not
executed locally; the region queues a :class:`HandoffRequest` that the
fleet layer brokers through the two-phase handoff protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..errors import TopologyError
from ..mesh.topology import MeshTopology
from ..obs.trace import TracerBase, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .netmonitor import NetMonitor


@dataclass(frozen=True)
class RegionSpec:
    """One region: a name and the set of mesh nodes it owns."""

    name: str
    nodes: frozenset[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("region name must be non-empty")
        if not self.nodes:
            raise TopologyError(f"region {self.name!r} has no nodes")


class RegionMap:
    """A validated, disjoint partition of a mesh into named regions."""

    def __init__(self, specs: Sequence[RegionSpec]) -> None:
        if not specs:
            raise TopologyError("a region map needs at least one region")
        self._specs: dict[str, RegionSpec] = {}
        self._region_of: dict[str, str] = {}
        for spec in sorted(specs, key=lambda s: s.name):
            if spec.name in self._specs:
                raise TopologyError(f"duplicate region {spec.name!r}")
            for node in spec.nodes:
                if node in self._region_of:
                    raise TopologyError(
                        f"node {node!r} is in both region "
                        f"{self._region_of[node]!r} and {spec.name!r}"
                    )
                self._region_of[node] = spec.name
            self._specs[spec.name] = spec

    @property
    def names(self) -> list[str]:
        """Region names in deterministic (sorted) order."""
        return list(self._specs)

    @property
    def specs(self) -> list[RegionSpec]:
        return list(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, name: str) -> RegionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise TopologyError(f"unknown region {name!r}") from None

    def region_of(self, node: str) -> str:
        try:
            return self._region_of[node]
        except KeyError:
            raise TopologyError(
                f"node {node!r} belongs to no region"
            ) from None

    def validate_covers(self, topology: MeshTopology) -> "RegionMap":
        """Assert the map's nodes are exactly the topology's: every
        topology node in one region, and no region naming a node the
        mesh does not have."""
        missing = [
            name for name in topology.node_names if name not in self._region_of
        ]
        if missing:
            raise TopologyError(f"nodes missing from region map: {missing}")
        unknown = sorted(set(self._region_of) - set(topology.node_names))
        if unknown:
            raise TopologyError(
                f"region {self._region_of[unknown[0]]!r} names node "
                f"{unknown[0]!r}, which the mesh does not have"
            )
        return self

    def home_of_nodes(self, nodes: Iterable[str]) -> str:
        """The region hosting the most of ``nodes`` (ties: region order).

        Used to home a tenant: the region where the majority of its pods
        live runs its observe/plan/act loop.
        """
        counts: dict[str, int] = {}
        for node in nodes:
            region = self.region_of(node)
            counts[region] = counts.get(region, 0) + 1
        if not counts:
            raise TopologyError("cannot home a tenant with no placed pods")
        return min(counts, key=lambda name: (-counts[name], name))

    @staticmethod
    def from_config(topology: MeshTopology, fleet_config) -> "RegionMap":
        """Build the map a ``FleetConfig`` describes: its explicit specs,
        or one region named ``region0`` holding every node."""
        specs = fleet_config.region_specs
        if specs is None:
            specs = (("region0", sorted(topology.node_names)),)
        return RegionMap(
            [RegionSpec(name, frozenset(nodes)) for name, nodes in specs]
        ).validate_covers(topology)


# -- claims and handoffs -------------------------------------------------------


@dataclass(frozen=True)
class RegionClaim:
    """One region-local migration claim, en route to the arbiter."""

    time: float
    epoch: int
    region: str
    app: str
    component: str
    node: str
    severity: float


@dataclass
class HandoffRequest:
    """A migration whose target lies outside the source region.

    The record walks the two-phase protocol:

    ``requested`` → ``released`` → ``admitted`` → ``committed``

    with ``denied`` (the arbiter's claim ordering gave the target to a
    higher-priority claimant) and ``aborted`` (the destination could not
    admit — node down, ledger full, or the pod moved meanwhile) as the
    failure exits.  The single ledger mutation is the atomic
    ``Orchestrator.migrate`` at admit time, so the cluster ledger is
    clean in every phase.
    """

    epoch: int
    source_region: str
    target_region: str
    app: str
    component: str
    source_node: str
    target_node: str
    severity: float
    requested_at: float
    phase: str = "requested"
    completed_at: Optional[float] = None
    #: Migration reason passed through to the orchestrator's restart
    #: record ("cross-region handoff", or "crash recovery" when the
    #: recovery coordinator escalates across regions).
    reason: str = "cross-region handoff"
    #: Why a denied/aborted handoff failed.
    note: str = ""
    request_event: Optional[int] = None
    release_event: Optional[int] = None

    @property
    def latency_s(self) -> Optional[float]:
        """Request-to-commit latency (None until committed)."""
        if self.phase != "committed" or self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


class RegionController:
    """One region's control-plane runtime.

    The claims board for the region's nodes — migrations and crash
    recoveries claim there (``nodes_claimed_by_others`` / ``claim`` /
    ``note_choice``) — backed by an *eventually consistent* view: the
    region's own claims this round plus the arbiter's published board
    from the previous round.  Other regions' in-flight claims are
    invisible until the arbiter resolves them — that is the consistency
    the fleet trades for lock-free regional autonomy.
    """

    def __init__(
        self,
        spec: RegionSpec,
        monitor: "NetMonitor",
        *,
        region_map: RegionMap,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.spec = spec
        self.monitor = monitor
        self.region_map = region_map
        self.tracer = resolve_tracer(tracer)
        self.epoch = 0
        #: node -> app, this region's claims in the current round.
        self._local_claims: dict[str, str] = {}
        #: node -> (region, app), other regions' published claims
        #: (one round stale — the eventual-consistency window).
        self._stale_claims: dict[str, tuple[str, str]] = {}
        self._batch: list[RegionClaim] = []
        self._conflict_count = 0
        self._handoff_queue: list[HandoffRequest] = []
        self._pending_handoffs: set[tuple[str, str]] = set()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def nodes(self) -> frozenset[str]:
        return self.spec.nodes

    # -- round lifecycle ---------------------------------------------------

    def begin_round(
        self, epoch: int, published: dict[str, tuple[str, str]]
    ) -> None:
        """Start a fleet round: adopt the arbiter's (stale) board.

        ``published`` maps node -> (region, app) for claims the arbiter
        resolved last round; entries from *this* region are dropped —
        the region has fresher local knowledge of its own claims.
        """
        self.epoch = epoch
        self._local_claims = {}
        self._stale_claims = {
            node: owner
            for node, owner in published.items()
            if owner[0] != self.name
        }
        self._batch = []
        self._conflict_count = 0

    def drain_batch(self) -> list[RegionClaim]:
        """The round's claim batch, for async submission to the arbiter."""
        batch, self._batch = self._batch, []
        return batch

    def drain_conflicts(self) -> int:
        """The round's conflict count, for the arbiter's tally."""
        count, self._conflict_count = self._conflict_count, 0
        return count

    # -- claims-board interface ---------------------------------------------

    def nodes_claimed_by_others(self, app: str) -> set[str]:
        """Nodes this tenant must select around: the region's own claims
        by other apps, plus last round's published cross-region claims."""
        local = {
            node
            for node, owner in self._local_claims.items()
            if owner != app
        }
        stale = {
            node
            for node, (_, owner_app) in self._stale_claims.items()
            if owner_app != app
        }
        return local | stale

    def claim(
        self, time: float, app: str, component: str, node: str, severity: float
    ) -> None:
        """Hold ``node`` for ``app`` this round; the claim rides the
        round's batch to the arbiter, ordered there by ``severity``."""
        self._local_claims[node] = app
        self._batch.append(
            RegionClaim(
                time=time,
                epoch=self.epoch,
                region=self.name,
                app=app,
                component=component,
                node=node,
                severity=severity,
            )
        )

    def note_choice(
        self,
        kind: str,
        time: float,
        component: str,
        granted: Optional[str],
        preferred: Optional[str],
        *,
        cause: Optional[int] = None,
    ) -> None:
        """Count a choice this board's claims deflected (``select_target``
        preferred another node than it granted) as a conflict, traced as
        ``<kind>.deflected``."""
        if preferred is None or preferred == granted:
            return
        self._conflict_count += 1
        if self.tracer.enabled:
            self.tracer.emit(
                f"{kind}.deflected",
                time,
                cause=cause,
                component=component,
                preferred=preferred,
                granted=granted,
            )

    # -- cross-region handoffs ---------------------------------------------

    def has_pending_handoff(self, app: str, component: str) -> bool:
        return (app, component) in self._pending_handoffs

    def queue_handoff(
        self,
        *,
        time: float,
        app: str,
        component: str,
        source_node: str,
        target_node: str,
        severity: float,
        cause: Optional[int] = None,
        reason: str = "cross-region handoff",
        enqueue: bool = True,
    ) -> HandoffRequest:
        """Record a cross-region migration wish for the fleet broker.

        ``enqueue=False`` keeps the request out of the round queue for
        callers that broker it immediately (crash recovery does not
        wait for the next fleet round).
        """
        target_region = self.region_map.region_of(target_node)
        request = HandoffRequest(
            epoch=self.epoch,
            source_region=self.name,
            target_region=target_region,
            app=app,
            component=component,
            source_node=source_node,
            target_node=target_node,
            severity=severity,
            requested_at=time,
            reason=reason,
        )
        if self.tracer.enabled:
            request.request_event = self.tracer.emit(
                "handoff.requested",
                time,
                app=app,
                cause=cause,
                component=component,
                source_region=self.name,
                target_region=target_region,
                source_node=source_node,
                target_node=target_node,
                severity=severity,
            )
        if enqueue:
            self._handoff_queue.append(request)
        self._pending_handoffs.add((app, component))
        return request

    @property
    def queued_handoffs(self) -> int:
        return len(self._handoff_queue)

    def drain_handoffs(self) -> list[HandoffRequest]:
        queue, self._handoff_queue = self._handoff_queue, []
        return queue

    def handoff_settled(self, request: HandoffRequest) -> None:
        """The broker reached a terminal phase; the component may try
        again (locally or via a fresh handoff) next round."""
        self._pending_handoffs.discard((request.app, request.component))

    # -- live status -------------------------------------------------------

    def health(self, down_nodes: Iterable[str]) -> dict:
        """This region's block of the status plane's ``status.json``:
        degraded whenever any owned node is down."""
        down = sorted(set(self.nodes) & set(down_nodes))
        return {
            "name": self.name,
            "health": "degraded" if down else "ok",
            "nodes": sorted(self.nodes),
            "down_nodes": down,
            "epoch": self.epoch,
            "pending_handoffs": len(self._pending_handoffs),
        }
