"""The region layer of the control plane.

Every mesh runs the regional fleet round; the paper's five-node figures
run it with one region spanning the mesh (``FleetConfig.regions``
defaults to 1).  City-scale meshes cannot afford one global
observe/plan/act loop: probe load and migration-decision latency both
grow with the number of nodes and tenants (see the decentralized
resource-mapping designs in PAPERS.md), so the same plane shards
geographically:

* :func:`partition_topology` deterministically splits a mesh into
  balanced, connectivity-aware regions (explicit layouts are supported
  through :class:`RegionSpec` / ``FleetConfig.region_specs``).
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

from collections import deque
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
        """Assert every topology node is assigned to exactly one region."""
        missing = [
            name for name in topology.node_names if name not in self._region_of
        ]
        if missing:
            raise TopologyError(f"nodes missing from region map: {missing}")
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
        """Build the map a ``FleetConfig`` describes (explicit specs win
        over the deterministic partitioner)."""
        if fleet_config.region_specs is not None:
            return RegionMap(
                [
                    RegionSpec(name, frozenset(nodes))
                    for name, nodes in fleet_config.region_specs
                ]
            ).validate_covers(topology)
        return partition_topology(topology, fleet_config.regions)


def partition_topology(
    topology: MeshTopology, n_regions: int, *, prefix: str = "region"
) -> RegionMap:
    """Deterministically partition a mesh into balanced regions.

    Seeds are chosen farthest-first over hop distance (ties by name, so
    the result is independent of hash seeds and insertion order), then
    regions grow by balanced BFS: each step, the smallest region claims
    the lexicographically-smallest unassigned node on its frontier.
    Disconnected leftovers fall to the smallest region, so the map
    always covers the whole mesh.

    Costs one BFS per seed after the first; the default one-region map
    is the node list, with no distance or frontier work at all.
    """
    names = sorted(topology.node_names)
    if n_regions < 1:
        raise TopologyError("n_regions must be >= 1")
    if n_regions > len(names):
        raise TopologyError(
            f"cannot split {len(names)} nodes into {n_regions} regions"
        )

    # Farthest-first seed selection: ``nearest`` is each node's hop
    # distance to its closest seed so far (unreachable: len(names)).
    seeds = [names[0]]
    nearest = dict.fromkeys(names, len(names))
    while len(seeds) < n_regions:
        for name, hops in _hop_distances(topology, seeds[-1]).items():
            nearest[name] = min(nearest[name], hops)
        seeds.append(
            min(
                (name for name in names if name not in seeds),
                key=lambda name: (-nearest[name], name),
            )
        )

    # A lone seed owns the whole mesh, so there is nothing left to grow.
    members: list[list[str]] = (
        [[seed] for seed in seeds] if n_regions > 1 else [names]
    )
    assigned: dict[str, int] = {
        node: i for i, nodes in enumerate(members) for node in nodes
    }
    frontiers: list[set[str]] = [
        {n for n in topology.neighbors(seed) if n not in assigned}
        for seed in seeds
    ]
    while len(assigned) < len(names):
        # The smallest region (ties: lowest index) grows next.
        order = sorted(range(n_regions), key=lambda i: (len(members[i]), i))
        grew = False
        for index in order:
            frontier = sorted(
                n for n in frontiers[index] if n not in assigned
            )
            if not frontier:
                continue
            node = frontier[0]
            assigned[node] = index
            members[index].append(node)
            frontiers[index] |= {
                n for n in topology.neighbors(node) if n not in assigned
            }
            grew = True
            break
        if not grew:
            # Disconnected remainder: smallest region takes the
            # smallest-named unassigned node.
            node = next(n for n in names if n not in assigned)
            index = order[0]
            assigned[node] = index
            members[index].append(node)
            frontiers[index] |= {
                n for n in topology.neighbors(node) if n not in assigned
            }
    return RegionMap(
        [
            RegionSpec(f"{prefix}{i}", frozenset(nodes))
            for i, nodes in enumerate(members)
        ]
    )


def _hop_distances(topology: MeshTopology, source: str) -> dict[str, int]:
    """Hop counts from ``source`` to every node it can reach (BFS)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in topology.neighbors(current):
            if neighbor not in dist:
                dist[neighbor] = dist[current] + 1
                queue.append(neighbor)
    return dist


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
    released_at: Optional[float] = None
    admitted_at: Optional[float] = None
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

    The claims board its tenants' controllers arbitrate against
    (``nodes_claimed_by_others`` / ``claim`` / ``record_conflict``),
    backed by an *eventually consistent* view: the region's own claims
    this round plus the arbiter's published board from the previous
    round.  Other regions' in-flight claims are invisible until the
    arbiter resolves them — that is the consistency the fleet trades
    for lock-free regional autonomy.
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
        self._acting_app: Optional[str] = None
        self._acting_severity: float = 0.0
        self._acting_component: dict[str, str] = {}

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

    def set_acting_context(self, app: str, severity: float) -> None:
        """Stamp subsequent claims with the acting tenant's severity."""
        self._acting_app = app
        self._acting_severity = severity

    def clear_acting_context(self) -> None:
        self._acting_app = None
        self._acting_severity = 0.0

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

    def claim(self, time: float, app: str, component: str, node: str) -> None:
        self._local_claims[node] = app
        severity = (
            self._acting_severity if app == self._acting_app else 0.0
        )
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

    def record_conflict(self) -> None:
        self._conflict_count += 1

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
