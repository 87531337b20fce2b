"""The control plane: one regional fleet round per mesh.

The paper's evaluation (§6) co-deploys up to three applications on one
mesh.  Each application owns its DAG, deployment binding, and
:class:`~repro.core.controller.BandwidthController`; everything that
touches the *shared substrate* is owned once per mesh by a
:class:`ControlPlane`.  There is one of it: the five-node figures and
the city-scale fleet run the same epoch and differ only in how many
regions the mesh is cut into (``FleetConfig.regions``, default one
region spanning the mesh).

* **Shared net-monitor** — one :class:`~repro.core.netmonitor.NetMonitor`
  per mesh, probed through region-scoped views: startup max-capacity
  floods respect one fleet-wide per-link cooldown and headroom probes
  are deduplicated per link per epoch regardless of tenant count.
* **Epoch loop** — tenants with the same probing cadence share one
  periodic task, the only timer that drives a controller.  Each epoch
  is a *fleet round*: region by region, every tenant ``observe``s (flow
  sync + shared probing), ``plan``s (violation detection), then tenants
  ``act`` (migration), highest violation severity first, ties by
  application name.
* **Claims** — a migration claims its target node on the home region's
  board for the round and co-tenants select around it, so two tenants
  never race their restarts onto one node inside a round.  The
  :class:`FleetArbiter` orders the regions' claim batches, records
  collisions and deflections as conflicts, publishes the winners for
  the next round, and brokers cross-region moves as two-phase handoffs.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Mapping, Optional

from ..cluster.orchestrator import ClusterState, Orchestrator
from ..config import FleetConfig, ProbeConfig
from ..errors import MigrationError, SchedulingError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from .controller import BandwidthController, ControllerIteration
from .netmonitor import NetMonitor
from .regions import (
    HandoffRequest,
    RegionClaim,
    RegionController,
    RegionMap,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.detector import FailureDetector
    from ..faults.recovery import RecoveryCoordinator
    from ..obs.status import StatusPublisher
    from ..sim.engine import Engine, PeriodicTask

_EPSILON = 1e-9


class FleetArbiter:
    """The fleet-level migration arbiter.

    Regions act autonomously against their local boards and submit
    *claim batches* asynchronously.  :meth:`resolve` orders all pending
    claims by ``(severity desc, epoch, region, app, component)`` without
    any global lock; losers of a same-node race are recorded as
    conflicts, and the winning claims are *published* — regions see
    them at their next round, one round late.  Hard resource safety
    never depends on this: the cluster ledger's atomic ``can_fit`` check
    guards every migration regardless of claim ordering.

    Cross-region migrations additionally go through the two-phase
    handoff protocol (:class:`~repro.core.regions.HandoffRequest`),
    tracked on :attr:`handoffs`.

    The arbiter also keeps the **recovery board** — the synchronous
    ``begin_epoch`` / ``nodes_claimed_by_others`` / ``claim`` trio.  A
    crash recovery is its own arbitration round, fleet-wide and outside
    any region's round (:class:`~repro.faults.recovery.RecoveryCoordinator`):
    each re-placement claims its target, later tenants select around
    it, and the board clears when the next round begins.
    """

    def __init__(self) -> None:
        #: Claims admitted (recoveries and resolved region claims) and
        #: conflicts recorded, over the run; the trace has the details.
        self.claim_count = 0
        self.conflict_count = 0
        self.epoch_count = 0
        self._epoch_claims: dict[str, str] = {}  # node -> claiming app
        self._pending: list[RegionClaim] = []
        self._published: dict[str, RegionClaim] = {}  # node -> winner
        self.resolution_count = 0
        self.handoffs: list[HandoffRequest] = []

    def begin_epoch(self, time: float) -> None:
        """Count a round (fleet or recovery) and clear the recovery
        board."""
        self.epoch_count += 1
        self._epoch_claims = {}

    def nodes_claimed_by_others(self, app: str) -> set[str]:
        """Nodes another application was recovered onto this round."""
        return {
            node
            for node, owner in self._epoch_claims.items()
            if owner != app
        }

    def claim(self, time: float, app: str, component: str, node: str) -> None:
        """Record a recovery re-placement, claiming ``node`` this round."""
        self._epoch_claims[node] = app
        self.claim_count += 1

    def record_conflict(self) -> None:
        """Count one choice deflected, or one claim lost, to another
        tenant's claim (the trace event beside each call has who and
        where)."""
        self.conflict_count += 1

    # -- eventually-consistent claim epochs --------------------------------

    def submit_batch(self, batch: list[RegionClaim]) -> None:
        """Async ingest of one region's round claims (no lock, no
        ordering yet — resolution happens at :meth:`resolve`)."""
        self._pending.extend(batch)

    def resolve(
        self, time: float
    ) -> list[tuple[RegionClaim, RegionClaim]]:
        """Order all pending claims and publish the winners' board.

        Claims are totally ordered by ``(-severity, epoch, region, app,
        component)``; the first claim on each node wins the published
        slot.  A losing claim's migration *already executed* (regions
        do not wait for permission — that is the eventual-consistency
        trade) — the loss is recorded as a conflict so the contention is
        visible, and the loser gets no published protection for the
        node.  Returns ``(loser, winner)`` pairs.
        """
        ordered = sorted(
            self._pending,
            key=lambda c: (-c.severity, c.epoch, c.region, c.app, c.component),
        )
        board: dict[str, RegionClaim] = {}
        collisions: list[tuple[RegionClaim, RegionClaim]] = []
        self.claim_count += len(ordered)
        for claim in ordered:
            held = board.get(claim.node)
            if held is None:
                board[claim.node] = claim
            elif held.region != claim.region or held.app != claim.app:
                self.record_conflict()
                collisions.append((claim, held))
        self._pending = []
        self._published = board
        self.resolution_count += 1
        return collisions

    def published_claims(self) -> dict[str, tuple[str, str]]:
        """node -> (region, app) winners of the last resolution — the
        (one round stale) view regions arbitrate against."""
        return {
            node: (claim.region, claim.app)
            for node, claim in self._published.items()
        }

    def board_claim(self, node: str) -> Optional[RegionClaim]:
        return self._published.get(node)

    # -- two-phase handoff bookkeeping -------------------------------------

    def reserve_for_handoff(self, request: HandoffRequest) -> None:
        """Pin the target node on the published board while the handoff
        is in flight, so no other claim or handoff grabs it."""
        self._published[request.target_node] = RegionClaim(
            time=request.requested_at,
            epoch=request.epoch,
            region=request.target_region,
            app=request.app,
            component=request.component,
            node=request.target_node,
            severity=request.severity,
        )

    def release_handoff_reservation(self, request: HandoffRequest) -> None:
        held = self._published.get(request.target_node)
        if (
            held is not None
            and held.app == request.app
            and held.component == request.component
        ):
            del self._published[request.target_node]

    def handoff_counts(self) -> dict[str, int]:
        """Handoff records by terminal/current phase."""
        counts: dict[str, int] = {}
        for request in self.handoffs:
            counts[request.phase] = counts.get(request.phase, 0) + 1
        return counts


def check_cluster_ledger(cluster: ClusterState) -> None:
    """Assert no node's ledger is over-allocated (never goes negative).

    Raises:
        SchedulingError: naming the offending node, should any
            orchestration path ever oversubscribe CPU or memory.
    """
    for node in cluster.schedulable_nodes():
        allocated = node.allocated
        capacity = node.capacity
        if (
            allocated.cpu > capacity.cpu + _EPSILON
            or allocated.memory_mb > capacity.memory_mb + _EPSILON
        ):
            raise SchedulingError(
                f"ledger violation: node {node.node_name!r} allocated "
                f"{allocated} beyond capacity {capacity}"
            )


class ControlPlane:
    """Owns the region map, shared monitor, epoch loop, and arbiter for
    one mesh.

    The region map is computed here, from the topology as it stands: a
    node added to the topology afterwards belongs to no region.

    Args:
        netem: the mesh's network emulator (its engine drives epochs).
        orchestrator: executes migrations; supplies the cluster ledger.
        config: fleet-level knobs; defaults share probes across one
            region spanning the mesh.
    """

    def __init__(
        self,
        netem: NetworkEmulator,
        orchestrator: Orchestrator,
        *,
        config: Optional[FleetConfig] = None,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.netem = netem
        self.orchestrator = orchestrator
        self.tracer = resolve_tracer(tracer)
        self.config = (config if config is not None else FleetConfig()).validate()
        self.arbiter = FleetArbiter()
        self._monitor: Optional[NetMonitor] = None
        self._controllers: dict[str, BandwidthController] = {}
        self._tasks: dict[float, "PeriodicTask"] = {}
        self.recovery: Optional["RecoveryCoordinator"] = None
        self.region_map = RegionMap.from_config(netem.topology, self.config)
        self._regions: dict[str, RegionController] = {}
        self._home_region: dict[str, str] = {}
        #: Per-fleet-round decision latency: max over regions of the
        #: (plan + act) wall time, plus the arbiter's resolution time —
        #: the fleet-level latency had regions run in parallel.
        self.epoch_decision_seconds: list[float] = []
        #: Fleet epochs completed; drives the status publisher's
        #: k-epoch cadence.
        self.epoch_count = 0
        #: Optional live status plane (see repro.obs.status); None by
        #: default, so batch experiments run byte-identical to seed.
        self.status: Optional["StatusPublisher"] = None
        #: Optional checkpoint policy (see repro.snap.policy); None by
        #: default, so batch experiments run byte-identical to seed.
        self.checkpoints = None
        #: Orchestrator-failover state: while suspended, no epoch task
        #: fires and recoveries are deferred (see faults.injector's
        #: OrchestratorKill handling).
        self.suspended = False
        self._suspended_intervals: list[float] = []
        #: (down_at, up_at) per outage; up_at is None while still down.
        self.outages: list[tuple[float, Optional[float]]] = []

    # -- accessors ---------------------------------------------------------

    @property
    def engine(self) -> "Engine":
        return self.netem.engine

    @property
    def monitor(self) -> Optional[NetMonitor]:
        """The shared fleet monitor (None until the first tenant)."""
        return self._monitor

    @property
    def tenants(self) -> list[str]:
        """Managed application names, in registration order."""
        return list(self._controllers)

    def region_controller(self, name: str) -> RegionController:
        """The named region's runtime (created on first use)."""
        region = self._regions.get(name)
        if region is None:
            spec = self.region_map.spec(name)
            region = RegionController(
                spec,
                self._fleet_monitor().region_view(name, spec.nodes),
                region_map=self.region_map,
                tracer=self.tracer,
            )
            self._regions[name] = region
        return region

    def home_region(self, app: str) -> Optional[str]:
        """The region running this tenant's control loop (None for an
        app this plane does not manage)."""
        return self._home_region.get(app)

    def controller(self, app: str) -> BandwidthController:
        try:
            return self._controllers[app]
        except KeyError:
            raise SchedulingError(
                f"app {app!r} is not managed by this control plane"
            ) from None

    # -- monitor sharing ---------------------------------------------------

    def _fleet_monitor(
        self, probe_config: Optional[ProbeConfig] = None
    ) -> NetMonitor:
        """The one fleet monitor, created on first use — from the first
        tenant's probe configuration when a tenant is what asked."""
        if self._monitor is None:
            self._monitor = NetMonitor(
                self.netem, probe_config, tracer=self.tracer
            )
        return self._monitor

    def monitor_for(
        self,
        probe_config: Optional[ProbeConfig],
        *,
        assignments: Optional[Mapping[str, str]] = None,
    ) -> NetMonitor:
        """The monitor a new tenant should use.

        ``assignments`` (the tenant's pod → node map) routes the tenant
        to its home region, so its startup flood and epoch probing stay
        inside the region; without it the monitor spans the mesh.

        With probe sharing on, every tenant of a region gets that
        region's view of the one fleet monitor (created from the *first*
        tenant's probe configuration — later tenants share its cadence
        parameters).  Otherwise each call returns a fresh private
        monitor with its own caches, scoped the same way.
        """
        home = (
            self.region_map.home_of_nodes(assignments.values())
            if assignments
            else None
        )
        if self.config.probe_sharing:
            monitor = self._fleet_monitor(probe_config)
            return (
                monitor if home is None else self.region_controller(home).monitor
            )
        return NetMonitor(
            self.netem,
            probe_config,
            tracer=self.tracer,
            region=home or "",
            scope=None if home is None else self.region_map.spec(home).nodes,
        )

    # -- crash recovery ----------------------------------------------------

    def enable_recovery(
        self, detector: "FailureDetector"
    ) -> "RecoveryCoordinator":
        """Wire a failure detector's confirmations into crash recovery.

        Pods on a node the detector confirms dead are evicted and
        re-placed on surviving nodes through the migration machinery,
        arbitrated by the fleet arbiter across tenants.  Returns the
        coordinator (also kept on ``self.recovery``).
        """
        from ..faults.recovery import RecoveryCoordinator

        if self.recovery is None:
            self.recovery = RecoveryCoordinator(self, tracer=self.tracer)
        detector.on_confirmed_dead(self.recovery.recover_from)
        return self.recovery

    # -- tenant lifecycle --------------------------------------------------

    def register(self, controller: BandwidthController) -> None:
        """Adopt a controller into the fleet epoch loop.

        The tenant is homed in the region hosting most of its pods.
        Tenants sharing a ``headroom_interval_s`` share one periodic
        task; a new cadence arms a new task starting now.
        """
        app = controller.app
        if app in self._controllers:
            raise SchedulingError(
                f"app {app!r} is already managed by this control plane"
            )
        self._controllers[app] = controller
        self._assign_home(controller)
        interval = controller.config.probe.headroom_interval_s
        if interval not in self._tasks and not self.suspended:
            self._tasks[interval] = self.engine.every(
                interval, partial(self.run_epoch, interval)
            )
        if self.suspended and interval not in self._suspended_intervals:
            self._suspended_intervals.append(interval)

    def _assign_home(
        self, controller: BandwidthController, cause: Optional[int] = None
    ) -> None:
        """(Re)home a tenant in the region hosting most of its pods.

        Homing follows the pods: after a cross-region handoff shifts the
        majority, the tenant's control loop — and its region-scoped
        monitor — move with them.  A private monitor (probe sharing
        off) is the tenant's own from deployment on; only a re-home
        re-scopes it, keeping its caches.
        """
        app = controller.app
        deployment = self.orchestrator.deployment(app)
        home = self.region_map.home_of_nodes(deployment.bindings.values())
        previous = self._home_region.get(app)
        if previous == home:
            return
        self._home_region[app] = home
        region = self.region_controller(home)
        controller.region = region
        if self.config.probe_sharing:
            controller.monitor = region.monitor
        elif previous is not None:
            controller.monitor = controller.monitor.region_view(
                home, region.nodes
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "region.assigned",
                self.netem.now,
                app=app,
                cause=cause,
                region=home,
                previous=previous,
                nodes=sorted(region.nodes),
            )

    def deregister(self, app: str) -> None:
        """Drop a tenant (e.g. on teardown); idle cadences are disarmed."""
        controller = self._controllers.pop(app, None)
        self._home_region.pop(app, None)
        if controller is None:
            return
        interval = controller.config.probe.headroom_interval_s
        still_used = any(
            c.config.probe.headroom_interval_s == interval
            for c in self._controllers.values()
        )
        if not still_used and interval in self._tasks:
            self._tasks.pop(interval).stop()

    def stop(self) -> None:
        """Disarm every epoch task (tenants stay registered)."""
        for task in self._tasks.values():
            task.stop()
        self._tasks = {}

    # -- the fleet epoch ---------------------------------------------------

    def run_epoch(
        self, interval: Optional[float] = None
    ) -> list[ControllerIteration]:
        """One fleet epoch over the tenants of one probing cadence: a
        fleet round (:meth:`_run_fleet_round`), then the end-of-epoch
        hooks.  With ``interval=None`` all tenants participate (manual
        driving).
        """
        group = [
            controller
            for controller in self._controllers.values()
            if interval is None
            or controller.config.probe.headroom_interval_s == interval
        ]
        if not group:
            return []
        iterations = self._run_fleet_round(group)
        self._end_epoch()
        return iterations

    def attach_status(self, publisher: "StatusPublisher") -> None:
        """Opt in to the live status plane: ``publisher.on_epoch`` fires
        at the end of every fleet epoch.  Never attached by the batch
        experiments, whose output stays byte-identical to seed."""
        self.status = publisher

    def attach_checkpoints(self, policy) -> None:
        """Opt in to periodic checkpointing: ``policy.on_epoch`` fires
        at the end of every fleet epoch (see repro.snap.policy).  Never
        attached by plain batch runs, which stay byte-identical."""
        self.checkpoints = policy

    def _end_epoch(self) -> None:
        self.epoch_count += 1
        if self.status is not None:
            self.status.on_epoch(self.netem.now, self.epoch_count)
        if self.checkpoints is not None:
            self.checkpoints.on_epoch(self.netem.now, self.epoch_count)

    # -- orchestrator failover ---------------------------------------------

    def suspend(self) -> None:
        """The orchestrator process dies: disarm every epoch task and
        defer recovery decisions until :meth:`resume`.

        The substrate is untouched — flows keep flowing, the failure
        detector keeps beating.  Only decision making stops.
        """
        if self.suspended:
            return
        self.suspended = True
        self._suspended_intervals = sorted(self._tasks)
        self.outages.append((self.netem.now, None))
        self.stop()
        if self.tracer.enabled:
            self.tracer.emit(
                "orchestrator.suspended",
                self.netem.now,
                epoch=self.epoch_count,
                cadences=list(self._suspended_intervals),
            )

    def resume(self) -> list:
        """The orchestrator comes back: re-arm the epoch cadences (first
        firing one full interval from now, like a fresh boot) and drain
        recoveries that were confirmed during the outage.  Returns the
        recovery actions taken by the drain."""
        if not self.suspended:
            return []
        self.suspended = False
        down_at, _ = self.outages[-1]
        self.outages[-1] = (down_at, self.netem.now)
        for interval in self._suspended_intervals:
            self._tasks[interval] = self.engine.every(
                interval, partial(self.run_epoch, interval)
            )
        self._suspended_intervals = []
        if self.tracer.enabled:
            self.tracer.emit(
                "orchestrator.resumed",
                self.netem.now,
                epoch=self.epoch_count,
                outage_s=self.netem.now - down_at,
            )
        if self.recovery is not None:
            return self.recovery.drain_deferred()
        return []

    # -- the fleet round ---------------------------------------------------

    def _run_fleet_round(
        self, group: list[BandwidthController]
    ) -> list[ControllerIteration]:
        """One fleet round: every region runs its local observe/plan/act
        (each link probed at most once per region, tenants acting worst
        violation first) against its eventually-consistent claim view,
        then the arbiter resolves the round's claim batches and brokers
        handoffs.

        The recorded decision latency is ``max`` over the regions' plan
        + act wall time (regions are independent — a real fleet runs
        them in parallel) plus the arbiter's resolution time.
        """
        arbiter = self.arbiter
        now = self.netem.now
        arbiter.begin_epoch(now)
        epoch = arbiter.epoch_count
        published = arbiter.published_claims()
        by_region: dict[str, list[BandwidthController]] = {}
        for controller in group:
            by_region.setdefault(
                self._home_region[controller.app], []
            ).append(controller)
        iterations: list[ControllerIteration] = []
        region_decision = 0.0
        batch_events: dict[str, int] = {}
        for name in sorted(by_region):
            region = self.region_controller(name)
            tenants = by_region[name]
            region.begin_round(epoch, published)
            shared_probed: Optional[set[tuple[str, str]]] = (
                set() if self.config.probe_sharing else None
            )
            for controller in tenants:
                controller.observe(shared_probed=shared_probed)
            started = perf_counter()
            ranked = sorted(
                ((controller.plan(), controller) for controller in tenants),
                key=lambda pair: (-pair[0], pair[1].app),
            )
            for severity, controller in ranked:
                region.set_acting_context(controller.app, severity)
                iterations.append(controller.act())
            region.clear_acting_context()
            batch = region.drain_batch()
            arbiter.submit_batch(batch)
            if self.tracer.enabled and batch:
                batch_events[name] = self.tracer.emit(
                    "claim.batch",
                    now,
                    epoch=epoch,
                    region=name,
                    claims=[
                        {"app": c.app, "node": c.node, "severity": c.severity}
                        for c in batch
                    ],
                )
            arbiter.conflict_count += region.drain_conflicts()
            region_decision = max(region_decision, perf_counter() - started)
            if self.tracer.enabled:
                self.tracer.emit(
                    "region.epoch",
                    now,
                    epoch=epoch,
                    region=name,
                    tenants=len(tenants),
                    claims=len(batch),
                    handoffs=region.queued_handoffs,
                    max_severity=ranked[0][0] if ranked else 0.0,
                )
        started = perf_counter()
        self._resolve_claims(epoch, now, batch_events)
        self._broker_handoffs()
        self.epoch_decision_seconds.append(
            region_decision + (perf_counter() - started)
        )
        check_cluster_ledger(self.orchestrator.cluster)
        return iterations

    def _resolve_claims(
        self, epoch: int, now: float, batch_events: dict[str, int]
    ) -> None:
        """Arbiter resolution: order the round's claim batches, record
        cross-region collisions, publish the winners."""
        collisions = self.arbiter.resolve(now)
        if self.tracer.enabled:
            for loser, winner in collisions:
                self.tracer.emit(
                    "claim.conflict",
                    now,
                    app=loser.app,
                    epoch=epoch,
                    cause=batch_events.get(loser.region),
                    node=loser.node,
                    loser_region=loser.region,
                    winner_app=winner.app,
                    winner_region=winner.region,
                    loser_severity=loser.severity,
                    winner_severity=winner.severity,
                )

    # -- two-phase cross-region handoffs -----------------------------------

    def _broker_handoffs(self) -> None:
        """Review the round's handoff requests in fleet claim order."""
        requests: list[HandoffRequest] = []
        for name in sorted(self._regions):
            requests.extend(self._regions[name].drain_handoffs())
        requests.sort(
            key=lambda r: (
                -r.severity,
                r.epoch,
                r.source_region,
                r.app,
                r.component,
            )
        )
        for request in requests:
            self._review_handoff(request)

    def _review_handoff(
        self, request: HandoffRequest, *, synchronous: bool = False
    ) -> None:
        """Phase 1+2: the arbiter checks its board and releases the
        source's stake; the destination admit runs one control RTT
        later (immediately when ``synchronous`` or the RTT is zero)."""
        arbiter = self.arbiter
        now = self.netem.now
        arbiter.handoffs.append(request)
        held = arbiter.board_claim(request.target_node)
        if held is not None and (
            held.app != request.app or held.component != request.component
        ):
            request.phase = "denied"
            request.completed_at = now
            request.note = (
                f"target held by {held.app!r} ({held.region})"
            )
            arbiter.record_conflict()
            if self.tracer.enabled:
                self.tracer.emit(
                    "handoff.denied",
                    now,
                    app=request.app,
                    cause=request.request_event,
                    component=request.component,
                    node=request.target_node,
                    holder_app=held.app,
                    holder_region=held.region,
                )
            self._settle_handoff(request)
            return
        request.phase = "released"
        request.released_at = now
        if self.tracer.enabled:
            request.release_event = self.tracer.emit(
                "handoff.released",
                now,
                app=request.app,
                cause=request.request_event,
                component=request.component,
                source_region=request.source_region,
                target_region=request.target_region,
                source_node=request.source_node,
                target_node=request.target_node,
            )
        arbiter.reserve_for_handoff(request)
        delay = self.config.handoff_rtt_s
        if synchronous or delay <= 0:
            self._admit_handoff(request)
        else:
            self.engine.schedule_in(
                delay, partial(self._admit_handoff, request)
            )

    def _admit_handoff(self, request: HandoffRequest) -> None:
        """Phase 3: the destination region admits (or aborts) the move.

        The only ledger mutation is the single atomic
        ``Orchestrator.migrate`` below, so ``check_cluster_ledger``
        holds before, between, and after every handoff phase.
        """
        if request.phase != "released":
            return
        now = self.netem.now
        app = request.app
        controller = self._controllers.get(app)
        abort_note: Optional[str] = None
        if controller is None:
            abort_note = "tenant deregistered during handoff"
        else:
            deployment = self.orchestrator.deployment(app)
            if deployment.node_of(request.component) != request.source_node:
                abort_note = "component moved during handoff"
            elif request.target_node in self.netem.topology.down_nodes:
                abort_note = "target node went down"
            else:
                refusal = self.orchestrator.can_admit(
                    app, request.component, request.target_node
                )
                if refusal is not None:
                    abort_note = f"destination cannot admit: {refusal}"
        if abort_note is None:
            restart = controller.migration_restart_s(
                request.component, request.target_node
            )
            admit_event = None
            if self.tracer.enabled:
                admit_event = self.tracer.emit(
                    "handoff.admitted",
                    now,
                    app=app,
                    cause=request.release_event,
                    component=request.component,
                    target_region=request.target_region,
                    target_node=request.target_node,
                    restart_s=restart,
                )
            request.phase = "admitted"
            request.admitted_at = now
            try:
                self.orchestrator.migrate(
                    app,
                    request.component,
                    request.target_node,
                    reason=request.reason,
                    restart_override_s=restart,
                    trace_cause=admit_event,
                )
            except MigrationError as error:
                abort_note = str(error)
            else:
                request.phase = "committed"
                request.completed_at = now
                controller.note_external_migration(request.component, now)
                controller.binding.sync_flows()
                self.engine.schedule_in(
                    restart + 1e-6, controller.binding.sync_flows
                )
                if self.tracer.enabled:
                    self.tracer.emit(
                        "handoff.committed",
                        now,
                        app=app,
                        cause=admit_event,
                        component=request.component,
                        source_region=request.source_region,
                        target_region=request.target_region,
                        node=request.target_node,
                        latency_s=request.latency_s,
                    )
                self._settle_handoff(request)
                self._assign_home(controller, cause=request.release_event)
                check_cluster_ledger(self.orchestrator.cluster)
                return
        request.phase = "aborted"
        request.completed_at = now
        request.note = abort_note
        self.arbiter.release_handoff_reservation(request)
        if self.tracer.enabled:
            self.tracer.emit(
                "handoff.aborted",
                now,
                app=app,
                cause=request.release_event or request.request_event,
                component=request.component,
                target_node=request.target_node,
                note=abort_note,
            )
        self._settle_handoff(request)
        check_cluster_ledger(self.orchestrator.cluster)

    def _settle_handoff(self, request: HandoffRequest) -> None:
        self._regions[request.source_region].handoff_settled(request)

    def broker_recovery_handoff(
        self, request: HandoffRequest
    ) -> Optional[str]:
        """Run the full two-phase handoff synchronously for a crash
        recovery; returns the granted node (None when denied/aborted)."""
        self._review_handoff(request, synchronous=True)
        return (
            request.target_node if request.phase == "committed" else None
        )
