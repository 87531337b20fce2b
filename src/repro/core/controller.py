"""The BASS bandwidth controller (§4.3).

Periodically (every headroom-probe interval) the controller:

1. runs *headroom probes* on the links the application's inter-node
   edges use; a headroom violation on a link whose cached capacity is
   stale escalates to a *max-capacity probe* of that link (Fig 8's
   "noticing a drop in the headroom capacity triggers a full probe");
2. collects goodput/headroom *violations* on every inter-node edge;
3. applies a *cooldown* — a component must stay in violation for a
   configured period before it may move, so transient dips don't cause
   migrations whose restart cost would never amortize;
4. runs Algorithm 3 to pick a cascade-free candidate set, selects a
   target node for each, and instructs the orchestrator to migrate.

Each evaluation is recorded as a :class:`ControllerIteration`, from
which Table 1 (candidates vs actually-migrated per iteration) and the
migration dots on Figs 12/13 are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster.orchestrator import Orchestrator
from ..config import BassConfig
from ..errors import MigrationError, RoutingError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from .binding import DeploymentBinding
from .migration import MigrationPlanner, Violation
from .netmonitor import NetMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .regions import RegionController


@dataclass
class ControllerIteration:
    """Record of one controller evaluation (one row of Table 1)."""

    time: float
    violations: list[Violation] = field(default_factory=list)
    components_over_quota: int = 0
    candidates: list[str] = field(default_factory=list)
    migrated: list[str] = field(default_factory=list)
    full_probes_triggered: int = 0


class BandwidthController:
    """Migration decision loop for one deployed application.

    Args:
        app: application name.
        orchestrator: executes the migrations.
        binding: deployment ↔ network synchronization and goodput source.
        monitor: net-monitor for probing and capacity caching.
        config: thresholds, headroom, intervals, cooldown.
        tracer: flight recorder for decision events; defaults to the
            process default (a no-op unless ``--trace`` installed one).
    """

    def __init__(
        self,
        app: str,
        orchestrator: Orchestrator,
        binding: DeploymentBinding,
        monitor: NetMonitor,
        config: Optional[BassConfig] = None,
        *,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.app = app
        self.orchestrator = orchestrator
        self.binding = binding
        self.monitor = monitor
        self.tracer = resolve_tracer(tracer)
        self.config = (config if config is not None else BassConfig()).validate()
        self.netem: NetworkEmulator = monitor.netem
        self.planner = MigrationPlanner(
            binding.dag,
            goodput_threshold=self.config.migration.goodput_threshold,
            link_utilization_threshold=(
                self.config.migration.link_utilization_threshold
            ),
            headroom_fraction=self.config.migration.headroom_fraction,
            improvement_margin=self.config.migration.improvement_margin,
        )
        self.iterations: list[ControllerIteration] = []
        self._violating_since: dict[str, float] = {}
        self._last_migrated_at: dict[str, float] = {}
        #: Minimum residency before the same component may move again —
        #: a guard against ping-pong under sustained congestion.  The
        #: default sizes it so the post-restart state is observed at
        #: least once: one probe interval past the restart the
        #: orchestrator charges.  Configs may raise it for
        #: slow-amortizing apps.
        if self.config.migration.min_residency_s is not None:
            self.min_residency_s = self.config.migration.min_residency_s
        else:
            self.min_residency_s = (
                self.config.probe.headroom_interval_s
                + orchestrator.restart_seconds
            )
        self._pending: Optional[ControllerIteration] = None
        self._pending_violations: list[Violation] = []
        self._epoch_seq = 0
        self._pending_plan_event: Optional[int] = None
        #: Region this tenant is homed in, set when the control plane
        #: registers it.  Target selection is restricted to the region's
        #: nodes, migrations claim their target on the region's board,
        #: and out-of-region escapes become handoff requests brokered by
        #: the fleet arbiter.  None for a controller nobody registered,
        #: which still evaluates — unarbitrated, over the whole mesh.
        self.region: Optional["RegionController"] = None

    # -- one evaluation -----------------------------------------------------------
    #
    # An evaluation runs in three phases so the multi-tenant control
    # plane can interleave them across applications: ``observe`` (flow
    # sync + probing, sharing a region-wide probed-link set), ``plan``
    # (violation detection and candidate selection), and ``act``
    # (migration, arbitrated on the home region's claims board).  The
    # plane's periodic epoch is the only timer; ``evaluate`` chains the
    # three for manual driving.

    def evaluate(self) -> ControllerIteration:
        """Run one monitoring/migration cycle; returns its record."""
        self.observe()
        self.plan()
        return self.act()

    def observe(
        self, shared_probed: Optional[set[tuple[str, str]]] = None
    ) -> ControllerIteration:
        """Phase 1: refresh flows and probe the app's links.

        Args:
            shared_probed: fleet-wide set of links already probed this
                epoch; links found there are skipped, and links probed
                here are added, so co-tenants never duplicate a probe
                within one epoch.  Defaults to a private (per-call) set.
        """
        now = self.netem.now
        iteration = ControllerIteration(time=now)
        self._pending = iteration
        self._pending_violations = []
        self._pending_plan_event = None
        self._epoch_seq += 1
        if self.tracer.enabled:
            # Probes fired below are attributed to this tenant's epoch.
            self.tracer.set_context(app=self.app, epoch=self._epoch_seq)
        # Refresh edge flows first: demands depend on component
        # availability (restart windows), which only this loop observes.
        self.binding.sync_flows()
        iteration.full_probes_triggered = self._probe_application_links(
            shared_probed
        )
        return iteration

    def plan(self) -> float:
        """Phase 2: detect violations and select migration candidates.

        Returns:
            The maximum violation severity (0 when in spec), which the
            fleet arbiter uses to order tenants within an epoch.
        """
        iteration = self._require_pending()
        if self.tracer.enabled:
            self.tracer.set_context(app=self.app, epoch=self._epoch_seq)
        if self.config.migrations_enabled:
            deployment = self.orchestrator.deployment(self.app)
            violations = self.planner.detect_violations(
                deployment,
                self.netem,
                goodput_of=self.binding.goodput,
                achieved_mbps_of=self.binding.achieved_mbps,
            )
            iteration.violations = violations
            over_quota = {v.component for v in violations} | {
                v.dependency for v in violations
            }
            iteration.components_over_quota = len(over_quota)
            iteration.candidates = self.planner.select_candidates(violations)
            self._update_cooldowns(over_quota, iteration.time)
            self._pending_violations = violations
            if self.tracer.enabled and violations:
                self._trace_plan(iteration, violations, deployment)
        return max(
            (v.severity for v in self._pending_violations), default=0.0
        )

    def _trace_plan(
        self,
        iteration: ControllerIteration,
        violations: list[Violation],
        deployment,
    ) -> None:
        """Record each violation (cause: the probe that measured the
        edge's path) and the epoch plan (cause: the worst violation)."""
        worst_event = None
        worst_severity = -1.0
        for violation in violations:
            event_id = self.tracer.emit(
                "violation.detected",
                iteration.time,
                cause=self._probe_cause(violation, deployment),
                component=violation.component,
                dependency=violation.dependency,
                goodput=violation.goodput,
                utilization=violation.utilization,
                available_mbps=violation.available_mbps,
                headroom_mbps=violation.headroom_mbps,
                severity=violation.severity,
            )
            if violation.severity > worst_severity:
                worst_severity = violation.severity
                worst_event = event_id
        self._pending_plan_event = self.tracer.emit(
            "epoch.plan",
            iteration.time,
            cause=worst_event,
            candidates=list(iteration.candidates),
            violations=len(violations),
            components_over_quota=iteration.components_over_quota,
            max_severity=worst_severity,
        )

    def _probe_cause(self, violation: Violation, deployment) -> Optional[int]:
        """The probe event that measured the violating edge's path."""
        src_node = deployment.node_of(violation.component)
        dst_node = deployment.node_of(violation.dependency)
        for a, b in self.monitor.links_of_path(src_node, dst_node):
            event_id = self.monitor.probe_event_id(a, b)
            if event_id is not None:
                return event_id
        return None

    def act(self) -> ControllerIteration:
        """Phase 3: migrate the planned candidates and record the epoch.

        Nodes claimed by *other* applications on the home region's board
        are excluded from target selection, and successful migrations
        claim their target there.
        """
        iteration = self._require_pending()
        now = iteration.time
        deployment = self.orchestrator.deployment(self.app)
        if self.tracer.enabled:
            self.tracer.set_context(app=self.app, epoch=self._epoch_seq)
        if self.config.migrations_enabled:
            violations = self._pending_violations
            budget = self.config.migration.max_per_iteration
            for component in iteration.candidates:
                if len(iteration.migrated) >= budget:
                    break
                if self._try_migrate(component, deployment, now):
                    iteration.migrated.append(component)
                    continue
                # The selected endpoint cannot move usefully (no target
                # improves its edges, or it just moved).  Fall back to a
                # violating partner — still migrating only one end of
                # the pair, which is Algorithm 3's invariant.
                for partner in self._violating_partners(
                    component, violations
                ):
                    if partner in iteration.migrated:
                        continue
                    if self._try_migrate(partner, deployment, now):
                        iteration.migrated.append(partner)
                        break
            if iteration.migrated:
                self.binding.sync_flows()
        self.iterations.append(iteration)
        self._pending = None
        self._pending_violations = []
        self._pending_plan_event = None
        if self.tracer.enabled:
            self.tracer.set_context(app=None, epoch=None)
        return iteration

    # -- internals ----------------------------------------------------------------

    def _require_pending(self) -> ControllerIteration:
        if self._pending is None:
            raise MigrationError(
                f"controller for {self.app!r}: observe() must run before "
                "plan()/act()"
            )
        return self._pending

    def _probe_application_links(
        self, shared_probed: Optional[set[tuple[str, str]]] = None
    ) -> int:
        """Headroom-probe links under the app's edges; escalate to full
        probes when headroom is violated (capacity may have changed)."""
        full_probes = 0
        deployment = self.orchestrator.deployment(self.app)
        probed = shared_probed if shared_probed is not None else set()
        for src, dst, _ in self.binding.inter_node_edges():
            src_node = deployment.node_of(src)
            dst_node = deployment.node_of(dst)
            for a, b in self.monitor.links_of_path(src_node, dst_node):
                if (a, b) in probed:
                    continue
                probed.add((a, b))
                cached = self.monitor.cached_capacity(a, b)
                headroom = cached * self.config.migration.headroom_fraction
                result = self.monitor.headroom_probe(a, b, headroom)
                if not result.headroom_ok and self.monitor.full_probe_allowed(
                    a, b
                ):
                    self.monitor.full_probe(a, b)
                    full_probes += 1
        return full_probes

    def _update_cooldowns(self, violating: set[str], now: float) -> None:
        """Track how long each component has been continuously violating."""
        # Sorted so the dict's insertion order (and with it the order of
        # later violation.cleared trace events) is hash-seed independent.
        for component in sorted(violating):
            self._violating_since.setdefault(component, now)
        for component in list(self._violating_since):
            if component not in violating:
                since = self._violating_since.pop(component)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "violation.cleared",
                        now,
                        component=component,
                        duration_s=now - since,
                    )

    def _cooldown_elapsed(self, component: str, now: float) -> bool:
        since = self._violating_since.get(component)
        if since is None:
            # A pruned-in candidate whose own edges were fine; treat its
            # detection time as now (cooldown starts fresh).
            self._violating_since[component] = now
            since = now
        return now - since >= self.config.migration.cooldown_s

    def _violating_partners(
        self, component: str, violations: list[Violation]
    ) -> list[str]:
        """The other endpoints of this component's violating edges."""
        partners: list[str] = []
        for violation in violations:
            if violation.component == component:
                partners.append(violation.dependency)
            elif violation.dependency == component:
                partners.append(violation.component)
        return partners

    def _try_migrate(self, component: str, deployment, now: float) -> bool:
        """All per-component gates, then the migration itself."""
        if not self._cooldown_elapsed(component, now):
            return False
        if not deployment.is_available(component, now):
            return False  # already mid-restart
        last = self._last_migrated_at.get(component)
        if last is not None and now - last < self.min_residency_s:
            return False
        if self._migrate_one(component, deployment):
            self._last_migrated_at[component] = now
            self._violating_since.pop(component, None)
            return True
        return False

    def _migrate_one(self, component: str, deployment) -> bool:
        """Pick a target and migrate; False when no suitable node exists."""
        spec = self.binding.dag.component(component)
        if spec.pinned_node is not None:
            return False  # pinned components (clients) never move
        region = self.region
        claimed = (
            region.nodes_claimed_by_others(self.app)
            if region is not None
            else set()
        )
        # Crashed nodes are never migration targets (empty set unless a
        # fault plan is active, so the healthy path is unchanged).
        down = self.netem.topology.down_nodes
        allow = region.nodes if region is not None else None
        target = self.planner.select_target(
            component,
            deployment,
            self.orchestrator.cluster,
            self.netem,
            exclude=(claimed | down) or None,
            allow=allow,
            achieved_mbps_of=self.binding.achieved_mbps,
            tracer=self.tracer,
            trace_cause=self._pending_plan_event,
        )
        if claimed:
            # Another tenant already claimed node(s) this epoch: record a
            # conflict whenever arbitration changed this app's choice.
            preferred = self.planner.select_target(
                component,
                deployment,
                self.orchestrator.cluster,
                self.netem,
                exclude=down or None,
                allow=allow,
                achieved_mbps_of=self.binding.achieved_mbps,
            )
            if preferred is not None and preferred != target:
                region.record_conflict()
                if self.tracer.enabled:
                    self.tracer.emit(
                        "migration.deflected",
                        self.netem.now,
                        cause=self._pending_plan_event,
                        component=component,
                        preferred=preferred,
                        granted=target,
                    )
        if target is None:
            if region is not None:
                self._maybe_request_handoff(
                    component, deployment, claimed, down
                )
            return False
        restart = self.migration_restart_s(component, target)
        selected_event = None
        if self.tracer.enabled:
            selected_event = self.tracer.emit(
                "migration.selected",
                self.netem.now,
                cause=self._pending_plan_event,
                component=component,
                **{"from": deployment.node_of(component)},
                to=target,
                restart_s=restart,
            )
        try:
            self.orchestrator.migrate(
                self.app,
                component,
                target,
                reason="bandwidth violation",
                restart_override_s=restart,
                trace_cause=selected_event,
            )
        except MigrationError as error:
            if self.tracer.enabled:
                self.tracer.emit(
                    "migration.aborted",
                    self.netem.now,
                    cause=selected_event,
                    component=component,
                    to=target,
                    error=str(error),
                )
            return False
        if region is not None:
            region.claim(self.netem.now, self.app, component, target)
        # Re-arm the edge flows the moment the restart window closes —
        # until then the component's edges rightly carry zero demand.
        self.netem.engine.schedule_in(restart + 1e-6, self.binding.sync_flows)
        return True

    def _maybe_request_handoff(
        self, component: str, deployment, claimed: set, down: set
    ) -> None:
        """No in-region target qualified: if a node in another region
        would, queue a two-phase handoff for the fleet broker instead of
        migrating directly — the target is another region's to admit."""
        region = self.region
        if region.has_pending_handoff(self.app, component):
            return
        remote = self.planner.select_target(
            component,
            deployment,
            self.orchestrator.cluster,
            self.netem,
            exclude=(claimed | down | set(region.nodes)) or None,
            achieved_mbps_of=self.binding.achieved_mbps,
        )
        if remote is None:
            return
        region.queue_handoff(
            time=self.netem.now,
            app=self.app,
            component=component,
            source_node=deployment.node_of(component),
            target_node=remote,
            severity=self._component_severity(component),
            cause=self._pending_plan_event,
        )

    def _component_severity(self, component: str) -> float:
        """Worst pending-violation severity involving ``component``."""
        return max(
            (
                v.severity
                for v in self._pending_violations
                if component in (v.component, v.dependency)
            ),
            default=0.0,
        )

    def note_external_migration(self, component: str, now: float) -> None:
        """Account a migration executed outside this controller (a
        committed handoff): the residency clock restarts and the
        violation streak resets, exactly as after a local migration."""
        self._last_migrated_at[component] = now
        self._violating_since.pop(component, None)

    def migration_restart_s(self, component: str, target: str) -> float:
        """Unavailability window for moving ``component`` to ``target``
        (base restart plus any stateful checkpoint transfer)."""
        deployment = self.orchestrator.deployment(self.app)
        return self.orchestrator.restart_seconds + self._state_transfer_s(
            component, deployment, target
        )

    def _state_transfer_s(
        self, component: str, deployment, target: str
    ) -> float:
        """Time to ship a stateful component's checkpoint to the target
        (§8: CRIU-style state transfer over the mesh)."""
        state_mb = self.binding.dag.component(component).state_mb
        if state_mb <= 0:
            return 0.0
        source = deployment.node_of(component)
        try:
            rate = max(self.netem.path_available_bandwidth(source, target), 0.5)
        except RoutingError:
            # Source unreachable (crash recovery): no checkpoint to ship,
            # the replacement cold-starts from scratch.
            return 0.0
        return state_mb * 8.0 / rate

    # -- reporting -------------------------------------------------------------------

    def migration_events(self) -> list[tuple[float, str, str, str]]:
        """(time, component, from, to) for every migration performed."""
        deployment = self.orchestrator.deployment(self.app)
        return [
            (m.time, m.pod_name, m.from_node, m.to_node)
            for m in deployment.migrations
        ]

    def table1_rows(self) -> list[tuple[int, int, int]]:
        """(iteration #, components over quota, migrated) for iterations
        where anything was over quota — the shape of Table 1."""
        rows = []
        index = 0
        for iteration in self.iterations:
            if iteration.components_over_quota > 0:
                index += 1
                rows.append(
                    (
                        index,
                        iteration.components_over_quota,
                        len(iteration.migrated),
                    )
                )
        return rows
