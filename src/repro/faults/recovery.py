"""Coordinated re-placement of pods lost to a confirmed-dead node.

When the failure detector confirms a node dead, the coordinator walks
every tenant of the control plane, finds the pods bound to the dead
node, and re-places each by reusing the migration machinery:
:meth:`~repro.core.migration.MigrationPlanner.select_target` ranks
surviving nodes exactly as §3.2.2 does for a bandwidth migration
(deployed dependencies first, then bandwidth feasibility), and
:meth:`~repro.cluster.orchestrator.Orchestrator.migrate` executes the
move — releasing the dead node's allocation and charging the target
exactly once, so the cluster ledger stays clean.

Algorithm 3's cascade rule carries over: only the *dead* side of a
dependency pair moves.  Surviving partners stay put, and within one
dead node the lost pods are re-placed largest-bandwidth first, mirroring
the candidate ordering of the migration path.

A recovery is a round on the regions' claim boards: each re-placement
claims its target, at the top severity, on the board of the region that
owns it, later tenants select around existing claims, and any deflection
is recorded as a conflict (plus a ``recovery.deflected`` trace event) —
so two tenants recovering from one crash cannot stampede the same
surviving node inside a round.  Tenants are processed region by region
and each pod is re-placed inside its home region first; only when no
in-region node survives does it cross, through the two-phase handoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.controlplane import check_cluster_ledger
from ..errors import MigrationError
from ..obs.trace import TracerBase, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controlplane import ControlPlane

#: Crash-recovery claims and handoffs outrank every bandwidth claim (a
#: violation's severity is at most 2).
_RECOVERY_SEVERITY = 2.0


@dataclass(frozen=True)
class RecoveryAction:
    """One pod's recovery outcome."""

    time: float
    app: str
    component: str
    from_node: str
    to_node: Optional[str]  # None: no surviving node could take it

    @property
    def succeeded(self) -> bool:
        return self.to_node is not None


class RecoveryCoordinator:
    """Fleet-wide crash recovery driven by detector confirmations.

    Args:
        control_plane: supplies the tenants (controllers with their
            bindings and planners), the orchestrator, and the arbiter.
        tracer: flight recorder for ``recovery.*`` events.
    """

    def __init__(
        self,
        control_plane: "ControlPlane",
        *,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.cp = control_plane
        self.tracer = resolve_tracer(tracer)
        self.actions: list[RecoveryAction] = []
        #: Confirmations received while the orchestrator was suspended
        #: (node, cause event, detection latency) — drained on resume.
        self.deferred: list[tuple[str, Optional[int], Optional[float]]] = []
        #: Total recoveries ever deferred (the failover experiment's
        #: "decisions deferred" metric; ``deferred`` itself drains).
        self.deferred_total = 0

    # -- derived views -----------------------------------------------------

    @property
    def recovered_count(self) -> int:
        return sum(1 for action in self.actions if action.succeeded)

    @property
    def failed_count(self) -> int:
        return sum(1 for action in self.actions if not action.succeeded)

    def snapshot(self, recent: int = 20) -> dict:
        """The ``recovery`` block of the status plane's ``status.json``."""
        return {
            "recovered": self.recovered_count,
            "failed": self.failed_count,
            "deferred": len(self.deferred),
            "recent_actions": [
                {
                    "time": action.time,
                    "app": action.app,
                    "component": action.component,
                    "from_node": action.from_node,
                    "to_node": action.to_node,
                    "succeeded": action.succeeded,
                }
                for action in self.actions[-recent:]
            ],
        }

    # -- the recovery round ------------------------------------------------

    def recover_from(
        self,
        node: str,
        cause: Optional[int] = None,
        detection_latency_s: Optional[float] = None,
    ) -> list[RecoveryAction]:
        """Re-place every tenant's pods lost on ``node``.

        Signature matches the detector's ``on_confirmed_dead`` hook;
        ``cause`` is the ``node.confirmed_dead`` trace event, so the
        emitted ``recovery.plan`` (and through it each ``restart``)
        chains back to the detection.

        While the orchestrator is suspended (see
        :meth:`~repro.core.controlplane.ControlPlane.suspend`) nothing
        is re-placed: the confirmation is queued and honoured when the
        plane resumes — a dead orchestrator cannot make decisions.
        """
        if self.cp.suspended:
            self.deferred.append((node, cause, detection_latency_s))
            self.deferred_total += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "recovery.deferred",
                    self.cp.netem.now,
                    cause=cause,
                    node=node,
                    detection_latency_s=detection_latency_s,
                )
            return []
        netem = self.cp.netem
        orchestrator = self.cp.orchestrator
        now = netem.now
        # A recovery is its own arbitration round: claims made here
        # protect surviving nodes from a multi-tenant stampede.
        self.cp.begin_recovery_round()
        down = netem.topology.down_nodes
        round_actions: list[RecoveryAction] = []
        # Recovery routes through the owning region: tenants are
        # processed region by region, and each pod is re-placed inside
        # its home region first (cross-region only via the two-phase
        # handoff, below).
        tenants = sorted(
            self.cp.tenants, key=lambda app: (self.cp.home_region(app), app)
        )
        for app in tenants:
            controller = self.cp.controller(app)
            deployment = orchestrator.deployment(app)
            lost = deployment.pods_on(node)
            if not lost:
                continue
            # Largest aggregate bandwidth first — Algorithm 3's candidate
            # ordering, applied to the crash-evicted set.
            dag = controller.binding.dag
            lost.sort(
                key=lambda name, dag=dag: (
                    -(
                        sum(dag.dependencies(name).values())
                        + sum(dag.dependents(name).values())
                    ),
                    name,
                )
            )
            plan_event = None
            if self.tracer.enabled:
                plan_event = self.tracer.emit(
                    "recovery.plan",
                    now,
                    cause=cause,
                    app=app,
                    node=node,
                    pods=list(lost),
                    detection_latency_s=detection_latency_s,
                    region=self.cp.home_region(app),
                )
            for component in lost:
                round_actions.append(
                    self._replace_one(
                        app, component, node, controller, deployment,
                        down, plan_event,
                    )
                )
            controller.binding.sync_flows()
        self.cp.end_recovery_round()
        self.actions.extend(round_actions)
        check_cluster_ledger(orchestrator.cluster)
        return round_actions

    def drain_deferred(self) -> list[RecoveryAction]:
        """Run the recoveries that were confirmed during an outage.

        Called by ``ControlPlane.resume``.  Nodes that came back up
        while the orchestrator was down need no recovery and are
        skipped (their pods never left the ledger).
        """
        pending, self.deferred = self.deferred, []
        actions: list[RecoveryAction] = []
        down = self.cp.netem.topology.down_nodes
        for node, cause, latency in pending:
            if node not in down:
                continue
            actions.extend(self.recover_from(node, cause, latency))
        return actions

    def _replace_one(
        self,
        app: str,
        component: str,
        node: str,
        controller,
        deployment,
        down: set,
        plan_event: Optional[int],
    ) -> RecoveryAction:
        """Select a surviving target for one lost pod and migrate it."""
        netem = self.cp.netem
        orchestrator = self.cp.orchestrator
        now = netem.now
        planner = controller.planner
        region = controller.region
        claimed = region.nodes_claimed_by_others(app)
        target, preferred = planner.select_target(
            component,
            deployment,
            orchestrator.cluster,
            netem,
            exclude=down or None,
            claimed=claimed,
            allow=region.nodes,
            tracer=self.tracer,
            trace_cause=plan_event,
        )
        region.note_choice(
            "recovery", now, component, target, preferred, cause=plan_event
        )
        if target is None:
            # No surviving in-region node can take the pod: escalate
            # across the region boundary through the two-phase handoff
            # (brokered synchronously — a dead pod cannot wait out the
            # control RTT) — so it selects around every board's claims.
            remote, _ = planner.select_target(
                component,
                deployment,
                orchestrator.cluster,
                netem,
                exclude=down
                | self.cp.fleet_claims_by_others(app)
                | set(region.nodes),
            )
            if remote is not None:
                request = region.queue_handoff(
                    time=now,
                    app=app,
                    component=component,
                    source_node=node,
                    target_node=remote,
                    severity=_RECOVERY_SEVERITY,
                    cause=plan_event,
                    reason="crash recovery",
                    enqueue=False,
                )
                granted = self.cp.broker_recovery_handoff(request)
                if granted is not None:
                    self._claim(app, component, granted)
                    return RecoveryAction(
                        time=now,
                        app=app,
                        component=component,
                        from_node=node,
                        to_node=granted,
                    )
            if self.tracer.enabled:
                self.tracer.emit(
                    "recovery.failed",
                    now,
                    cause=plan_event,
                    component=component,
                    node=node,
                )
            return RecoveryAction(
                time=now,
                app=app,
                component=component,
                from_node=node,
                to_node=None,
            )
        try:
            orchestrator.migrate(
                app,
                component,
                target,
                reason="crash recovery",
                trace_cause=plan_event,
            )
        except MigrationError:
            return RecoveryAction(
                time=now,
                app=app,
                component=component,
                from_node=node,
                to_node=None,
            )
        self._claim(app, component, target)
        # The replacement cold-starts (the checkpoint died with the
        # node); re-arm its edge flows once the restart window closes.
        netem.engine.schedule_in(
            orchestrator.restart_seconds + 1e-6,
            controller.binding.sync_flows,
        )
        return RecoveryAction(
            time=now,
            app=app,
            component=component,
            from_node=node,
            to_node=target,
        )

    def _claim(self, app: str, component: str, node: str) -> None:
        """Claim ``node`` on the board of the region that owns it."""
        cp = self.cp
        board = cp.region_controller(cp.region_map.region_of(node))
        board.claim(cp.netem.now, app, component, node, _RECOVERY_SEVERITY)
