"""Executes a :class:`~repro.faults.plan.FaultPlan` on the simulation.

The injector is the *ground truth* side of the chaos layer: it schedules
each planned fault as an engine event, flips node/link state in the
topology, and tells the network emulator to reconverge (rerouting flows
around dead segments, tearing down flows whose endpoints became
unreachable).  It never notifies the control plane — discovering the
failure is the :class:`~repro.faults.detector.FailureDetector`'s job,
over heartbeats, so detection latency stays a measured quantity.

What the injector *does* expose is provenance: the trace-event id and
time of the last fault applied to each node/link, so the detector can
link its (honestly late) ``node.suspected`` events back to the
``fault.injected`` event that caused them, completing the cause chain
`fault.injected → node.suspected → node.confirmed_dead → recovery.plan
→ restart` in ``bass-repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..errors import SimulationError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from .plan import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    OrchestratorKill,
    Partition,
    ProbeBlackout,
)


@dataclass(frozen=True)
class InjectedFault:
    """Ground-truth record of one applied fault."""

    time: float
    kind: str
    target: str
    event_id: Optional[int]  # trace event, when tracing is enabled
    flows_removed: int = 0
    flows_rerouted: int = 0


class FaultInjector:
    """Schedules and applies the faults of one plan.

    Args:
        plan: the validated fault plan to execute.
        netem: the emulator whose topology/flows the faults hit (its
            engine supplies the clock and scheduling).
        tracer: flight recorder; ``fault.injected`` / ``fault.cleared``
            events are emitted per applied fault.
        control_plane: required when the plan contains
            :class:`~repro.faults.plan.OrchestratorKill` events — the
            plane whose epoch loop the kill suspends/resumes.
    """

    def __init__(
        self,
        plan: FaultPlan,
        netem: NetworkEmulator,
        *,
        tracer: Optional[TracerBase] = None,
        control_plane=None,
    ) -> None:
        self.plan = plan
        self.netem = netem
        self.topology = netem.topology
        self.engine = netem.engine
        self.tracer = resolve_tracer(tracer)
        self.control_plane = control_plane
        self.injected: list[InjectedFault] = []
        self._installed = False
        #: node name -> (trace event id, fault time) of its last crash.
        self._node_fault: dict[str, tuple[Optional[int], float]] = {}
        #: node name -> blackout windows [(start, end)].
        self._blackouts: dict[str, list[tuple[float, float]]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Validate the plan and schedule every fault on the engine."""
        if self._installed:
            raise SimulationError("fault plan is already installed")
        self.plan.validate(self.topology)
        self._installed = True
        for event in self.plan.events:
            if isinstance(event, NodeCrash):
                self.engine.schedule_at(
                    event.at_s, partial(self._crash_node, event)
                )
            elif isinstance(event, LinkDown):
                self.engine.schedule_at(
                    event.at_s, partial(self._fail_link, event)
                )
            elif isinstance(event, LinkFlap):
                self._schedule_flap(event)
            elif isinstance(event, Partition):
                self.engine.schedule_at(
                    event.at_s, partial(self._partition, event)
                )
            elif isinstance(event, OrchestratorKill):
                if self.control_plane is None:
                    raise SimulationError(
                        "plan contains an OrchestratorKill but the "
                        "injector has no control_plane to suspend"
                    )
                self.engine.schedule_at(
                    event.at_s, partial(self._kill_orchestrator, event)
                )
            elif isinstance(event, ProbeBlackout):
                # Blackouts touch no substrate state; the detector asks
                # in_blackout() when deciding whether a heartbeat landed.
                self._blackouts.setdefault(event.node, []).append(
                    (event.at_s, event.at_s + event.duration_s)
                )

    @property
    def installed(self) -> bool:
        return self._installed

    # -- ground truth for the detector's trace causality ------------------

    def last_fault_of(
        self, node: str
    ) -> Optional[tuple[Optional[int], float]]:
        """(trace event id, time) of the node's most recent crash."""
        return self._node_fault.get(node)

    def in_blackout(self, node: str, t: float) -> bool:
        """Whether heartbeats/probes from ``node`` are lost at ``t``."""
        return any(
            start <= t < end
            for start, end in self._blackouts.get(node, ())
        )

    def blacked_out(self, t: float) -> tuple[str, ...]:
        """Every node whose heartbeats/probes are lost at ``t``."""
        return tuple(
            node for node in self._blackouts if self.in_blackout(node, t)
        )

    # -- fault application -------------------------------------------------

    def _reconverge(self) -> dict[str, list[str]]:
        """Invalidate routes and let the emulator re-path its flows."""
        return self.netem.on_topology_change()

    def _record(
        self,
        kind: str,
        target: str,
        impact: dict[str, list[str]],
        *,
        cleared: bool = False,
        cause: Optional[int] = None,
        **extra,
    ) -> Optional[int]:
        event_id = None
        if self.tracer.enabled:
            event_id = self.tracer.emit(
                "fault.cleared" if cleared else "fault.injected",
                self.engine.now,
                cause=cause,
                fault=kind,
                target=target,
                flows_removed=len(impact["removed"]),
                flows_rerouted=len(impact["rerouted"]),
                **extra,
            )
        self.injected.append(
            InjectedFault(
                time=self.engine.now,
                kind=f"{kind}.cleared" if cleared else kind,
                target=target,
                event_id=event_id,
                flows_removed=len(impact["removed"]),
                flows_rerouted=len(impact["rerouted"]),
            )
        )
        return event_id

    def _crash_node(self, event: NodeCrash) -> None:
        self.topology.set_node_up(event.node, False)
        impact = self._reconverge()
        event_id = self._record(
            "node_crash",
            event.node,
            impact,
            reboot_after_s=event.reboot_after_s,
        )
        self._node_fault[event.node] = (event_id, self.engine.now)
        if event.reboot_after_s is not None:
            self.engine.schedule_in(
                event.reboot_after_s,
                partial(self._reboot_node, event.node, event_id),
            )

    def _reboot_node(self, node: str, cause: Optional[int]) -> None:
        self.topology.set_node_up(node, True)
        impact = self._reconverge()
        self._record("node_crash", node, impact, cleared=True, cause=cause)

    def _fail_link(self, event: LinkDown) -> None:
        self.topology.set_link_up(event.a, event.b, False)
        impact = self._reconverge()
        event_id = self._record(
            "link_down", f"{event.a}-{event.b}", impact
        )
        if event.restore_after_s is not None:
            self.engine.schedule_in(
                event.restore_after_s,
                partial(self._restore_link, event.a, event.b, event_id),
            )

    def _restore_link(self, a: str, b: str, cause: Optional[int]) -> None:
        self.topology.set_link_up(a, b, True)
        impact = self._reconverge()
        self._record("link_down", f"{a}-{b}", impact, cleared=True, cause=cause)

    def _schedule_flap(self, event: LinkFlap) -> None:
        t = event.at_s
        for _ in range(event.cycles):
            self.engine.schedule_at(
                t,
                partial(
                    self._fail_link,
                    LinkDown(at_s=0.0, a=event.a, b=event.b),
                ),
            )
            self.engine.schedule_at(
                t + event.down_s,
                partial(self._restore_link, event.a, event.b, None),
            )
            t += event.down_s + event.up_s

    def _partition(self, event: Partition) -> None:
        group = set(event.group)
        cross = [
            link.id
            for link in self.topology.links
            if (link.id[0] in group) != (link.id[1] in group)
        ]
        for a, b in cross:
            self.topology.set_link_up(a, b, False)
        impact = self._reconverge()
        event_id = self._record(
            "partition",
            "|".join(sorted(group)),
            impact,
            cut_links=len(cross),
        )
        if event.heal_after_s is not None:
            self.engine.schedule_in(
                event.heal_after_s,
                partial(self._heal_partition, cross, group, event_id),
            )

    def _heal_partition(
        self,
        cross: list[tuple[str, str]],
        group: set,
        cause: Optional[int],
    ) -> None:
        for a, b in cross:
            # set_link_up clears only the explicit failure reason, so a
            # link that is also down because an endpoint crashed stays
            # down until the node reboots.
            self.topology.set_link_up(a, b, True)
        impact = self._reconverge()
        self._record(
            "partition",
            "|".join(sorted(group)),
            impact,
            cleared=True,
            cause=cause,
        )

    def _kill_orchestrator(self, event: OrchestratorKill) -> None:
        self.control_plane.suspend()
        event_id = self._record(
            "orchestrator_kill",
            "control-plane",
            {"removed": [], "rerouted": []},
            down_s=event.down_s,
        )
        self.engine.schedule_in(
            event.down_s, partial(self._resume_orchestrator, event_id)
        )

    def _resume_orchestrator(self, cause: Optional[int]) -> None:
        self.control_plane.resume()
        self._record(
            "orchestrator_kill",
            "control-plane",
            {"removed": [], "rerouted": []},
            cleared=True,
            cause=cause,
        )
