"""Heartbeat-based failure detection over the mesh.

Discovery is honest: a periodic heartbeat is expected from every
monitored node at an observer (the control-plane node), and a node is
*suspected* after ``suspect_after_misses`` consecutive missing beats,
then *confirmed dead* after ``confirm_after_misses``.  Detection latency
is therefore a real, measured quantity — between ``interval_s *
suspect_after_misses`` and ``interval_s * confirm_after_misses`` plus
phase offset — never an oracle callback from the injector.

A heartbeat arrives iff the sender is alive, the mesh routes a path
from it to the observer, and no probe blackout swallows it.  The
default heartbeat is control traffic small enough to ignore
(``demand_mbps=0``); configuring a positive demand injects real
heartbeat flows so their bandwidth cost shows up in the emulator's
accounting.

Trace causality: the ``node.suspected`` event cites the injector's
``fault.injected`` event as its cause (ground truth joined *after* the
honest timing), so reports can show the full chain without the detector
ever being told about the fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..errors import RoutingError, SimulationError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from ..sim.counters import sequence
from .injector import FaultInjector

#: Heartbeat flow ids must not collide across detectors on one emulator.
#: Registered so checkpoints capture/restore the numbering position.
_HEARTBEAT_SEQUENCE = sequence("detector.heartbeat", start=1)

#: on_confirmed_dead callback: (node, cause event id, detection latency).
ConfirmedCallback = Callable[[str, Optional[int], float], None]
RecoveredCallback = Callable[[str], None]


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detection parameters.

    Attributes:
        interval_s: heartbeat period.
        suspect_after_misses: consecutive missing beats before a node is
            suspected.
        confirm_after_misses: consecutive missing beats before the
            suspicion is confirmed (must be >= suspect_after_misses).
        demand_mbps: bandwidth of each heartbeat burst; 0 models
            negligible control traffic (no flows injected).
        burst_s: how long each heartbeat burst occupies the path when
            ``demand_mbps > 0``.
    """

    interval_s: float = 5.0
    suspect_after_misses: int = 2
    confirm_after_misses: int = 4
    demand_mbps: float = 0.0
    burst_s: float = 0.2

    def validate(self) -> "HeartbeatConfig":
        if self.interval_s <= 0:
            raise SimulationError("heartbeat interval_s must be positive")
        if self.suspect_after_misses < 1:
            raise SimulationError("suspect_after_misses must be >= 1")
        if self.confirm_after_misses < self.suspect_after_misses:
            raise SimulationError(
                "confirm_after_misses must be >= suspect_after_misses"
            )
        if not self.demand_mbps >= 0 or self.burst_s <= 0:  # NaN included
            raise SimulationError(
                "heartbeat demand must be >= 0 and burst_s positive"
            )
        return self


class FailureDetector:
    """Periodic heartbeat collection with suspicion and confirmation.

    Args:
        netem: the emulator the heartbeats travel over.
        observer: node collecting the beats (the control-plane node).
        monitored: node names to watch; defaults to every schedulable
            worker except the observer.
        config: timing/threshold parameters.
        injector: optional ground truth — consulted for probe-blackout
            windows and for the ``fault.injected`` event id that a
            suspicion's trace event should cite as its cause.
        tracer: flight recorder for ``node.*`` lifecycle events.
    """

    def __init__(
        self,
        netem: NetworkEmulator,
        observer: str,
        *,
        monitored: Optional[list[str]] = None,
        config: Optional[HeartbeatConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        self.netem = netem
        self.topology = netem.topology
        self.topology.node(observer)  # validates
        self.observer = observer
        self.config = (
            config if config is not None else HeartbeatConfig()
        ).validate()
        self.injector = injector
        self.tracer = resolve_tracer(tracer)
        if monitored is None:
            monitored = [
                name
                for name in self.topology.worker_names
                if name != observer
            ]
        self.monitored = list(monitored)
        self._misses: dict[str, int] = {name: 0 for name in self.monitored}
        self._first_miss_at: dict[str, float] = {}
        self._suspect_events: dict[str, Optional[int]] = {}
        self.suspected: set[str] = set()
        self.confirmed_dead: set[str] = set()
        #: node -> measured heartbeat detection latency, seconds, for the
        #: most recent confirmation (first miss -> confirmation).
        self.detection_latency_s: dict[str, float] = {}
        self.beats_sent = 0
        self.beats_missed = 0
        self._on_confirmed: list[ConfirmedCallback] = []
        self._on_recovered: list[RecoveredCallback] = []
        self._task = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic heartbeat round on the engine."""
        if self._task is None:
            self._task = self.netem.engine.every(
                self.config.interval_s, self.beat
            )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def on_confirmed_dead(self, callback: ConfirmedCallback) -> None:
        """Register a recovery hook: (node, cause event, latency_s)."""
        self._on_confirmed.append(callback)

    def on_recovered(self, callback: RecoveredCallback) -> None:
        self._on_recovered.append(callback)

    # -- one heartbeat round ----------------------------------------------

    def beat(self) -> None:
        """Collect one round of heartbeats and update suspicion state."""
        now = self.netem.now
        for node in self.monitored:
            if self._heartbeat_delivered(node, now):
                self.beats_sent += 1
                self._mark_alive(node, now)
            else:
                self.beats_missed += 1
                self._mark_missing(node, now)

    def _heartbeat_delivered(self, node: str, now: float) -> bool:
        """Physics of one heartbeat: alive, routable, not blacked out."""
        if self.injector is not None and self.injector.in_blackout(node, now):
            return False
        if not self.topology.is_node_up(node):
            return False
        try:
            self.netem.router.traceroute(node, self.observer)
        except RoutingError:
            return False
        if self.config.demand_mbps > 0 and node != self.observer:
            flow_id = f"__heartbeat_{next(_HEARTBEAT_SEQUENCE)}"
            self.netem.add_flow(
                flow_id,
                node,
                self.observer,
                self.config.demand_mbps,
                tag="probe",
            )
            self.netem.engine.schedule_in(
                self.config.burst_s,
                partial(self.netem.remove_flow, flow_id),
            )
        return True

    def _mark_alive(self, node: str, now: float) -> None:
        was_down = node in self.suspected or node in self.confirmed_dead
        self._misses[node] = 0
        self._first_miss_at.pop(node, None)
        if was_down:
            cause = self._suspect_events.pop(node, None)
            self.suspected.discard(node)
            self.confirmed_dead.discard(node)
            if self.tracer.enabled:
                self.tracer.emit(
                    "node.recovered", now, node=node, cause=cause
                )
            for callback in self._on_recovered:
                callback(node)

    def _mark_missing(self, node: str, now: float) -> None:
        if node in self.confirmed_dead:
            return  # already confirmed; nothing new to learn
        self._misses[node] += 1
        self._first_miss_at.setdefault(node, now)
        misses = self._misses[node]
        if (
            misses >= self.config.suspect_after_misses
            and node not in self.suspected
        ):
            self.suspected.add(node)
            event_id = None
            if self.tracer.enabled:
                event_id = self.tracer.emit(
                    "node.suspected",
                    now,
                    cause=self._ground_truth_cause(node),
                    node=node,
                    missed_beats=misses,
                )
            self._suspect_events[node] = event_id
        if misses >= self.config.confirm_after_misses:
            self.confirmed_dead.add(node)
            latency = self._latency(node, now)
            self.detection_latency_s[node] = latency
            cause = self._suspect_events.get(node)
            event_id = None
            if self.tracer.enabled:
                event_id = self.tracer.emit(
                    "node.confirmed_dead",
                    now,
                    cause=cause,
                    node=node,
                    missed_beats=misses,
                    detection_latency_s=latency,
                )
            for callback in self._on_confirmed:
                callback(node, event_id, latency)

    def _latency(self, node: str, now: float) -> float:
        """Time from the fault (ground truth when known, else the first
        missed beat) to confirmation — the measured detection latency."""
        if self.injector is not None:
            fault = self.injector.last_fault_of(node)
            if fault is not None:
                return now - fault[1]
        return now - self._first_miss_at.get(node, now)

    def _ground_truth_cause(self, node: str) -> Optional[int]:
        """The injector's fault event for trace causality (post-hoc
        join; the detection *timing* never consults the injector)."""
        if self.injector is None:
            return None
        fault = self.injector.last_fault_of(node)
        return fault[0] if fault is not None else None
