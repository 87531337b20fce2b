"""Flight recorder: structured, causally-linked decision tracing.

Every orchestrator decision — a probe, a detected violation, an epoch
plan, a migration, a restart — can be emitted as a :class:`TraceEvent`
carrying simulation time, the tenant it concerns, the controller epoch,
and a ``cause`` reference to the event that triggered it.  Walking the
``cause`` links reconstructs the full causal chain behind any action
(see :mod:`repro.obs.report`): goodput sample → threshold breach →
plan → migration → restart.

Tracing is opt-in and free when off: the module-level default tracer is
:data:`NULL_TRACER`, whose ``emit`` does nothing, and instrumented hot
paths guard event construction behind the ``enabled`` flag so a
disabled run pays a single attribute check per site.

Example:
    >>> tracer = Tracer()
    >>> probe = tracer.emit("probe.headroom", 30.0, src="n1", dst="n2")
    >>> violation = tracer.emit(
    ...     "violation.detected", 30.0, cause=probe, component="sfu"
    ... )
    >>> tracer.events[1].cause == probe
    True
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stream import StreamingSink

#: The core event taxonomy (emitters may add further kinds; the report
#: treats unknown kinds as timeline annotations).  Documented in
#: DESIGN.md's "Observability" section.
EVENT_KINDS = (
    "run.start",  # an experiment substrate was assembled
    "placement.plan",  # scheduler ran a heuristic over a DAG
    "placement.decision",  # placement engine picked a node for a pod
    "placement.bound",  # orchestrator committed a pod → node binding
    "probe.max_capacity",  # net-monitor flooded a link (full probe)
    "probe.headroom",  # net-monitor checked spare capacity on a link
    "violation.detected",  # an edge tripped a goodput/utilization trigger
    "violation.cleared",  # an edge left the violating set
    "epoch.plan",  # controller selected migration candidates
    "migration.target_ranked",  # planner ranked candidate target nodes
    "migration.selected",  # controller committed to moving a component
    "migration.deflected",  # arbiter claims changed/blocked the choice
    "migration.aborted",  # a selected migration failed to execute
    "restart",  # orchestrator rebound the pod; restart window opened
    "fault.injected",  # the chaos layer executed a planned fault
    "fault.cleared",  # a planned fault ended (reboot, link restored)
    "node.suspected",  # heartbeats missing; node under suspicion
    "node.confirmed_dead",  # suspicion confirmed after repeated misses
    "node.recovered",  # heartbeats resumed from a suspected/dead node
    "recovery.plan",  # coordinator planned re-placement of lost pods
    "recovery.deflected",  # arbiter contention changed a recovery target
    "recovery.failed",  # a lost pod could not be re-placed anywhere
    "region.assigned",  # a tenant was homed (or re-homed) in a region
    "region.epoch",  # one region finished its round: claims, handoffs
    "claim.batch",  # a region submitted its round's claim batch
    "claim.conflict",  # arbiter resolution found a cross-region race
    "handoff.requested",  # a region asked to migrate across the boundary
    "handoff.released",  # arbiter accepted; source region released
    "handoff.denied",  # arbiter ordering gave the target to another claim
    "handoff.admitted",  # destination region admitted the component
    "handoff.committed",  # handoff migration executed; ledger clean
    "handoff.aborted",  # destination could not admit (down/full/moved)
    "sweep.start",  # the sweep runner began fanning cells out
    "cell.done",  # one sweep cell executed (fresh result)
    "cell.cached",  # one sweep cell served from the result cache
    "cell.failed",  # one sweep cell raised in its worker
    "sweep.done",  # all cells settled; summary stats attached
    "slo.breach",  # a watchdog rule crossed its rolling-window ceiling
    "status.published",  # the status publisher snapshotted status.json
    "recovery.deferred",  # confirmation arrived while orchestrator down
    "orchestrator.suspended",  # control-plane process died (chaos kill)
    "orchestrator.resumed",  # control plane back; deferred work drains
)


# One encoder held for the life of the process: ``json.dumps(...,
# sort_keys=True)`` builds a ``JSONEncoder`` per call.  Same bytes out.
# The decoder is the one ``json.loads`` dispatches to for a ``str``,
# without the per-call argument checks in front of it.
_encode = json.JSONEncoder(sort_keys=True).encode
_decode = json.JSONDecoder().decode


class _EventFields(NamedTuple):
    id: int
    kind: str
    time: float
    app: Optional[str]
    epoch: Optional[int]
    cause: Optional[int]
    data: dict[str, Any]


class TraceEvent(_EventFields):
    """One recorded decision, causally linked to what triggered it.

    An immutable, value-equal, picklable tuple: the recorder builds one
    per emit and the reader one per line, so construction is the cost
    that matters (a frozen dataclass pays an ``object.__setattr__`` per
    field, three times what the tuple costs).
    """

    __slots__ = ()

    def __new__(
        cls,
        id: int,
        kind: str,
        time: float,
        app: Optional[str] = None,
        epoch: Optional[int] = None,
        cause: Optional[int] = None,
        data: Optional[dict[str, Any]] = None,
    ) -> "TraceEvent":
        if data is None:
            # Fresh per event: a shared default dict would let one
            # event's data show up in every other.
            data = {}
        return tuple.__new__(cls, (id, kind, time, app, epoch, cause, data))

    def to_json(self) -> str:
        """One-line JSON form (the JSONL trace-file record)."""
        id, kind, time, app, epoch, cause, data = self
        record: dict[str, Any] = {"id": id, "kind": kind, "t": time}
        if app is not None:
            record["app"] = app
        if epoch is not None:
            record["epoch"] = epoch
        if cause is not None:
            record["cause"] = cause
        if data:
            record["data"] = data
        return _encode(record)

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        """The event a :meth:`to_json` line records.

        Raises:
            ValueError, KeyError, TypeError: the line is not one JSON
                object with ``id``/``kind``/``t`` and an object ``data``.
        """
        record = _decode(line)
        id = int(record["id"])  # first: a record that is no object fails here
        data = record.get("data", {})
        if not isinstance(data, dict):
            raise TypeError("trace record data must be a JSON object")
        return TraceEvent(
            id,
            # Kinds are a small vocabulary: one string per kind, not per line.
            sys.intern(str(record["kind"])),
            float(record["t"]),
            record.get("app"),
            record.get("epoch"),
            record.get("cause"),
            data,
        )


class TracerBase:
    """Common interface of :class:`Tracer` and :class:`NullTracer`."""

    enabled: bool = False
    events: Iterable[TraceEvent] = ()

    def emit(
        self,
        kind: str,
        time: float,
        *,
        app: Optional[str] = None,
        epoch: Optional[int] = None,
        cause: Optional[int] = None,
        **data: Any,
    ) -> int:
        raise NotImplementedError

    def set_context(
        self, app: Optional[str] = None, epoch: Optional[int] = None
    ) -> None:
        raise NotImplementedError


class NullTracer(TracerBase):
    """Disabled tracer: every operation is a no-op.

    Instrumented code holds one of these by default, so tracing costs a
    single (false) attribute check per instrumented site when off.
    """

    enabled = False
    events: tuple[TraceEvent, ...] = ()

    def emit(
        self,
        kind: str,
        time: float,
        *,
        app: Optional[str] = None,
        epoch: Optional[int] = None,
        cause: Optional[int] = None,
        **data: Any,
    ) -> int:
        return 0

    def set_context(
        self, app: Optional[str] = None, epoch: Optional[int] = None
    ) -> None:
        pass

    def __reduce__(self):
        # Checkpoints must restore the *singleton*: instrumented code
        # compares against NULL_TRACER by identity in places, and a
        # fresh copy per unpickle would break that.
        return (_resolve_null_tracer, ())


#: The shared no-op tracer instrumented components default to.
NULL_TRACER = NullTracer()


def _resolve_null_tracer() -> NullTracer:
    return NULL_TRACER


class Tracer(TracerBase):
    """Recording tracer: an append-only, causally-linked event log.

    Two storage backends share one emit path:

    * **Buffered (default)** — every event is kept in :attr:`events`
      until :meth:`to_jsonl` exports them.  Simple, and right for the
      batch experiments whose traces fit comfortably in memory.
    * **Streaming** — with a ``sink``
      (:class:`~repro.obs.stream.StreamingSink`), events flush
      incrementally to rotating JSONL shards and only the sink's
      bounded ring buffer of recent events stays resident, so a
      10M-event always-on run holds O(window) memory.  :attr:`events`
      then exposes just that recent window; call :meth:`close` to
      publish the final shard.

    Args:
        instruments: optional object with an ``on_event(event)`` hook
            (see :class:`repro.obs.instruments.StandardInstruments`)
            that derives Prometheus-style metrics from the stream.
        sink: optional streaming backend; None keeps the buffered
            behaviour, byte-identical to all prior releases.
    """

    enabled = True

    def __init__(
        self,
        instruments: Optional[Any] = None,
        *,
        sink: "Optional[StreamingSink]" = None,
    ) -> None:
        self._events: list[TraceEvent] = []
        self._sink = sink
        self.instruments = instruments
        self._observers: list[Any] = []
        self._next_id = 1
        self._app: Optional[str] = None
        self._epoch: Optional[int] = None

    @classmethod
    def with_instruments(
        cls, *, sink: "Optional[StreamingSink]" = None
    ) -> "Tracer":
        """A tracer wired to a fresh standard instrument registry."""
        from .instruments import InstrumentRegistry, StandardInstruments

        return cls(
            instruments=StandardInstruments(InstrumentRegistry()), sink=sink
        )

    @property
    def events(self) -> list[TraceEvent]:
        """Recorded events: the full log (buffered) or the sink's
        bounded recent window (streaming)."""
        if self._sink is not None:
            return list(self._sink.recent)
        return self._events

    @property
    def sink(self) -> "Optional[StreamingSink]":
        return self._sink

    def add_observer(self, observer: Any) -> None:
        """Attach another ``on_event(event)`` consumer (rolling windows,
        SLO bookkeeping) fed after :attr:`instruments` on every emit."""
        self._observers.append(observer)

    # -- context -----------------------------------------------------------

    def set_context(
        self, app: Optional[str] = None, epoch: Optional[int] = None
    ) -> None:
        """Default ``app``/``epoch`` stamped on subsequent events.

        Controllers set this at the start of each phase so probe events
        fired deep inside the net-monitor are attributed to the tenant
        whose evaluation requested them.
        """
        self._app = app
        self._epoch = epoch

    # -- recording ---------------------------------------------------------

    def emit(
        self,
        kind: str,
        time: float,
        *,
        app: Optional[str] = None,
        epoch: Optional[int] = None,
        cause: Optional[int] = None,
        **data: Any,
    ) -> int:
        """Append an event; returns its id (use as a later ``cause``)."""
        event = TraceEvent(
            self._next_id,
            kind,
            time,
            app if app is not None else self._app,
            epoch if epoch is not None else self._epoch,
            cause if cause else None,
            data,
        )
        # An id is consumed exactly when the store recorded the event.  A
        # sink that refuses one (closed, unencodable data) leaves no gap
        # in the trace; one that fails after recording it (sealing the
        # shard the event filled) must not see the id handed out again.
        sink = self._sink
        if sink is not None:
            recorded = sink.total_events
            try:
                sink.append(event)
            finally:
                self._next_id += sink.total_events - recorded
        else:
            self._events.append(event)
            self._next_id += 1
        if self.instruments is not None:
            self.instruments.on_event(event)
        for observer in self._observers:
            observer.on_event(event)
        return event.id

    def __len__(self) -> int:
        """Total events emitted (not just the resident window)."""
        return self._next_id - 1

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    # -- export ------------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the trace as one JSON object per line.

        The file is written to a same-directory temp file and published
        with an atomic rename, so a crash mid-export can never destroy
        an existing trace or leave a half-written one behind.

        Raises:
            ValueError: on a streaming tracer — its events are already
                on disk as shards; :meth:`close` publishes the last one.
        """
        if self._sink is not None:
            raise ValueError(
                "streaming tracer already writes shards; call close() "
                "and read the sink's directory instead of to_jsonl()"
            )
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as handle:
            for event in self._events:
                handle.write(event.to_json() + "\n")
        os.replace(tmp, path)
        return path

    def close(self) -> None:
        """Flush and publish the streaming sink's final shard (no-op
        for a buffered tracer)."""
        if self._sink is not None:
            self._sink.close()


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace written by :meth:`Tracer.to_jsonl`.

    ``path`` may also be a :class:`~repro.obs.stream.StreamingSink`
    directory, in which case the published shards are read in order —
    their concatenation is the full trace.

    A truncated or corrupt trailing line is the *normal* state of a
    trace from a crashed run, so malformed lines are skipped with a
    warning and the valid prefix is returned instead of raising.
    """
    path = Path(path)
    if path.is_dir():
        events: list[TraceEvent] = []
        for shard in sorted(path.glob("trace-*.jsonl")):
            events.extend(read_trace(shard))
        return events
    events = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_json(line))
            except (ValueError, KeyError, TypeError):
                warnings.warn(
                    f"{path}:{number}: skipping malformed trace line "
                    f"(truncated write from a crashed run?)",
                    stacklevel=2,
                )
    return events


# -- process default ----------------------------------------------------------

_default_tracer: TracerBase = NULL_TRACER


def set_default_tracer(tracer: Optional[TracerBase]) -> TracerBase:
    """Install the process-default tracer; returns the previous one.

    The CLI's ``run --trace`` uses this so every experiment records
    without threading a tracer through each scenario's signature.
    """
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def current_tracer() -> TracerBase:
    """The process-default tracer (:data:`NULL_TRACER` unless set)."""
    return _default_tracer


def resolve_tracer(tracer: Optional[TracerBase]) -> TracerBase:
    """An explicit tracer if given, else the process default."""
    return tracer if tracer is not None else _default_tracer
