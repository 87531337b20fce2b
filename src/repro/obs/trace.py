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
from typing import Any, Iterable, NamedTuple, Optional

from .stream import StreamingSink, shard_files

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


def _held_encoder():
    """``json.dumps(record, sort_keys=True)`` with its C encoder built
    once: ``JSONEncoder.encode`` builds a fresh one per call.  Same
    bytes out; the pure-Python encoder is the fallback where ``_json``
    is missing.

    No circular-reference markers: a held markers dict keeps the ids
    of the containers an encode that raised was inside, and a later
    record holding one of them again (or a new one at a freed id)
    would be refused as circular.  A cyclic record recurses until
    ``RecursionError`` instead.
    """
    fallback = json.JSONEncoder(sort_keys=True, check_circular=False)
    if json.encoder.c_make_encoder is None:
        return fallback.encode
    iterencode = json.encoder.c_make_encoder(
        None,  # markers
        fallback.default,
        json.encoder.encode_basestring_ascii,
        None,  # indent
        fallback.key_separator,
        fallback.item_separator,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    join = "".join
    return lambda record: join(iterencode(record, 0))


_encode = _held_encoder()
# The decoder is the one ``json.loads`` dispatches to for a ``str``,
# without the per-call argument checks in front of it.  ``read_trace``
# calls its ``raw_decode`` on lines it has stripped (see there).
_decoder = json.JSONDecoder()


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
        """One-line JSON form (the JSONL trace-file record): the bytes
        ``json.dumps(record, sort_keys=True)`` writes.

        Raises:
            TypeError: ``data`` holds a value JSON cannot encode (a set,
                keys of mixed types).
            RecursionError: ``data`` contains itself (the held encoder
                keeps no circular-reference markers between records).
        """
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

        Equal keys and ``str`` values of ``data`` are one object within
        the line; :func:`read_trace` shares them across a whole trace.

        Raises:
            ValueError, KeyError, TypeError, OverflowError,
            RecursionError: the line is not one JSON object with
                ``id``/``kind``/``t`` and an object ``data``, or a
                number in it is out of range, or it nests too deep.
        """
        return _event(_decoder.decode(line), {})


#: What decoding a malformed line raises.  An ``id`` of ``1e400`` or a
#: 400-digit ``t`` overflows in the conversion, and a line of 100 000
#: ``[`` exhausts the decoder's recursion; each is one bad line.
_MALFORMED = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _event(record: Any, strings: dict[str, str]) -> TraceEvent:
    """The event one decoded trace record holds: the one place a line
    becomes a :class:`TraceEvent`.

    ``strings`` is the caller's memo.  Each key of ``data``, each
    ``str`` value of ``data`` and the ``app`` are replaced by the first
    equal string the memo holds (and added to it), so a trace read
    through one memo keeps one copy of each repeated string.  ``kind``
    is interned process-wide instead: it is a small vocabulary.

    Raises:
        KeyError, TypeError, ValueError, OverflowError: the record is
            not a JSON object with ``id``/``kind``/``t`` and an object
            ``data``, or ``id`` / ``t`` is out of range.
    """
    id = int(record["id"])  # first: a record that is no object fails here
    data = record.get("data", {})
    if not isinstance(data, dict):
        raise TypeError("trace record data must be a JSON object")
    share = strings.setdefault
    if data:
        data = {
            share(key, key): share(value, value) if type(value) is str else value
            for key, value in data.items()
        }
    app = record.get("app")
    if type(app) is str:
        app = share(app, app)
    return tuple.__new__(
        TraceEvent,
        (
            id,
            sys.intern(str(record["kind"])),
            float(record["t"]),
            app,
            record.get("epoch"),
            record.get("cause"),
            data,
        ),
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
        # Built positionally: ``data`` is always this call's own dict, so
        # ``TraceEvent.__new__``'s keyword defaults have nothing to add.
        event = tuple.__new__(
            TraceEvent,
            (
                self._next_id,
                kind,
                time,
                app if app is not None else self._app,
                epoch if epoch is not None else self._epoch,
                cause if cause else None,
                data,
            ),
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
    warning and the valid prefix is returned instead of raising.  A line
    holding a byte that is not UTF-8 is malformed; the lines around it
    are still read.

    One call keeps one string object per distinct key and ``str`` value
    of ``data`` and per ``app``, across every shard it reads (see
    ``_event``).  Nothing is shared between calls.
    """
    path = Path(path)
    shards = shard_files(path) if path.is_dir() else [path]
    strings: dict[str, str] = {}
    events: list[TraceEvent] = []
    for shard in shards:
        # An undecodable byte becomes a lone surrogate, not an error
        # that would end the read; the line holding it is refused below.
        with open(shard, encoding="utf-8", errors="surrogateescape") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if not line.isascii():
                        line.encode()  # UnicodeEncodeError on an escaped byte
                    # ``decode`` is ``raw_decode`` between two whitespace
                    # skips; on a stripped line both skip nothing.
                    record, end = _decoder.raw_decode(line)
                    if end != len(line):
                        raise ValueError("extra data after the trace record")
                    events.append(_event(record, strings))
                except _MALFORMED:
                    warnings.warn(
                        f"{shard}:{number}: skipping malformed trace line "
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


def resolve_tracer(tracer: Optional[TracerBase]) -> TracerBase:
    """An explicit tracer if given, else the process default."""
    return tracer if tracer is not None else _default_tracer
