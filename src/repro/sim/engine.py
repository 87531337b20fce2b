"""A minimal deterministic discrete-event engine.

Events are callbacks scheduled at absolute simulation times and executed
in time order; ties break by insertion order so runs are reproducible.
There are no threads and no wall-clock dependence — a run is a pure
function of the initial state and the RNG seed.

Example:
    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule_at(2.0, lambda: fired.append(engine.now))
    >>> _ = engine.schedule_at(1.0, lambda: fired.append(engine.now))
    >>> engine.run_until(5.0)
    >>> fired
    [1.0, 2.0]
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import SimulationError

Callback = Callable[[], None]


@dataclass
class CallbackSiteStats:
    """Accumulated cost of one callback site (function/method)."""

    site: str
    count: int = 0
    total_s: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_s * 1e6 / self.count if self.count else 0.0


class EngineProfiler:
    """Per-callback-site wall-time and event-count accounting.

    Enabled via :meth:`Engine.enable_profiling`; while active, every
    executed event is timed with ``perf_counter`` and attributed to the
    function that ran.  Periodic tasks are unwrapped so their *payload*
    callback is charged, not the generic ``PeriodicTask._fire``
    trampoline.  Disabled engines pay one ``is None`` check per event.
    """

    def __init__(self) -> None:
        self._sites: dict[str, CallbackSiteStats] = {}

    @staticmethod
    def site_of(callback: Callback) -> str:
        """A stable human-readable name for a callback's code site."""
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTask):
            callback = owner._callback
        function = getattr(callback, "__func__", callback)
        module = getattr(function, "__module__", "?")
        qualname = getattr(
            function, "__qualname__", type(callback).__name__
        )
        return f"{module}.{qualname}"

    def run(self, callback: Callback) -> None:
        """Execute ``callback``, charging its wall time to its site."""
        started = _time.perf_counter()
        try:
            callback()
        finally:
            elapsed = _time.perf_counter() - started
            site = self.site_of(callback)
            stats = self._sites.get(site)
            if stats is None:
                stats = self._sites[site] = CallbackSiteStats(site)
            stats.count += 1
            stats.total_s += elapsed

    def stats(self) -> list[CallbackSiteStats]:
        """Per-site stats, most expensive first."""
        return sorted(
            self._sites.values(), key=lambda s: (-s.total_s, s.site)
        )

    def table(self) -> list[tuple[str, int, float, float]]:
        """(site, events, total_s, mean_us) rows, most expensive first."""
        return [
            (s.site, s.count, s.total_s, s.mean_us) for s in self.stats()
        ]

    def render(self) -> str:
        """The profile as an aligned text table."""
        rows = self.table()
        if not rows:
            return "(no events profiled)"
        lines = [f"{'site':<60s} {'events':>8s} {'total_s':>9s} {'mean_us':>9s}"]
        for site, count, total_s, mean_us in rows:
            lines.append(
                f"{site:<60s} {count:>8d} {total_s:>9.4f} {mean_us:>9.1f}"
            )
        return "\n".join(lines)


@dataclass(order=True)
class ScheduledEvent:
    """An event in the queue.  Ordered by (time, sequence number)."""

    time: float
    seq: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Set by the engine once the event leaves the queue (executed or
    #: skipped), so a late ``cancel`` cannot skew the live-event count.
    done: bool = field(default=False, compare=False, repr=False)
    _engine: "Optional[Engine]" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()


class PeriodicTask:
    """A callback re-armed every ``interval`` seconds until stopped.

    The callback runs first at ``start + interval``.  Stopping is
    idempotent.
    """

    def __init__(
        self, engine: "Engine", interval: float, callback: Callback
    ) -> None:
        if not 0 < interval < math.inf:
            raise SimulationError(
                f"periodic interval must be positive and finite, not {interval}"
            )
        self._engine = engine
        self._interval = interval
        self._callback = callback
        self._stopped = False
        self._event: Optional[ScheduledEvent] = engine.schedule_in(
            interval, self._fire
        )

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop future firings; a currently queued event is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._event = self._engine.schedule_in(self._interval, self._fire)


class Engine:
    """Deterministic event loop with an absolute float clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[ScheduledEvent] = []
        # A plain int, not itertools.count: the engine (including its
        # tie-break position) must serialize into checkpoints.
        self._seq = 0
        self._running = False
        self._processed = 0
        self._cancelled_pending = 0
        self._profiler: Optional[EngineProfiler] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def profiler(self) -> Optional[EngineProfiler]:
        """The active profiler, or None when profiling is off."""
        return self._profiler

    def enable_profiling(self) -> EngineProfiler:
        """Start (or resume) per-callback-site profiling; idempotent."""
        if self._profiler is None:
            self._profiler = EngineProfiler()
        return self._profiler

    @property
    def pending_events(self) -> int:
        """Number of queued (not yet executed or cancelled) events.

        O(1): the engine counts cancellations as they happen instead of
        scanning the heap.
        """
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        """Account one cancellation; compact once tombstones dominate.

        Cancelled events used to linger in the heap until their time
        came, so churny workloads (periodic tasks torn down by fault
        injection, short-lived probes) paid for dead entries on every
        push/pop.  When more than half the queue is tombstones the live
        events are re-heapified — amortized O(1) per cancellation.
        """
        self._cancelled_pending += 1
        if self._cancelled_pending * 2 > len(self._queue):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled tombstones and re-heapify the live events.

        Safe at any point — execution order depends only on each
        event's ``(time, seq)`` key, never on heap layout.  Called
        automatically once tombstones dominate, and by checkpointing so
        snapshots never serialize dead entries.
        """
        if self._cancelled_pending == 0:
            return
        for event in self._queue:
            if event.cancelled:
                event.done = True
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    @property
    def processed_events(self) -> int:
        """Total events executed since construction."""
        return self._processed

    def __getstate__(self) -> dict:
        """Pickle support for checkpoints (:mod:`repro.snap`).

        The heap is compacted first so snapshots carry only live
        events, and ``_running`` is normalized to False: a checkpoint
        written from inside an executing event (the deferred-write path
        of ``CheckpointPolicy``) must restore into an engine that can
        be run again.
        """
        self.compact()
        state = self.__dict__.copy()
        state["_running"] = False
        return state

    def schedule_at(self, time: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time``.

        Raises:
            SimulationError: if ``time`` is in the past or NaN (a NaN
                key compares false both ways and breaks the heap order
                for every other event).
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self._now})"
            )
        event = ScheduledEvent(
            time=time, seq=self._seq, callback=callback, _engine=self
        )
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def every(self, interval: float, callback: Callback) -> PeriodicTask:
        """Arm a :class:`PeriodicTask` firing every ``interval`` seconds."""
        return PeriodicTask(self, interval, callback)

    def run_until(self, end_time: float) -> None:
        """Execute events in order until the clock reaches ``end_time``.

        The clock is left exactly at ``end_time``, even if the queue drains
        earlier, so periodic observers can rely on a fixed horizon.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"end_time {end_time} is before now={self._now}"
            )
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        try:
            while self._queue and self._queue[0].time <= end_time:
                event = heapq.heappop(self._queue)
                event.done = True
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = event.time
                if self._profiler is None:
                    event.callback()
                else:
                    self._profiler.run(event.callback)
                self._processed += 1
            self._now = end_time
        finally:
            self._running = False

    def run_all(self, *, max_events: int = 10_000_000) -> None:
        """Run until the queue is empty (or ``max_events`` is hit)."""
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        executed = 0
        try:
            while self._queue:
                event = heapq.heappop(self._queue)
                event.done = True
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if executed >= max_events:
                    raise SimulationError(
                        f"run_all exceeded max_events={max_events}"
                    )
                self._now = event.time
                if self._profiler is None:
                    event.callback()
                else:
                    self._profiler.run(event.callback)
                self._processed += 1
                executed += 1
        finally:
            self._running = False
