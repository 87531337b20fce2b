"""Prometheus-style instruments: counters, gauges and histograms.

The paper's testbed scrapes Prometheus (§5).  This module holds the
three Prometheus instrument families, so orchestrator subsystems can
expose counters (probe counts by mode), gauges (current violations),
and histograms (restart durations, per-link utilization).  Each
instrument holds only its current value — a counter's total, a gauge's
last sample, a histogram's buckets, count and sum — which is what the
exposition (:mod:`repro.obs.exposition`) renders; the per-sample
history is the trace itself.

Every operation takes the sample's simulation time (the trace event's),
so call sites never read a wall clock; these instruments hold values
only and do not store it.

Example:
    >>> registry = InstrumentRegistry()
    >>> probes = registry.counter("bass_probes_total", mode="headroom")
    >>> probes.inc(30.0)
    >>> probes.inc(60.0, 2.0)
    >>> probes.value
    3.0
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

#: Default histogram buckets (seconds-ish scale, Prometheus-style).
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0)

#: Buckets of ``bass_handoff_latency_seconds`` (request→commit), shared
#: with the rolling windows' handoff-latency percentile.
HANDOFF_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing total."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, time: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, time: float, value: float) -> None:
        self.value = value

    def inc(self, time: float, amount: float = 1.0) -> None:
        self.set(time, self.value + amount)


class Histogram:
    """Bucketed distribution.

    Cumulative bucket counts follow Prometheus ``le`` semantics (each
    bucket counts observations ≤ its upper bound, with an implicit
    +Inf bucket).
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0

    def observe(self, time: float, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
        self.bucket_counts[-1] += 1


class InstrumentRegistry:
    """Named, labelled instruments.

    Repeated requests for the same (name, labels) return the same
    instrument; asking for a different instrument family under an
    existing key is an error.
    """

    def __init__(self) -> None:
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], object
        ] = {}

    def _get(self, factory, name: str, labels: dict[str, str], **kwargs):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(**kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"instrument {name!r}{labels} is a "
                f"{type(instrument).__name__}, not a {factory.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def items(
        self,
    ) -> list[tuple[str, tuple[tuple[str, str], ...], object]]:
        """All ``(name, labels, instrument)`` triples, deterministically
        ordered by ``(name, labels)`` — the exposition iteration order."""
        return sorted(
            (name, labels, instrument)
            for (name, labels), instrument in self._instruments.items()
        )


def link_utilization(data: Mapping[str, Any]) -> Optional[float]:
    """The link utilization a ``probe.headroom`` event's data implies.

    None when the probe carries no usable capacity (missing, null or
    non-positive); a missing ``available_mbps`` reads as a full link.
    Clamped to [0, 1]: live available bandwidth can exceed a stale
    cached capacity (e.g. right after a throttle lifts), which would
    otherwise read as a negative utilization.
    """
    capacity = data.get("capacity_mbps", 0.0)
    if capacity and capacity > 0:
        available = data.get("available_mbps", 0.0)
        return min(1.0, max(0.0, 1.0 - available / capacity))
    return None


def _held(family: str, name: str, **kwargs) -> cached_property:
    """An instrument of ``StandardInstruments.registry`` that is created
    on first use and held on the instance from then on (it is pickled
    with the instance, still shared with the registry)."""
    return cached_property(
        lambda self: getattr(self.registry, family)(name, **kwargs)
    )


class StandardInstruments:
    """Derives the standard BASS metric set from the trace stream.

    Attached to a :class:`~repro.obs.trace.Tracer`, this observes every
    emitted event and maintains:

    * ``bass_probes_total{mode}`` — probe counts by mode;
    * ``bass_violations_total`` / ``bass_violation_seconds`` — violation
      counts and continuous-violation durations;
    * ``bass_migrations_total`` / ``bass_restart_seconds`` — migrations
      and their restart windows;
    * ``bass_migration_deflections_total`` — arbiter deflections;
    * ``bass_link_utilization`` — per-headroom-probe link utilization;
    * ``bass_faults_total{fault}`` — injected faults by kind;
    * ``bass_node_failures_detected_total`` /
      ``bass_detection_latency_seconds`` — confirmed-dead nodes and the
      heartbeat detection latency distribution;
    * ``bass_recoveries_total`` / ``bass_recovery_failures_total`` —
      crash-evicted pods re-placed (or not) on surviving nodes;
    * ``bass_arbiter_conflicts_total`` — fleet-arbiter contention
      across migration deflections, recovery deflections, cross-region
      claim collisions, and denied handoffs;
    * ``bass_handoffs_total{phase}`` /
      ``bass_handoff_latency_seconds`` — cross-region handoffs by
      outcome and the request→commit latency distribution;
    * ``bass_sweep_cells_total{status}`` — sweep-runner cells by
      outcome (executed / cached / failed), with
      ``bass_sweep_cell_seconds`` timing fresh executions and the
      ``bass_sweep_cells_per_second`` / ``bass_sweep_cache_hit_rate``
      gauges carrying each sweep's closing summary;
    * ``bass_sweep_worker_crashes_total`` — the sweep fabric's worker
      deaths survived, with ``bass_sweep_worker_busy_fraction{worker}`` and
      ``bass_sweep_worker_cache_hit_rate{worker}`` carrying each warm
      worker's utilization and shared-store hit rate (from the
      ``sweep.fabric`` event);
    * ``bass_tick_count`` / ``bass_tick_phase_seconds{phase}`` /
      ``bass_solver_*`` — the emulator's tick count, cumulative wall
      time per tick phase, and incremental-solver counters, from the
      ``profile.tick_phases`` event ``run --profile`` emits.
    """

    def __init__(self, registry: Optional[InstrumentRegistry] = None) -> None:
        self.registry = (
            registry if registry is not None else InstrumentRegistry()
        )

    def on_event(self, event) -> None:  # noqa: ANN001 - TraceEvent, untyped to avoid cycle
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(self, event)

    # -- held instruments ----------------------------------------------------
    # Each is created in the registry by the first event that needs it
    # (so a family enters the exposition when its first sample does) and
    # read straight from the instance afterwards.  Instruments whose
    # name or labels come from event data go through the registry.

    _probes_full = _held("counter", "bass_probes_total", mode="full")
    _probes_headroom = _held("counter", "bass_probes_total", mode="headroom")
    _link_utilization = _held(
        "histogram",
        "bass_link_utilization",
        buckets=(0.1, 0.25, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0),
    )
    _violations = _held("counter", "bass_violations_total")
    _violation_seconds = _held("histogram", "bass_violation_seconds")
    _migrations = _held("counter", "bass_migrations_total")
    _restart_seconds = _held("histogram", "bass_restart_seconds")
    _recoveries = _held("counter", "bass_recoveries_total")
    _deflections = _held("counter", "bass_migration_deflections_total")
    _arbiter_conflicts = _held("counter", "bass_arbiter_conflicts_total")
    _node_failures = _held("counter", "bass_node_failures_detected_total")
    _detection_latency = _held("histogram", "bass_detection_latency_seconds")
    _recovery_failures = _held("counter", "bass_recovery_failures_total")
    _handoffs_requested = _held(
        "counter", "bass_handoffs_total", phase="requested"
    )
    _handoffs_denied = _held("counter", "bass_handoffs_total", phase="denied")
    _handoffs_aborted = _held(
        "counter", "bass_handoffs_total", phase="aborted"
    )
    _handoffs_committed = _held(
        "counter", "bass_handoffs_total", phase="committed"
    )
    _handoff_latency = _held(
        "histogram", "bass_handoff_latency_seconds", buckets=HANDOFF_BUCKETS
    )
    _cells_executed = _held(
        "counter", "bass_sweep_cells_total", status="executed"
    )
    _cells_cached = _held("counter", "bass_sweep_cells_total", status="cached")
    _cells_failed = _held("counter", "bass_sweep_cells_total", status="failed")
    _cell_seconds = _held("histogram", "bass_sweep_cell_seconds")
    _worker_crashes = _held("counter", "bass_sweep_worker_crashes_total")
    _cells_per_second = _held("gauge", "bass_sweep_cells_per_second")
    _cache_hit_rate = _held("gauge", "bass_sweep_cache_hit_rate")
    _tick_count = _held("gauge", "bass_tick_count")

    # -- one handler per event kind ------------------------------------------

    def _probe_max_capacity(self, event) -> None:
        self._probes_full.inc(event.time)

    def _probe_headroom(self, event) -> None:
        self._probes_headroom.inc(event.time)
        utilization = link_utilization(event.data)
        if utilization is not None:
            self._link_utilization.observe(event.time, utilization)

    def _violation_detected(self, event) -> None:
        self._violations.inc(event.time)

    def _violation_cleared(self, event) -> None:
        self._violation_seconds.observe(
            event.time, event.data.get("duration_s", 0.0)
        )

    def _restart(self, event) -> None:
        time, data = event.time, event.data
        self._migrations.inc(time)
        self._restart_seconds.observe(time, data.get("restart_s", 0.0))
        if data.get("reason") == "crash recovery":
            self._recoveries.inc(time)

    def _migration_deflected(self, event) -> None:
        self._deflections.inc(event.time)
        self._arbiter_conflicts.inc(event.time)

    def _fault_injected(self, event) -> None:
        self.registry.counter(
            "bass_faults_total", fault=event.data.get("fault", "unknown")
        ).inc(event.time)

    def _node_confirmed_dead(self, event) -> None:
        self._node_failures.inc(event.time)
        self._detection_latency.observe(
            event.time, event.data.get("detection_latency_s", 0.0)
        )

    def _recovery_failed(self, event) -> None:
        self._recovery_failures.inc(event.time)

    def _arbiter_conflict(self, event) -> None:
        self._arbiter_conflicts.inc(event.time)

    def _handoff_requested(self, event) -> None:
        self._handoffs_requested.inc(event.time)

    def _handoff_denied(self, event) -> None:
        self._handoffs_denied.inc(event.time)
        self._arbiter_conflicts.inc(event.time)

    def _handoff_aborted(self, event) -> None:
        self._handoffs_aborted.inc(event.time)

    def _handoff_committed(self, event) -> None:
        self._handoffs_committed.inc(event.time)
        self._handoff_latency.observe(
            event.time, event.data.get("latency_s") or 0.0
        )

    def _cell_done(self, event) -> None:
        self._cells_executed.inc(event.time)
        self._cell_seconds.observe(
            event.time, event.data.get("duration_s", 0.0)
        )

    def _cell_cached(self, event) -> None:
        self._cells_cached.inc(event.time)

    def _cell_failed(self, event) -> None:
        self._cells_failed.inc(event.time)

    def _sweep_fabric(self, event) -> None:
        registry, time, data = self.registry, event.time, event.data
        self._worker_crashes.inc(time, float(data.get("worker_crashes", 0)))
        for report in data.get("workers") or ():
            worker = str(report.get("worker", "?"))
            registry.gauge(
                "bass_sweep_worker_busy_fraction", worker=worker
            ).set(time, float(report.get("busy_fraction", 0.0)))
            registry.gauge(
                "bass_sweep_worker_cache_hit_rate", worker=worker
            ).set(time, float(report.get("cache_hit_rate", 0.0)))

    def _sweep_done(self, event) -> None:
        self._cells_per_second.set(
            event.time, event.data.get("cells_per_second", 0.0)
        )
        self._cache_hit_rate.set(
            event.time, event.data.get("cache_hit_rate", 0.0)
        )

    def _profile_tick_phases(self, event) -> None:
        registry, time, data = self.registry, event.time, event.data
        self._tick_count.set(time, float(data.get("ticks", 0)))
        phase_seconds = data.get("phase_seconds") or {}
        for phase, seconds in sorted(phase_seconds.items()):
            registry.gauge("bass_tick_phase_seconds", phase=str(phase)).set(
                time, float(seconds)
            )
        for key, value in sorted((data.get("solver") or {}).items()):
            registry.gauge(f"bass_solver_{key}").set(time, float(value))

    #: ``event.kind`` → handler; kinds not listed derive no metric.
    _handlers = {
        "probe.max_capacity": _probe_max_capacity,
        "probe.headroom": _probe_headroom,
        "violation.detected": _violation_detected,
        "violation.cleared": _violation_cleared,
        "restart": _restart,
        "migration.deflected": _migration_deflected,
        "fault.injected": _fault_injected,
        "node.confirmed_dead": _node_confirmed_dead,
        "recovery.failed": _recovery_failed,
        "recovery.deflected": _arbiter_conflict,
        "claim.conflict": _arbiter_conflict,
        "handoff.requested": _handoff_requested,
        "handoff.denied": _handoff_denied,
        "handoff.aborted": _handoff_aborted,
        "handoff.committed": _handoff_committed,
        "cell.done": _cell_done,
        "cell.cached": _cell_cached,
        "cell.failed": _cell_failed,
        "sweep.fabric": _sweep_fabric,
        "sweep.done": _sweep_done,
        "profile.tick_phases": _profile_tick_phases,
    }
