"""Prometheus-style instruments layered on :class:`MetricsCollector`.

The paper's testbed scrapes Prometheus (§5); the reproduction's
:class:`~repro.metrics.collector.MetricsCollector` stores raw time
series.  This module adds the three Prometheus instrument families on
top, so orchestrator subsystems can expose counters (probe counts by
mode), gauges (current violations), and histograms (restart durations,
per-link utilization) that are queryable *and* exported with every
other series.

Every operation takes an explicit ``time`` — simulation time, supplied
by the instrumented component — so instruments stay clock-free and
deterministic.

Example:
    >>> registry = InstrumentRegistry()
    >>> probes = registry.counter("bass_probes_total", mode="headroom")
    >>> probes.inc(30.0)
    >>> probes.inc(60.0, 2.0)
    >>> probes.value
    3.0
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..metrics.collector import MetricsCollector, TimeSeries
from ..metrics.summary import percentile, text_histogram

#: Default histogram buckets (seconds-ish scale, Prometheus-style).
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0)


class Counter:
    """Monotonically increasing total; each ``inc`` records the running
    cumulative value into the backing series."""

    def __init__(self, series: TimeSeries) -> None:
        self.series = series
        self.value = 0.0

    def inc(self, time: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        self.series.record(time, self.value)


class Gauge:
    """A value that can go up and down; ``set`` records each sample."""

    def __init__(self, series: TimeSeries) -> None:
        self.series = series
        self.value = 0.0

    def set(self, time: float, value: float) -> None:
        self.value = value
        self.series.record(time, value)

    def inc(self, time: float, amount: float = 1.0) -> None:
        self.set(time, self.value + amount)

    def dec(self, time: float, amount: float = 1.0) -> None:
        self.set(time, self.value - amount)


class Histogram:
    """Bucketed distribution; raw observations back percentile queries.

    Cumulative bucket counts follow Prometheus ``le`` semantics (each
    bucket counts observations ≤ its upper bound, with an implicit
    +Inf bucket).  The raw samples are also recorded in the backing
    series, so exact percentiles and the text renderer stay available.
    """

    def __init__(
        self,
        series: TimeSeries,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.series = series
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0

    def observe(self, time: float, value: float) -> None:
        self.series.record(time, value)
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
        self.bucket_counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Exact percentile over the raw observations (NaN when empty)."""
        return percentile(self.series.values, q)

    def render(self, *, bins: int = 10, width: int = 40) -> str:
        """Text histogram of the raw observations (for run reports)."""
        return text_histogram(self.series.values, bins=bins, width=width)


class InstrumentRegistry:
    """Named, labelled instruments backed by one metrics collector.

    Repeated requests for the same (name, labels) return the same
    instrument; asking for a different instrument family under an
    existing key is an error.
    """

    def __init__(self, collector: Optional[MetricsCollector] = None) -> None:
        self.collector = (
            collector if collector is not None else MetricsCollector()
        )
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], object
        ] = {}

    def _get(self, factory, name: str, labels: dict[str, str], **kwargs):
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(self.collector.series(name, **labels), **kwargs)
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
    * ``bass_sweep_queue_depth`` / ``bass_sweep_steals_total`` /
      ``bass_sweep_worker_crashes_total`` — the sweep fabric's peak
      undispatched-chunk depth, chunk steals, and worker deaths
      survived, with ``bass_sweep_worker_busy_fraction{worker}`` and
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
        registry = self.registry
        kind = event.kind
        time = event.time
        if kind == "probe.max_capacity":
            registry.counter("bass_probes_total", mode="full").inc(time)
        elif kind == "probe.headroom":
            registry.counter("bass_probes_total", mode="headroom").inc(time)
            capacity = event.data.get("capacity_mbps", 0.0)
            available = event.data.get("available_mbps", 0.0)
            if capacity and capacity > 0:
                utilization = min(1.0, max(0.0, 1.0 - available / capacity))
                registry.histogram(
                    "bass_link_utilization",
                    buckets=(0.1, 0.25, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0),
                ).observe(time, utilization)
        elif kind == "violation.detected":
            registry.counter("bass_violations_total").inc(time)
        elif kind == "violation.cleared":
            registry.histogram("bass_violation_seconds").observe(
                time, event.data.get("duration_s", 0.0)
            )
        elif kind == "restart":
            registry.counter("bass_migrations_total").inc(time)
            registry.histogram("bass_restart_seconds").observe(
                time, event.data.get("restart_s", 0.0)
            )
            if event.data.get("reason") == "crash recovery":
                registry.counter("bass_recoveries_total").inc(time)
        elif kind == "migration.deflected":
            registry.counter("bass_migration_deflections_total").inc(time)
            registry.counter("bass_arbiter_conflicts_total").inc(time)
        elif kind == "fault.injected":
            registry.counter(
                "bass_faults_total",
                fault=event.data.get("fault", "unknown"),
            ).inc(time)
        elif kind == "node.confirmed_dead":
            registry.counter("bass_node_failures_detected_total").inc(time)
            registry.histogram("bass_detection_latency_seconds").observe(
                time, event.data.get("detection_latency_s", 0.0)
            )
        elif kind == "recovery.failed":
            registry.counter("bass_recovery_failures_total").inc(time)
        elif kind == "recovery.deflected":
            registry.counter("bass_arbiter_conflicts_total").inc(time)
        elif kind == "claim.conflict":
            registry.counter("bass_arbiter_conflicts_total").inc(time)
        elif kind == "handoff.requested":
            registry.counter("bass_handoffs_total", phase="requested").inc(
                time
            )
        elif kind == "handoff.denied":
            registry.counter("bass_handoffs_total", phase="denied").inc(time)
            registry.counter("bass_arbiter_conflicts_total").inc(time)
        elif kind == "handoff.aborted":
            registry.counter("bass_handoffs_total", phase="aborted").inc(time)
        elif kind == "handoff.committed":
            registry.counter("bass_handoffs_total", phase="committed").inc(
                time
            )
            registry.histogram(
                "bass_handoff_latency_seconds",
                buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0),
            ).observe(time, event.data.get("latency_s") or 0.0)
        elif kind == "cell.done":
            registry.counter("bass_sweep_cells_total", status="executed").inc(
                time
            )
            registry.histogram("bass_sweep_cell_seconds").observe(
                time, event.data.get("duration_s", 0.0)
            )
        elif kind == "cell.cached":
            registry.counter("bass_sweep_cells_total", status="cached").inc(
                time
            )
        elif kind == "cell.failed":
            registry.counter("bass_sweep_cells_total", status="failed").inc(
                time
            )
        elif kind == "sweep.fabric":
            registry.gauge("bass_sweep_queue_depth").set(
                time, float(event.data.get("max_queue_depth", 0))
            )
            registry.counter("bass_sweep_steals_total").inc(
                time, float(event.data.get("steals", 0))
            )
            registry.counter("bass_sweep_worker_crashes_total").inc(
                time, float(event.data.get("worker_crashes", 0))
            )
            for report in event.data.get("workers") or ():
                worker = str(report.get("worker", "?"))
                registry.gauge(
                    "bass_sweep_worker_busy_fraction", worker=worker
                ).set(time, float(report.get("busy_fraction", 0.0)))
                registry.gauge(
                    "bass_sweep_worker_cache_hit_rate", worker=worker
                ).set(time, float(report.get("cache_hit_rate", 0.0)))
        elif kind == "sweep.done":
            registry.gauge("bass_sweep_cells_per_second").set(
                time, event.data.get("cells_per_second", 0.0)
            )
            registry.gauge("bass_sweep_cache_hit_rate").set(
                time, event.data.get("cache_hit_rate", 0.0)
            )
        elif kind == "profile.tick_phases":
            registry.gauge("bass_tick_count").set(
                time, float(event.data.get("ticks", 0))
            )
            phase_seconds = event.data.get("phase_seconds") or {}
            for phase, seconds in sorted(phase_seconds.items()):
                registry.gauge(
                    "bass_tick_phase_seconds", phase=str(phase)
                ).set(time, float(seconds))
            for key, value in sorted(
                (event.data.get("solver") or {}).items()
            ):
                registry.gauge(f"bass_solver_{key}").set(
                    time, float(value)
                )
