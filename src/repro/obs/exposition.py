"""OpenMetrics/Prometheus text exposition + O(1) rolling-window aggregates.

Two halves of the live ``/metrics`` endpoint:

* :func:`render_openmetrics` renders an entire
  :class:`~repro.obs.instruments.InstrumentRegistry` in the Prometheus
  text format — ``# HELP``/``# TYPE`` metadata, escaped label sets,
  histogram ``_bucket``/``_sum``/``_count`` families — with a
  deterministic ``(name, labels)`` ordering so two scrapes of the same
  state are byte-identical.
* :class:`RollingWindows` is a trace observer
  (:meth:`~repro.obs.trace.Tracer.add_observer`) maintaining
  time-windowed aggregates — probe rate per link, violation rate,
  handoff/detection latency p95 — in O(1) amortized work per sample,
  via fixed slot rings rather than per-sample lists.  These back both
  the rolling gauges in ``/metrics`` and the SLO watchdogs
  (:mod:`repro.obs.slo`).

Example:
    >>> from repro.obs.instruments import InstrumentRegistry
    >>> registry = InstrumentRegistry()
    >>> registry.counter("bass_probes_total", mode="headroom").inc(30.0)
    >>> print(render_openmetrics(registry), end="")
    # HELP bass_probes_total Net-monitor probes sent, by probe mode.
    # TYPE bass_probes_total counter
    bass_probes_total{mode="headroom"} 1
    # EOF
"""

from __future__ import annotations

import math
from typing import Optional

from .instruments import (
    HANDOFF_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    InstrumentRegistry,
)

#: Content type a conforming scraper expects from ``/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: HELP strings for the standard metric set (unknown names fall back to
#: a generic line so third-party instruments still render).
HELP_TEXT = {
    "bass_probes_total": "Net-monitor probes sent, by probe mode.",
    "bass_link_utilization": "Per-headroom-probe link utilization.",
    "bass_violations_total": "Goodput/utilization trigger trips.",
    "bass_violation_seconds": "Continuous-violation durations.",
    "bass_migrations_total": "Pod migrations committed.",
    "bass_migration_deflections_total": "Arbiter-deflected migrations.",
    "bass_restart_seconds": "Restart windows opened by migrations.",
    "bass_faults_total": "Injected faults, by kind.",
    "bass_node_failures_detected_total": "Nodes confirmed dead.",
    "bass_detection_latency_seconds": "Heartbeat failure-detection latency.",
    "bass_recoveries_total": "Crash-evicted pods re-placed.",
    "bass_recovery_failures_total": "Lost pods with no placement.",
    "bass_arbiter_conflicts_total": "Fleet-arbiter contention events.",
    "bass_handoffs_total": "Cross-region handoffs, by phase.",
    "bass_handoff_latency_seconds": "Handoff request-to-commit latency.",
    "bass_sweep_cells_total": "Sweep cells settled, by status.",
    "bass_sweep_cell_seconds": "Fresh sweep-cell execution time.",
    "bass_sweep_cells_per_second": "Closing sweep throughput.",
    "bass_sweep_cache_hit_rate": "Closing sweep cache hit rate.",
    "bass_sweep_worker_crashes_total": "Sweep worker deaths survived.",
    "bass_sweep_worker_busy_fraction": (
        "Warm-worker busy time over lifetime, per worker."
    ),
    "bass_sweep_worker_cache_hit_rate": (
        "Shared result-store hit rate, per warm worker."
    ),
    "bass_rolling_probe_rate_per_second": (
        "Probe rate over the rolling window, fleet-wide and per link."
    ),
    "bass_rolling_violation_rate_per_second": (
        "Violation detections per second over the rolling window."
    ),
    "bass_rolling_handoff_latency_p95_seconds": (
        "p95 handoff latency over the rolling window."
    ),
    "bass_rolling_detection_latency_p95_seconds": (
        "p95 failure-detection latency over the rolling window."
    ),
    "bass_tick_count": "Emulator fluid-model ticks executed.",
    "bass_tick_phase_seconds": (
        "Cumulative emulator tick wall time, by phase (wall clock)."
    ),
    "bass_solver_full_solves": (
        "From-scratch max-min solves (whole component structure built: "
        "first solve or topology change)."
    ),
    "bass_solver_partial_solves": (
        "Max-min solves that re-filled one or more components: those a flow "
        "change touched or a capacity move may bind (a moved link without "
        "slack; below 128 flows, demands that do not fit). The rest keep "
        "their rates."
    ),
    "bass_solver_components_resolved": (
        "Connected components water-filled across all partial solves."
    ),
    "bass_solver_components": "Connected components in the flow set.",
}


def escape_label_value(value: str) -> str:
    r"""Escape a label value per the OpenMetrics text format.

    Backslash, double-quote, and newline are the three characters the
    spec requires escaping inside a quoted label value.

    >>> escape_label_value('say "hi"\n')
    'say \\"hi\\"\\n'
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Render a sample value: integral floats lose the trailing ``.0``
    (Prometheus style), non-finite values use Go spellings."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    """``{k="v",...}`` with escaped values, or ``""`` when unlabelled."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"' for key, value in labels
    )
    return "{" + inner + "}"


def _render_histogram(
    lines: list[str],
    name: str,
    labels: tuple[tuple[str, str], ...],
    histogram: Histogram,
) -> None:
    for bound, cumulative in zip(
        histogram.buckets, histogram.bucket_counts
    ):
        bucket_labels = labels + (("le", format_value(bound)),)
        lines.append(
            f"{name}_bucket{format_labels(bucket_labels)} "
            f"{format_value(cumulative)}"
        )
    inf_labels = labels + (("le", "+Inf"),)
    lines.append(
        f"{name}_bucket{format_labels(inf_labels)} "
        f"{format_value(histogram.bucket_counts[-1])}"
    )
    lines.append(f"{name}_sum{format_labels(labels)} {format_value(histogram.sum)}")
    lines.append(
        f"{name}_count{format_labels(labels)} {format_value(histogram.count)}"
    )


def tick_profile_samples(
    phase_stats: dict, solver_stats: dict
) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
    """``(name, labels, value)`` rows for the emulator's tick profile.

    Takes the plain dicts ``NetworkEmulator.tick_phase_stats()`` /
    ``solver_stats()`` return, so the scrape handler can expose the
    live numbers as transient gauges without writing them into any
    pickled registry state (serve checkpoints must not depend on when
    a scraper happened to hit ``/metrics``).
    """
    samples: list[tuple[str, tuple[tuple[str, str], ...], float]] = [
        ("bass_tick_count", (), float(phase_stats.get("ticks", 0)))
    ]
    for phase, seconds in sorted(
        (phase_stats.get("seconds") or {}).items()
    ):
        samples.append(
            ("bass_tick_phase_seconds", (("phase", str(phase)),),
             float(seconds))
        )
    for key, value in sorted(solver_stats.items()):
        samples.append((f"bass_solver_{key}", (), float(value)))
    return samples


def render_openmetrics(
    registry: InstrumentRegistry,
    windows: Optional["RollingWindows"] = None,
    *,
    now: Optional[float] = None,
    extra_samples: Optional[list] = None,
) -> str:
    """The whole registry (plus rolling gauges) in Prometheus text form.

    Samples are grouped per metric name under one ``# HELP``/``# TYPE``
    block and ordered deterministically by ``(name, labels)``; the
    output ends with the OpenMetrics ``# EOF`` marker.
    ``extra_samples`` takes additional bare ``(name, labels, value)``
    rows (e.g. :func:`tick_profile_samples`) merged into the same
    ordering.
    """
    samples: list[tuple[str, tuple[tuple[str, str], ...], object]] = list(
        registry.items()
    )
    if windows is not None:
        at = now if now is not None else windows.last_time
        samples.extend(windows.gauge_samples(at))
    if extra_samples:
        samples.extend(extra_samples)
    if windows is not None or extra_samples:
        samples.sort(key=lambda entry: (entry[0], entry[1]))
    lines: list[str] = []
    previous_name: Optional[str] = None
    for name, labels, instrument in samples:
        if name != previous_name:
            help_text = HELP_TEXT.get(name, "BASS reproduction metric.")
            if isinstance(instrument, Counter):
                family = "counter"
            elif isinstance(instrument, Histogram):
                family = "histogram"
            else:
                family = "gauge"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family}")
            previous_name = name
        if isinstance(instrument, Histogram):
            _render_histogram(lines, name, labels, instrument)
        elif isinstance(instrument, (Counter, Gauge)):
            lines.append(
                f"{name}{format_labels(labels)} "
                f"{format_value(instrument.value)}"
            )
        else:  # a bare (name, labels, value) rolling-gauge sample
            lines.append(
                f"{name}{format_labels(labels)} "
                f"{format_value(float(instrument))}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- rolling windows ----------------------------------------------------------


class RollingRate:
    """Events-per-second over a sliding window, O(1) per sample.

    The window is divided into ``slots`` fixed time slices; each sample
    lands in the slice covering its timestamp and a running total is
    kept, so :meth:`add` does constant work no matter the run length.
    Slices older than the window are retired lazily as time advances.

    >>> rate = RollingRate(window_s=10.0, slots=10)
    >>> for t in (0.5, 1.5, 2.5, 3.5):
    ...     rate.add(t)
    >>> rate.rate(4.0)
    0.4
    >>> rate.rate(104.0)  # everything aged out
    0.0
    """

    def __init__(self, window_s: float = 300.0, slots: int = 60) -> None:
        if window_s <= 0 or slots < 1:
            raise ValueError("window_s must be > 0 and slots >= 1")
        self.window_s = window_s
        self.slot_s = window_s / slots
        self.slots = slots
        self._slot_ids = [-1] * slots
        self._counts = [0] * slots
        self._total = 0

    def _advance(self, slot_id: int) -> int:
        """Claim the ring position for ``slot_id``, retiring stale data."""
        position = slot_id % self.slots
        if self._slot_ids[position] != slot_id:
            self._total -= self._counts[position]
            self._counts[position] = 0
            self._slot_ids[position] = slot_id
        return position

    def add(self, time: float, amount: int = 1) -> None:
        position = self._advance(int(time / self.slot_s))
        self._counts[position] += amount
        self._total += amount

    def count(self, now: float) -> int:
        """Samples inside ``[now - window, now]`` (O(slots), scrape-side)."""
        oldest = int(now / self.slot_s) - self.slots + 1
        return sum(
            count
            for slot_id, count in zip(self._slot_ids, self._counts)
            if slot_id >= oldest
        )

    def rate(self, now: float) -> float:
        return self.count(now) / self.window_s


class RollingPercentile:
    """Windowed percentile from per-slot bucket histograms.

    Each time slice keeps a fixed bucket-count array; observing is
    O(buckets) — constant — and the scrape-side percentile merges the
    live slices and walks the cumulative distribution, reporting the
    upper bound of the bucket containing the requested quantile.

    >>> p = RollingPercentile((1.0, 5.0, 10.0), window_s=60.0, slots=6)
    >>> for value in (0.2, 0.4, 0.6, 8.0):
    ...     p.observe(30.0, value)
    >>> p.percentile(30.0, 0.5)
    1.0
    >>> p.percentile(30.0, 0.95)
    10.0
    """

    def __init__(
        self,
        buckets: tuple[float, ...],
        *,
        window_s: float = 300.0,
        slots: int = 60,
    ) -> None:
        self.buckets = tuple(sorted(buckets))
        self.window_s = window_s
        self.slot_s = window_s / slots
        self.slots = slots
        width = len(self.buckets) + 1  # +Inf last
        self._slot_ids = [-1] * slots
        self._counts = [[0] * width for _ in range(slots)]

    def observe(self, time: float, value: float) -> None:
        slot_id = int(time / self.slot_s)
        position = slot_id % self.slots
        if self._slot_ids[position] != slot_id:
            self._counts[position] = [0] * (len(self.buckets) + 1)
            self._slot_ids[position] = slot_id
        counts = self._counts[position]
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                return
        counts[-1] += 1

    def percentile(self, now: float, q: float) -> float:
        """Upper bound of the bucket holding quantile ``q`` (NaN when
        the window is empty, ``inf`` when it lands in the +Inf bucket)."""
        oldest = int(now / self.slot_s) - self.slots + 1
        merged = [0] * (len(self.buckets) + 1)
        for slot_id, counts in zip(self._slot_ids, self._counts):
            if slot_id >= oldest:
                for index, count in enumerate(counts):
                    merged[index] += count
        total = sum(merged)
        if total == 0:
            return float("nan")
        threshold = q * total
        cumulative = 0
        for index, count in enumerate(merged):
            cumulative += count
            if cumulative >= threshold and count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return float("inf")
        return float("inf")


#: Detection-latency buckets cover the heartbeat-miss scale.
DETECTION_BUCKETS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)


class RollingWindows:
    """Trace observer maintaining the live rolling-window aggregates.

    Attach with :meth:`repro.obs.trace.Tracer.add_observer`; every
    event updates the relevant window in O(1) and records the event id
    as the window's *last contributor* so an SLO breach can cite the
    offending event as its ``cause``.
    """

    def __init__(self, window_s: float = 300.0, slots: int = 60) -> None:
        self.window_s = window_s
        self.probe_rate = RollingRate(window_s, slots)
        self.link_probe_rates: dict[str, RollingRate] = {}
        self.violation_rate = RollingRate(window_s, slots)
        self.handoff_latency = RollingPercentile(
            HANDOFF_BUCKETS, window_s=window_s, slots=slots
        )
        self.detection_latency = RollingPercentile(
            DETECTION_BUCKETS, window_s=window_s, slots=slots
        )
        self.last_time = 0.0
        #: metric key -> id of the last event that fed it (SLO causes).
        self.last_event_id: dict[str, int] = {}

    def on_event(self, event) -> None:  # noqa: ANN001 - TraceEvent, untyped to avoid cycle
        kind = event.kind
        time = event.time
        if time > self.last_time:
            self.last_time = time
        if kind in ("probe.headroom", "probe.max_capacity"):
            self.probe_rate.add(time)
            self.last_event_id["probe_rate"] = event.id
            src = event.data.get("src")
            dst = event.data.get("dst")
            if src and dst:
                link = f"{src}->{dst}"
                per_link = self.link_probe_rates.get(link)
                if per_link is None:
                    per_link = RollingRate(
                        self.window_s, self.probe_rate.slots
                    )
                    self.link_probe_rates[link] = per_link
                per_link.add(time)
        elif kind == "violation.detected":
            self.violation_rate.add(time)
            self.last_event_id["violation_rate"] = event.id
        elif kind == "handoff.committed":
            self.handoff_latency.observe(
                time, event.data.get("latency_s") or 0.0
            )
            self.last_event_id["handoff_latency_p95"] = event.id
        elif kind == "node.confirmed_dead":
            self.detection_latency.observe(
                time, event.data.get("detection_latency_s", 0.0)
            )
            self.last_event_id["detection_latency_p95"] = event.id

    # -- scrape-side views -------------------------------------------------

    def value(self, metric: str, now: Optional[float] = None) -> float:
        """Current value of a named rolling metric (SLO rule targets)."""
        at = now if now is not None else self.last_time
        if metric == "probe_rate":
            return self.probe_rate.rate(at)
        if metric == "violation_rate":
            return self.violation_rate.rate(at)
        if metric == "handoff_latency_p95":
            return self.handoff_latency.percentile(at, 0.95)
        if metric == "detection_latency_p95":
            return self.detection_latency.percentile(at, 0.95)
        raise KeyError(f"unknown rolling metric {metric!r}")

    def gauge_samples(
        self, now: float
    ) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        """``(name, labels, value)`` rows for the exposition renderer."""
        samples: list[tuple[str, tuple[tuple[str, str], ...], float]] = [
            (
                "bass_rolling_probe_rate_per_second",
                (("scope", "fleet"),),
                self.probe_rate.rate(now),
            ),
            (
                "bass_rolling_violation_rate_per_second",
                (),
                self.violation_rate.rate(now),
            ),
        ]
        for link in sorted(self.link_probe_rates):
            samples.append(
                (
                    "bass_rolling_probe_rate_per_second",
                    (("link", link),),
                    self.link_probe_rates[link].rate(now),
                )
            )
        p95 = self.handoff_latency.percentile(now, 0.95)
        if not math.isnan(p95):
            samples.append(
                ("bass_rolling_handoff_latency_p95_seconds", (), p95)
            )
        detection = self.detection_latency.percentile(now, 0.95)
        if not math.isnan(detection):
            samples.append(
                ("bass_rolling_detection_latency_p95_seconds", (), detection)
            )
        return samples
