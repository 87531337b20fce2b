"""Observability: flight-recorder tracing, instruments, run reports,
and the live status plane.

The flight recorder (:mod:`repro.obs.trace`) records every orchestrator
decision as a causally-linked event; :mod:`repro.obs.instruments`
derives Prometheus-style counters/gauges/histograms from it;
:mod:`repro.obs.report` reconstructs a human-readable timeline — every
migration with its full cause chain — from a saved trace.

The live half: :mod:`repro.obs.stream` bounds trace memory with
rotating JSONL shards, :mod:`repro.obs.exposition` renders OpenMetrics
text and O(1) rolling windows, :mod:`repro.obs.slo` evaluates
declarative watchdogs on those windows, :mod:`repro.obs.status`
publishes versioned ``status.json`` snapshots every k epochs (the
publisher owns the windows and the watchdog), and
:mod:`repro.obs.serve` exposes it all over HTTP for ``bass-repro
serve``.
"""

from .exposition import (
    CONTENT_TYPE,
    RollingPercentile,
    RollingRate,
    RollingWindows,
    escape_label_value,
    render_openmetrics,
)
from .instruments import (
    Counter,
    Gauge,
    Histogram,
    InstrumentRegistry,
    StandardInstruments,
)
from .report import migration_chains, render_report
from .slo import DEFAULT_SLO_RULES, SloRule, SloWatchdog
from .status import STATUS_VERSION, StatusPublisher
from .stream import StreamingSink
from .trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    read_trace,
    resolve_tracer,
    set_default_tracer,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_SLO_RULES",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "InstrumentRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RollingPercentile",
    "RollingRate",
    "RollingWindows",
    "STATUS_VERSION",
    "SloRule",
    "SloWatchdog",
    "StandardInstruments",
    "StatusPublisher",
    "StreamingSink",
    "TraceEvent",
    "Tracer",
    "escape_label_value",
    "migration_chains",
    "read_trace",
    "render_openmetrics",
    "render_report",
    "resolve_tracer",
    "set_default_tracer",
]
