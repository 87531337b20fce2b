"""Human-readable run reports reconstructed from a flight-recorder trace.

``bass-repro report <trace.jsonl>`` renders the causal story of a run:
where every component was placed, and — for every migration — the full
chain that led to it (headroom/goodput probe → violation → epoch plan →
selection/deflection → restart), plus summary statistics of probes,
violations, and restart costs.

The report is built purely from the JSONL trace, so it can be produced
long after the run, on another machine, from an operator's bug report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..metrics.summary import p50, p95, p99, text_histogram
from .instruments import link_utilization
from .trace import TraceEvent, read_trace

__all__ = [
    "MigrationChain",
    "RecoveryChain",
    "cause_chain",
    "migration_chains",
    "recovery_chains",
    "render_report",
    "read_trace",
]


def cause_chain(
    by_id: dict[int, TraceEvent], event: TraceEvent
) -> list[TraceEvent]:
    """The event plus its transitive causes, effect-first.

    Broken references and cycles terminate the walk rather than raise:
    a report must degrade gracefully on a truncated trace file.
    """
    chain = [event]
    seen = {event.id}
    current = event
    while current.cause is not None:
        parent = by_id.get(current.cause)
        if parent is None or parent.id in seen:
            break
        chain.append(parent)
        seen.add(parent.id)
        current = parent
    return chain


@dataclass
class MigrationChain:
    """One migration and every causal ancestor the trace records."""

    selected: TraceEvent
    restart: Optional[TraceEvent] = None
    plan: Optional[TraceEvent] = None
    violation: Optional[TraceEvent] = None
    probe: Optional[TraceEvent] = None
    deflections: list[TraceEvent] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Probe → violation → plan → selection → restart, all present."""
        return None not in (
            self.probe, self.violation, self.plan, self.restart
        )


class _TraceIndex:
    """One pass over a trace: events by id and, in trace order, by kind.

    Every section of the report and both chain reconstructions read
    from this instead of re-scanning (and re-indexing) the event list.
    """

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.by_id: dict[int, TraceEvent] = {}
        self.by_kind: dict[str, list[TraceEvent]] = defaultdict(list)
        by_id, by_kind = self.by_id, self.by_kind
        for event in events:
            by_id[event.id] = event
            by_kind[event.kind].append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return self.by_kind.get(kind, [])

    def grouped_by_cause(self, kind: str) -> dict[int, list[TraceEvent]]:
        """Events of ``kind`` that name a cause, grouped by that cause."""
        groups: dict[int, list[TraceEvent]] = {}
        for event in self.of_kind(kind):
            if event.cause is not None:
                groups.setdefault(event.cause, []).append(event)
        return groups


def migration_chains(events: Sequence[TraceEvent]) -> list[MigrationChain]:
    """Reconstruct every migration's cause chain from a trace."""
    return _migration_chains(_TraceIndex(events))


def _migration_chains(index: _TraceIndex) -> list[MigrationChain]:
    restarts_by_cause = {
        event.cause: event
        for event in index.of_kind("restart")
        if event.cause is not None
    }
    deflections_by_cause = index.grouped_by_cause("migration.deflected")

    chains = []
    for event in index.of_kind("migration.selected"):
        chain = MigrationChain(selected=event)
        chain.restart = restarts_by_cause.get(event.id)
        for ancestor in cause_chain(index.by_id, event)[1:]:
            if ancestor.kind == "epoch.plan" and chain.plan is None:
                chain.plan = ancestor
                chain.deflections = deflections_by_cause.get(ancestor.id, [])
            elif (
                ancestor.kind == "violation.detected"
                and chain.violation is None
            ):
                chain.violation = ancestor
            elif ancestor.kind.startswith("probe.") and chain.probe is None:
                chain.probe = ancestor
        chains.append(chain)
    return chains


@dataclass
class RecoveryChain:
    """One crash recovery and every causal ancestor the trace records.

    The full chain is ``fault.injected → node.suspected →
    node.confirmed_dead → recovery.plan → restart`` (one restart per
    re-placed pod; ``recovery.failed`` entries record pods no surviving
    node could take).
    """

    plan: TraceEvent
    restarts: list[TraceEvent] = field(default_factory=list)
    failures: list[TraceEvent] = field(default_factory=list)
    deflections: list[TraceEvent] = field(default_factory=list)
    confirmed: Optional[TraceEvent] = None
    suspected: Optional[TraceEvent] = None
    fault: Optional[TraceEvent] = None

    @property
    def complete(self) -> bool:
        """Fault → suspicion → confirmation → plan → restart(s), all
        present and every lost pod re-placed."""
        return (
            None not in (self.fault, self.suspected, self.confirmed)
            and bool(self.restarts)
            and not self.failures
        )


def recovery_chains(events: Sequence[TraceEvent]) -> list[RecoveryChain]:
    """Reconstruct every crash recovery's cause chain from a trace."""
    return _recovery_chains(_TraceIndex(events))


def _recovery_chains(index: _TraceIndex) -> list[RecoveryChain]:
    restarts = index.grouped_by_cause("restart")
    failures = index.grouped_by_cause("recovery.failed")
    deflections = index.grouped_by_cause("recovery.deflected")

    chains = []
    for event in index.of_kind("recovery.plan"):
        chain = RecoveryChain(plan=event)
        chain.restarts = restarts.get(event.id, [])
        chain.failures = failures.get(event.id, [])
        chain.deflections = deflections.get(event.id, [])
        for ancestor in cause_chain(index.by_id, event)[1:]:
            if (
                ancestor.kind == "node.confirmed_dead"
                and chain.confirmed is None
            ):
                chain.confirmed = ancestor
            elif ancestor.kind == "node.suspected" and chain.suspected is None:
                chain.suspected = ancestor
            elif ancestor.kind == "fault.injected" and chain.fault is None:
                chain.fault = ancestor
        chains.append(chain)
    return chains


def _describe(event: TraceEvent) -> str:
    """One-line description of an event for the report body."""
    data = event.data
    prefix = f"{event.kind} @{event.time:.1f}s"
    if event.kind == "probe.headroom":
        return (
            f"{prefix}: link {data.get('src')}->{data.get('dst')} had "
            f"{data.get('available_mbps', float('nan')):.2f} of "
            f"{data.get('capacity_mbps', float('nan')):.2f} Mbps free "
            f"(needed {data.get('required_mbps', float('nan')):.2f}, "
            f"ok={data.get('headroom_ok')})"
        )
    if event.kind == "probe.max_capacity":
        return (
            f"{prefix}: full probe of {data.get('src')}->{data.get('dst')} "
            f"measured {data.get('capacity_mbps', float('nan')):.2f} Mbps"
        )
    if event.kind == "violation.detected":
        return (
            f"{prefix}: edge {data.get('component')}->"
            f"{data.get('dependency')} goodput="
            f"{data.get('goodput', float('nan')):.2f} utilization="
            f"{data.get('utilization', float('nan')):.2f} "
            f"severity={data.get('severity', float('nan')):.2f}"
        )
    if event.kind == "epoch.plan":
        candidates = ", ".join(data.get("candidates", [])) or "(none)"
        return (
            f"{prefix}: epoch {event.epoch} planned candidates "
            f"[{candidates}] from {data.get('violations', 0)} violation(s)"
        )
    if event.kind == "migration.selected":
        return (
            f"{prefix}: move {data.get('component')} "
            f"{data.get('from')} -> {data.get('to')} "
            f"(restart {data.get('restart_s', float('nan')):.1f}s)"
        )
    if event.kind == "migration.deflected":
        granted = data.get("granted") or "nowhere (deferred)"
        return (
            f"{prefix}: {data.get('component')} deflected off "
            f"{data.get('preferred')} -> {granted} by another tenant's claim"
        )
    if event.kind == "restart":
        return (
            f"{prefix}: {data.get('component')} restarting on "
            f"{data.get('to')} for {data.get('restart_s', float('nan')):.1f}s"
        )
    if event.kind == "fault.injected":
        return (
            f"{prefix}: {data.get('fault')} hit {data.get('target')} "
            f"({data.get('flows_removed', 0)} flow(s) torn down, "
            f"{data.get('flows_rerouted', 0)} rerouted)"
        )
    if event.kind == "fault.cleared":
        return (
            f"{prefix}: {data.get('fault')} on {data.get('target')} cleared"
        )
    if event.kind == "node.suspected":
        return (
            f"{prefix}: {data.get('node')} suspected after "
            f"{data.get('missed_beats')} missed heartbeat(s)"
        )
    if event.kind == "node.confirmed_dead":
        return (
            f"{prefix}: {data.get('node')} confirmed dead "
            f"(detection latency "
            f"{data.get('detection_latency_s', float('nan')):.1f}s)"
        )
    if event.kind == "node.recovered":
        return f"{prefix}: {data.get('node')} heartbeats resumed"
    if event.kind == "recovery.plan":
        pods = ", ".join(data.get("pods", [])) or "(none)"
        return (
            f"{prefix}: re-place [{pods}] of app {event.app or '-'} "
            f"lost on {data.get('node')}"
        )
    if event.kind == "recovery.deflected":
        granted = data.get("granted") or "nowhere (stranded)"
        return (
            f"{prefix}: {data.get('component')} deflected off "
            f"{data.get('preferred')} -> {granted} by another tenant's claim"
        )
    if event.kind == "recovery.failed":
        return (
            f"{prefix}: no surviving node could take "
            f"{data.get('component')} from {data.get('node')}"
        )
    if event.kind == "region.assigned":
        previous = data.get("previous")
        verb = f"re-homed from {previous}" if previous else "homed"
        return (
            f"{prefix}: tenant {event.app or '-'} {verb} "
            f"in region {data.get('region')}"
        )
    if event.kind == "claim.conflict":
        return (
            f"{prefix}: {data.get('loser_region')}/{event.app or '-'} lost "
            f"node {data.get('node')} to {data.get('winner_region')}/"
            f"{data.get('winner_app')} "
            f"(severity {data.get('loser_severity', float('nan')):.2f} vs "
            f"{data.get('winner_severity', float('nan')):.2f})"
        )
    if event.kind == "handoff.requested":
        return (
            f"{prefix}: {data.get('component')} of {event.app or '-'} "
            f"requested {data.get('source_region')} -> "
            f"{data.get('target_region')} "
            f"({data.get('source_node')} -> {data.get('target_node')})"
        )
    if event.kind == "handoff.denied":
        return (
            f"{prefix}: handoff of {data.get('component')} denied — "
            f"node {data.get('node')} held by {data.get('holder_app')} "
            f"({data.get('holder_region')})"
        )
    if event.kind == "handoff.committed":
        latency = data.get("latency_s")
        latency_text = (
            f" after {latency:.1f}s" if latency is not None else ""
        )
        return (
            f"{prefix}: {data.get('component')} handed off "
            f"{data.get('source_region')} -> {data.get('target_region')} "
            f"onto {data.get('node')}{latency_text}"
        )
    if event.kind == "handoff.aborted":
        return (
            f"{prefix}: handoff of {data.get('component')} onto "
            f"{data.get('target_node')} aborted — {data.get('note')}"
        )
    if event.kind == "slo.breach":
        return (
            f"{prefix}: SLO {data.get('rule')} breached — "
            f"{data.get('metric')}="
            f"{data.get('observed', float('nan')):.4f} over ceiling "
            f"{data.get('max_value', float('nan')):.4f}"
        )
    if event.kind == "status.published":
        return (
            f"{prefix}: status.json revision {data.get('revision')} "
            f"published (epoch {event.epoch})"
        )
    extras = " ".join(f"{k}={v}" for k, v in sorted(data.items()))
    return f"{prefix}: {extras}" if extras else prefix


def render_report(events: Sequence[TraceEvent]) -> str:
    """Render the full run report for a trace."""
    if not events:
        return "(empty trace)"
    lines: list[str] = []
    trace = _TraceIndex(events)
    of_kind = trace.of_kind
    counts = {kind: len(bucket) for kind, bucket in trace.by_kind.items()}
    span = max(event.time for event in events)

    lines.append(f"flight recorder report — {len(events)} events, "
                 f"{span:.1f}s of simulated time")
    lines.append("")
    lines.append("event counts:")
    for kind, count in sorted(counts.items()):
        lines.append(f"  {kind:<26s} {count}")

    placements = of_kind("placement.bound")
    if placements:
        lines.append("")
        lines.append("placements:")
        for event in placements:
            lines.append(
                f"  @{event.time:.1f}s {event.app or '-'}: "
                f"{event.data.get('pod')} -> {event.data.get('node')}"
            )

    chains = _migration_chains(trace)
    lines.append("")
    lines.append(f"migrations: {len(chains)}")
    for index, chain in enumerate(chains, 1):
        app = chain.selected.app or "-"
        lines.append(f"  [{index}] app={app} {_describe(chain.selected)}")
        indent = "      "
        for label, link in (
            ("restart", chain.restart),
            ("plan", chain.plan),
            ("violation", chain.violation),
            ("probe", chain.probe),
        ):
            if link is not None:
                lines.append(f"{indent}{label:<10s} {_describe(link)}")
            else:
                lines.append(f"{indent}{label:<10s} (missing from trace)")
        for deflection in chain.deflections:
            lines.append(f"{indent}deflected  {_describe(deflection)}")
        if not chain.complete:
            lines.append(f"{indent}!! incomplete cause chain")

    recoveries = _recovery_chains(trace)
    if recoveries:
        lines.append("")
        lines.append(f"recoveries: {len(recoveries)}")
        for index, chain in enumerate(recoveries, 1):
            app = chain.plan.app or "-"
            lines.append(f"  [{index}] app={app} {_describe(chain.plan)}")
            indent = "      "
            for label, link in (
                ("confirmed", chain.confirmed),
                ("suspected", chain.suspected),
                ("fault", chain.fault),
            ):
                if link is not None:
                    lines.append(f"{indent}{label:<10s} {_describe(link)}")
                else:
                    lines.append(f"{indent}{label:<10s} (missing from trace)")
            for restart in chain.restarts:
                lines.append(f"{indent}restart    {_describe(restart)}")
            for failure in chain.failures:
                lines.append(f"{indent}failed     {_describe(failure)}")
            for deflection in chain.deflections:
                lines.append(f"{indent}deflected  {_describe(deflection)}")
            if not chain.complete:
                lines.append(f"{indent}!! incomplete cause chain")

    breaches = of_kind("slo.breach")
    if breaches:
        lines.append("")
        lines.append(f"slo breaches: {len(breaches)}")
        for index, breach in enumerate(breaches, 1):
            lines.append(f"  [{index}] {_describe(breach)}")
            for ancestor in cause_chain(trace.by_id, breach)[1:]:
                lines.append(f"      caused-by  {_describe(ancestor)}")

    deflections = of_kind("migration.deflected")
    restarts = of_kind("restart")
    restart_costs = [e.data.get("restart_s", 0.0) for e in restarts]
    utilizations = [
        utilization
        for e in of_kind("probe.headroom")
        if (utilization := link_utilization(e.data)) is not None
    ]

    lines.append("")
    lines.append("statistics:")
    lines.append(
        f"  probes: {counts.get('probe.max_capacity', 0)} full, "
        f"{counts.get('probe.headroom', 0)} headroom"
    )
    lines.append(
        f"  violations: {counts.get('violation.detected', 0)} detected, "
        f"{counts.get('violation.cleared', 0)} cleared"
    )
    lines.append(
        f"  migrations: {len(chains)} selected, {len(restarts)} restarted, "
        f"{len(deflections)} deflected"
    )
    if counts.get("fault.injected"):
        lines.append(
            f"  faults: {counts.get('fault.injected', 0)} injected, "
            f"{counts.get('fault.cleared', 0)} cleared; "
            f"{counts.get('node.confirmed_dead', 0)} node(s) confirmed dead"
        )
        recovered = sum(len(c.restarts) for c in recoveries)
        stranded = sum(len(c.failures) for c in recoveries)
        recovery_deflections = sum(len(c.deflections) for c in recoveries)
        lines.append(
            f"  recoveries: {recovered} pod(s) re-placed, "
            f"{stranded} stranded, {recovery_deflections} deflected"
        )
        latencies = [
            e.data.get("detection_latency_s", 0.0)
            for e in of_kind("node.confirmed_dead")
        ]
        if latencies:
            lines.append(
                f"  detection latency seconds: p50={p50(latencies):.2f} "
                f"p95={p95(latencies):.2f} p99={p99(latencies):.2f}"
            )
    if counts.get("handoff.requested"):
        lines.append(
            f"  handoffs: {counts.get('handoff.requested', 0)} requested, "
            f"{counts.get('handoff.committed', 0)} committed, "
            f"{counts.get('handoff.aborted', 0)} aborted, "
            f"{counts.get('handoff.denied', 0)} denied"
        )
        handoff_latencies = [
            e.data["latency_s"]
            for e in of_kind("handoff.committed")
            if e.data.get("latency_s") is not None
        ]
        if handoff_latencies:
            lines.append(
                f"  handoff latency seconds: "
                f"p50={p50(handoff_latencies):.2f} "
                f"p95={p95(handoff_latencies):.2f} "
                f"p99={p99(handoff_latencies):.2f}"
            )
    arbiter_conflicts = (
        len(deflections)
        + counts.get("recovery.deflected", 0)
        + counts.get("claim.conflict", 0)
        + counts.get("handoff.denied", 0)
    )
    if arbiter_conflicts and (
        counts.get("claim.conflict") or counts.get("handoff.denied")
    ):
        lines.append(f"  arbiter conflicts: {arbiter_conflicts} total")
    if restart_costs:
        lines.append(
            f"  restart seconds: p50={p50(restart_costs):.2f} "
            f"p95={p95(restart_costs):.2f} p99={p99(restart_costs):.2f}"
        )
        lines.append("  restart-cost histogram:")
        lines.extend(
            "    " + row
            for row in text_histogram(restart_costs, bins=6).splitlines()
        )
    if utilizations:
        lines.append("  probed link-utilization histogram:")
        lines.extend(
            "    " + row
            for row in text_histogram(utilizations, bins=8).splitlines()
        )

    profiles = of_kind("profile.tick_phases")
    if profiles:
        last = profiles[-1]
        ticks = last.data.get("ticks", 0)
        lines.append("")
        lines.append(
            f"tick profile @{last.time:.1f}s — {ticks} emulator tick(s), "
            f"wall clock:"
        )
        for phase, seconds in sorted(
            (last.data.get("phase_seconds") or {}).items()
        ):
            per_ms = seconds / ticks * 1000.0 if ticks else 0.0
            lines.append(
                f"  {phase:<14s} {seconds:9.3f}s total "
                f"{per_ms:8.3f} ms/tick"
            )
        solver = last.data.get("solver") or {}
        if solver:
            lines.append(
                f"  solver: {solver.get('full_solves', 0)} full solve(s), "
                f"{solver.get('partial_solves', 0)} partial, "
                f"{solver.get('components_resolved', 0)} component(s) "
                f"re-solved of {solver.get('components', 0)}"
            )

    sweep_dones = of_kind("sweep.done")
    if sweep_dones:
        fabrics = {e.data.get("sweep"): e for e in of_kind("sweep.fabric")}
        lines.append("")
        lines.append(f"sweeps: {len(sweep_dones)}")
        for done in sweep_dones:
            name = done.data.get("sweep", "-")
            lines.append(
                f"  {name}: backend={done.data.get('backend', 'serial')} "
                f"{done.data.get('cells', 0)} cell(s) — "
                f"{done.data.get('executed', 0)} executed, "
                f"{done.data.get('cached', 0)} cached, "
                f"{done.data.get('failed', 0)} failed; "
                f"{done.data.get('cells_per_second', 0.0):.2f} cells/s, "
                f"cache hit rate "
                f"{done.data.get('cache_hit_rate', 0.0):.0%}"
            )
            fabric = fabrics.get(name)
            if fabric is None:
                continue
            lines.append(
                f"    fabric: {fabric.data.get('jobs', 0)} worker(s), "
                f"{fabric.data.get('dispatched', 0)} cell(s) dispatched, "
                f"{fabric.data.get('worker_crashes', 0)} crash(es) "
                f"survived"
            )
            for report in fabric.data.get("workers") or ():
                crashed = " !! crashed" if report.get("crashed") else ""
                lines.append(
                    f"    worker {report.get('worker', '?')}: "
                    f"{report.get('cells', 0)} cell(s), "
                    f"busy {report.get('busy_fraction', 0.0):.0%}, "
                    f"cache hit rate "
                    f"{report.get('cache_hit_rate', 0.0):.0%}{crashed}"
                )
    return "\n".join(lines)
