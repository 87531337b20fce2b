"""Frozen oracles the production kernels are proven bit-identical to.

These are the original, obviously-correct scalar implementations that
``src/`` used to ship beside their optimized replacements.  They are
test fixtures, not product: nothing under ``src/`` imports this module.

* :func:`max_min_allocation_reference` — the per-round water-filling
  loop that rebuilds the flows-per-link map every round, and
  :func:`reference_allocation`, which runs it per link-connected
  component (the canonical decomposed semantics ``max_min_allocation``
  implements); :func:`forced_kernel` pins ``max_min_allocation`` to one
  of its two kernels; :class:`ComponentBatchReference` is the batched
  kernel's layout compiled by the row walk the integer gather replaced.
* :class:`LinkQueue` — the one-queue-per-object fluid queue whose
  ``update`` arithmetic ``QueueArrays.update_all`` replays elementwise,
  and :class:`LockstepQueue`, which steps one production row beside it
  and refuses to report a value the two disagree on.
* :func:`whole_fleet_estimate` — the migration planner's what-if as it
  was before it was scoped: every flow of the fleet but the
  component's own, solved at a fresh ``capacities_now()``.
* :func:`event_to_json_reference`, :func:`read_trace_reference` and
  :func:`on_event_reference` — the telemetry spine as it was before it
  was made cheap: ``json.dumps`` per record, ``json.loads`` per line,
  and the if/elif chain that re-derived every instrument per event.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.binding import edge_flow_id
from repro.errors import RoutingError, SimulationError
from repro.net.fairness import (
    _EPSILON,
    FlowDemand,
    LinkKey,
    _partition_flows,
    _water_fill,
    link_components,
    max_min_allocation,
)
from repro.net.queues import QueueArrays
from repro.obs.instruments import InstrumentRegistry
from repro.obs.trace import TraceEvent


def max_min_allocation_reference(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> dict[Hashable, float]:
    """The frozen reference water-filling implementation (the oracle).

    Rebuilds the flows-per-link incidence map every round; correct and
    simple, but the rebuild dominates on large instances.  Kept verbatim
    so the optimized solvers can be proven bit-compatible against it and
    the perf harness can measure the speedup honestly.
    """
    rates: dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    remaining = {key: float(cap) for key, cap in capacities.items()}

    active: dict[Hashable, FlowDemand] = {}
    for flow in flows:
        if flow.demand_mbps <= _EPSILON:
            continue
        if not flow.links:
            rates[flow.flow_id] = flow.demand_mbps  # loopback
            continue
        for key in flow.links:
            if key not in remaining:
                raise KeyError(f"flow {flow.flow_id!r} uses unknown link {key}")
        active[flow.flow_id] = flow

    while active:
        flows_on_link: dict[LinkKey, int] = {}
        for flow in active.values():
            for key in flow.links:
                flows_on_link[key] = flows_on_link.get(key, 0) + 1

        # Largest uniform increment every active flow can take.
        delta = min(
            remaining[key] / count for key, count in flows_on_link.items()
        )
        delta = min(
            delta,
            min(
                flow.demand_mbps - rates[fid]
                for fid, flow in active.items()
            ),
        )
        delta = max(delta, 0.0)

        for fid in active:
            rates[fid] += delta
        for key, count in flows_on_link.items():
            remaining[key] -= delta * count

        # Retire satisfied flows, then flows pinned by a saturated link.
        satisfied = [
            fid
            for fid, flow in active.items()
            if rates[fid] >= flow.demand_mbps - _EPSILON
        ]
        for fid in satisfied:
            del active[fid]
        saturated = {
            key
            for key, cap in remaining.items()
            if cap <= _EPSILON and flows_on_link.get(key)
        }
        if saturated:
            pinned = [
                fid
                for fid, flow in active.items()
                if any(key in saturated for key in flow.links)
            ]
            for fid in pinned:
                del active[fid]
        elif not satisfied and delta <= _EPSILON:
            break  # numerical dead-end; all remaining rates stay put

    return rates


def reference_allocation(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> dict[Hashable, float]:
    """The oracle for a general instance: the reference loop run on
    each link-connected component on its own."""
    rates, active = _partition_flows(flows, capacities)
    for component in link_components(active):
        rates.update(
            max_min_allocation_reference(
                list(component.values()), capacities
            )
        )
    return rates


def forced_kernel(fill: Callable) -> Callable:
    """``max_min_allocation`` with its kernel choice overridden by
    ``fill`` (``fairness._fill_indexed`` or ``fairness._fill_batched``)."""

    def solve(
        flows: Sequence[FlowDemand], capacities: Mapping[LinkKey, float]
    ) -> dict[Hashable, float]:
        rates, active = _partition_flows(flows, capacities)
        fill(rates, link_components(active), capacities)
        return rates

    return solve


def whole_fleet_estimate(planner, component, node, deployment, netem) -> float:
    """``MigrationPlanner._estimate_achievable`` priced over the whole
    fleet: all current flows except the component's own edges stay put,
    the component's edges are re-routed as if it ran on ``node``, and
    the fair allocation is recomputed.  Loopback edges count at full
    demand; an unreachable peer contributes nothing."""
    app = planner.dag.app
    own_flow_ids = {
        edge_flow_id(app, component, peer)
        if role == "out"
        else edge_flow_id(app, peer, component)
        for peer, role, _ in planner._component_edges(component)
    }

    demands = [
        FlowDemand(
            flow_id=flow.flow_id,
            links=flow.links,
            demand_mbps=flow.demand_mbps,
        )
        for flow in netem.flows
        if flow.flow_id not in own_flow_ids
    ]
    loopback_total = 0.0
    hypothetical_ids = []
    for peer, role, mbps in planner._component_edges(component):
        if mbps <= 0 or not deployment.is_deployed(peer):
            continue
        peer_node = deployment.node_of(peer)
        if peer_node == node:
            loopback_total += mbps
            continue
        src, dst = (node, peer_node) if role == "out" else (peer_node, node)
        try:
            path = netem.router.traceroute(src, dst)
        except RoutingError:
            continue
        flow_id = f"__whatif_{component}_{role}_{peer}"
        demands.append(
            FlowDemand(
                flow_id=flow_id,
                links=tuple(zip(path, path[1:])),
                demand_mbps=mbps,
            )
        )
        hypothetical_ids.append(flow_id)
    rates = max_min_allocation(demands, netem.capacities_now())
    return loopback_total + sum(rates[fid] for fid in hypothetical_ids)


class ComponentBatchReference:
    """The batched kernel's layout as it was compiled before it was
    gathered: a Python walk over every flow row of every component.

    Frozen from ``ComponentBatch.__init__`` — flows component-major in
    the order given, links in first-appearance order — so the gathered
    ``fairness._Layout`` can be held to the rates this layout fills to.
    :meth:`fill` water-fills every component through the production
    round loop (``fairness._water_fill``, which is not what changed).
    """

    def __init__(
        self, components: Sequence[Mapping[Hashable, FlowDemand]]
    ) -> None:
        flow_ids: list[Hashable] = []
        demand: list[float] = []
        link_index: dict[LinkKey, int] = {}
        entry_flow: list[int] = []
        entry_link: list[int] = []
        flow_starts: list[int] = []
        link_starts: list[int] = []
        for component in components:
            flow_starts.append(len(flow_ids))
            link_starts.append(len(link_index))
            for fid, flow in component.items():
                fi = len(flow_ids)
                flow_ids.append(fid)
                demand.append(flow.demand_mbps)
                for key in flow.links:
                    li = link_index.get(key)
                    if li is None:
                        li = link_index[key] = len(link_index)
                    entry_flow.append(fi)
                    entry_link.append(li)
        self.flow_ids = flow_ids
        self.link_keys = list(link_index)
        self.flow_starts = flow_starts + [len(flow_ids)]
        self.link_starts = link_starts + [len(link_index)]
        self.demand = np.array(demand, dtype=np.float64)
        self.entry_flow = np.array(entry_flow, dtype=np.intp)
        self.entry_link = np.array(entry_link, dtype=np.intp)
        self.counts0 = np.bincount(
            self.entry_link, minlength=len(link_index)
        ).astype(np.float64)
        ids = np.arange(len(components))
        self.comp_of_flow = np.repeat(ids, np.diff(self.flow_starts))
        self.comp_of_link = np.repeat(ids, np.diff(self.link_starts))

    def fill(self, capacities: Mapping[LinkKey, float]) -> dict[Hashable, float]:
        cap = np.array(
            [float(capacities[key]) for key in self.link_keys], dtype=np.float64
        )
        rates = _water_fill(
            self.demand,
            self.counts0.copy(),
            cap,
            self.entry_flow,
            self.entry_link,
            self.comp_of_flow,
            self.comp_of_link,
            np.diff(self.flow_starts),
            np.diff(self.link_starts),
        )
        return dict(zip(self.flow_ids, rates.tolist()))


@dataclass
class QueueSample:
    """Snapshot of a queue after an update step."""

    backlog_mbit: float
    delay_s: float
    loss_fraction: float


class LinkQueue:
    """Fluid FIFO queue for one direction of a link.

    Args:
        buffer_mbit: buffer size in megabits.  The default (25 Mbit,
            ~3 MB) is a typical CPE buffer: enough to absorb second-scale
            bursts, small enough that sustained overload drops packets.
    """

    def __init__(self, buffer_mbit: float = 25.0) -> None:
        if buffer_mbit <= 0:
            raise SimulationError("buffer_mbit must be positive")
        self._buffer_mbit = buffer_mbit
        self._backlog_mbit = 0.0
        self._last_loss_fraction = 0.0
        self._dropped_mbit_total = 0.0

    @property
    def backlog_mbit(self) -> float:
        return self._backlog_mbit

    @property
    def buffer_mbit(self) -> float:
        return self._buffer_mbit

    @property
    def dropped_mbit_total(self) -> float:
        return self._dropped_mbit_total

    @property
    def last_loss_fraction(self) -> float:
        """Fraction of offered traffic dropped during the last update."""
        return self._last_loss_fraction

    def delay_s(self, capacity_mbps: float) -> float:
        """Time the newest arriving bit waits behind the backlog."""
        if capacity_mbps <= 0:
            # A dead link holds its backlog indefinitely; report the
            # worst case bounded by the buffer at a nominal 1 Mbps drain.
            return self._backlog_mbit / 1.0
        return self._backlog_mbit / capacity_mbps

    def update(
        self, dt_s: float, offered_mbps: float, capacity_mbps: float
    ) -> QueueSample:
        """Advance the fluid queue by ``dt_s`` seconds.

        Args:
            dt_s: step length.
            offered_mbps: total traffic arriving at the queue.
            capacity_mbps: drain rate during the step.

        Returns:
            The post-step :class:`QueueSample`.
        """
        if dt_s < 0:
            raise SimulationError("dt_s must be non-negative")
        offered_mbit = max(offered_mbps, 0.0) * dt_s
        drained_mbit = max(capacity_mbps, 0.0) * dt_s
        backlog = self._backlog_mbit + offered_mbit - drained_mbit
        dropped = 0.0
        if backlog > self._buffer_mbit:
            dropped = backlog - self._buffer_mbit
            backlog = self._buffer_mbit
        self._backlog_mbit = max(backlog, 0.0)
        self._dropped_mbit_total += dropped
        self._last_loss_fraction = (
            min(1.0, dropped / offered_mbit) if offered_mbit > 0 else 0.0
        )
        return QueueSample(
            backlog_mbit=self._backlog_mbit,
            delay_s=self.delay_s(capacity_mbps),
            loss_fraction=self._last_loss_fraction,
        )

    def reset(self) -> None:
        """Empty the queue (e.g. after a topology change in tests)."""
        self._backlog_mbit = 0.0
        self._last_loss_fraction = 0.0


class LockstepQueue:
    """One row of the production :class:`QueueArrays` stepped beside
    the scalar :class:`LinkQueue`; every read asserts bit equality, so
    a property checked through this object holds for the product."""

    def __init__(self, buffer_mbit: float = 25.0) -> None:
        self.arrays = QueueArrays([buffer_mbit])
        self.oracle = LinkQueue(buffer_mbit)

    def update(
        self, dt_s: float, offered_mbps: float, capacity_mbps: float
    ) -> QueueSample:
        self.arrays.update_all(
            dt_s, np.array([offered_mbps]), np.array([capacity_mbps])
        )
        sample = self.oracle.update(dt_s, offered_mbps, capacity_mbps)
        assert sample.backlog_mbit == self.backlog_mbit
        assert sample.loss_fraction == self.last_loss_fraction
        assert sample.delay_s == self.delay_s(capacity_mbps)
        return sample

    def _same(self, column: str) -> float:
        value = float(getattr(self.arrays, column)[0])
        assert value == getattr(self.oracle, column), column
        return value

    @property
    def backlog_mbit(self) -> float:
        return self._same("backlog_mbit")

    @property
    def last_loss_fraction(self) -> float:
        return self._same("last_loss_fraction")

    @property
    def dropped_mbit_total(self) -> float:
        return self._same("dropped_mbit_total")

    def delay_s(self, capacity_mbps: float) -> float:
        delay = self.arrays.delay_s(0, capacity_mbps)
        assert delay == self.oracle.delay_s(capacity_mbps)
        return delay


# -- the telemetry spine ------------------------------------------------------


def event_to_json_reference(event: TraceEvent) -> str:
    """``TraceEvent.to_json`` as first written: one ``json.dumps`` (and
    so one ``JSONEncoder``) per record."""
    record: dict[str, Any] = {
        "id": event.id,
        "kind": event.kind,
        "t": event.time,
    }
    if event.app is not None:
        record["app"] = event.app
    if event.epoch is not None:
        record["epoch"] = event.epoch
    if event.cause is not None:
        record["cause"] = event.cause
    if event.data:
        record["data"] = event.data
    return json.dumps(record, sort_keys=True)


def event_from_json_reference(line: str) -> TraceEvent:
    """``TraceEvent.from_json`` as first written (``json.loads`` per
    line), plus the one rule added since: ``data`` that is not a JSON
    object makes the line malformed (it used to be stored as it came,
    and ``"data": null`` then crashed the report)."""
    record = json.loads(line)
    event = TraceEvent(
        id=int(record["id"]),
        kind=str(record["kind"]),
        time=float(record["t"]),
        app=record.get("app"),
        epoch=record.get("epoch"),
        cause=record.get("cause"),
        data=record.get("data", {}),
    )
    if "data" in record and not isinstance(record["data"], dict):
        raise TypeError("data is not an object")
    return event


def read_trace_reference(path: str | Path) -> list[TraceEvent]:
    """``read_trace`` as first written: the per-line loop that owns the
    skip-with-``path:line``-warning rule for malformed lines."""
    path = Path(path)
    if path.is_dir():
        events: list[TraceEvent] = []
        for shard in sorted(path.glob("trace-*.jsonl")):
            events.extend(read_trace_reference(shard))
        return events
    events = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_json_reference(line))
            except (ValueError, KeyError, TypeError):
                warnings.warn(
                    f"{path}:{number}: skipping malformed trace line "
                    f"(truncated write from a crashed run?)",
                    stacklevel=2,
                )
    return events


def on_event_reference(registry: InstrumentRegistry, event: TraceEvent) -> None:
    """``StandardInstruments.on_event`` as first written: up to 25
    string comparisons, every hit re-deriving its instruments from the
    registry by ``(name, labels)``."""
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
        registry.counter("bass_handoffs_total", phase="requested").inc(time)
    elif kind == "handoff.denied":
        registry.counter("bass_handoffs_total", phase="denied").inc(time)
        registry.counter("bass_arbiter_conflicts_total").inc(time)
    elif kind == "handoff.aborted":
        registry.counter("bass_handoffs_total", phase="aborted").inc(time)
    elif kind == "handoff.committed":
        registry.counter("bass_handoffs_total", phase="committed").inc(time)
        registry.histogram(
            "bass_handoff_latency_seconds",
            buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0),
        ).observe(time, event.data.get("latency_s") or 0.0)
    elif kind == "cell.done":
        registry.counter("bass_sweep_cells_total", status="executed").inc(time)
        registry.histogram("bass_sweep_cell_seconds").observe(
            time, event.data.get("duration_s", 0.0)
        )
    elif kind == "cell.cached":
        registry.counter("bass_sweep_cells_total", status="cached").inc(time)
    elif kind == "cell.failed":
        registry.counter("bass_sweep_cells_total", status="failed").inc(time)
    elif kind == "sweep.fabric":
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
        for key, value in sorted((event.data.get("solver") or {}).items()):
            registry.gauge(f"bass_solver_{key}").set(time, float(value))
