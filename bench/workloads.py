"""The six workloads.  Names, ops and sizes are the benchmark's contract.

Each class says why it exists; ``SIZES`` holds the measured ("full")
size and a seconds-long "tiny" size for ``bench/test_bench.py``.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from statistics import median
from time import perf_counter

from repro.errors import RoutingError
from repro.obs import StreamingSink, render_openmetrics, render_report
from repro.obs.trace import Tracer, read_trace
from repro.runner import CellSpec, ResultCache, SweepSpec, run_sweep

from . import checks, scenarios
from .protocol import Driver, Outcome, Workload, scratch_dir
from .scenarios import stream

SIZES = {
    "city_tick": {
        "full": dict(regions=30, per_region=10, flows=3000, ticks=70),
        "tiny": dict(regions=3, per_region=6, flows=60, ticks=8),
    },
    "flow_churn": {
        "full": dict(regions=12, per_region=10, flows=1200, ticks=70, swap=10, retune=10, reroute=2),
        "tiny": dict(regions=3, per_region=6, flows=60, ticks=8, swap=3, retune=3, reroute=1),
    },
    "socialnet_mesh": {
        "full": dict(rps=70.0, horizon_s=1200.0, slice_s=10.0, samples=6),
        "tiny": dict(rps=70.0, horizon_s=300.0, slice_s=10.0, samples=6),
    },
    "fleet_epochs": {
        "full": dict(regions=16, per_region=4, tenants=48, horizon_s=2100.0, slice_s=30.0),
        "tiny": dict(regions=4, per_region=4, tenants=8, horizon_s=360.0, slice_s=30.0),
    },
    "sweep_grid": {
        "full": dict(horizons=(30.0, 60.0, 120.0), thresholds=(0.25, 0.50, 0.65, 0.75, 0.85, 0.95)),
        "tiny": dict(horizons=(5.0,), thresholds=(0.50, 0.95)),
    },
    "trace_replay": {
        "full": dict(
            batches=70, batch=1000, scrape_every=10, shard_events=10_000,
            record=dict(regions=4, per_region=4, tenants=12, horizon_s=300.0),
        ),
        "tiny": dict(
            batches=6, batch=200, scrape_every=2, shard_events=500,
            record=dict(regions=2, per_region=4, tenants=4, horizon_s=120.0),
        ),
    },
}

TRACE_S = 600.0  # length of the looping city-mesh capacity traces


# -- the net layer: reads (city_tick) and writes (flow_churn) -----------------


def _net_outcome(emu, driver: Driver, failed: int = 0) -> Outcome:
    """Allocation invariants plus the emulator's public counters."""
    solver = emu.solver_stats()
    phases = emu.tick_phase_stats()["seconds"]
    swept = solver["components"] * solver["partial_solves"]
    counters = {
        "sim.engine.events_n": emu.engine.processed_events,
        "sim.engine.pending_max_n": driver.pending_max,
        "net.netem.capacity_scan_s": phases["capacity_scan"],
        "net.netem.bookkeeping_s": phases["bookkeeping"],
        "net.fairness.full_solves_n": solver["full_solves"],
        "net.fairness.partial_solves_n": solver["partial_solves"],
        "net.fairness.components_resolved_n": solver["components_resolved"],
        "net.fairness.resolve_ratio": solver["components_resolved"] / swept if swept else 0.0,
    }
    stats = {
        "now": emu.now,
        "rates": sorted((f.flow_id, f.allocated_mbps) for f in emu.flows),
        "offered": emu.offered_mbit_by_tag(),
        "solver": solver,
    }
    return Outcome(stats, checks.allocation(emu), failed, counters)


def _tick(driver: Driver, engine, slice_s: float) -> None:
    driver.op(engine.run_until, engine.now + slice_s)
    driver.pending_max = max(driver.pending_max, engine.pending_events)


class CityTick(Workload):
    """The north-star shape: a regionalised city mesh, frozen flow set.

    ``net`` does all the work (incremental max-min over the components
    whose capacities moved, SoA scan and queues); ``core``/``apps`` do
    none.  Solver, SoA and routing-cache changes show here, and
    ``setup_s`` here is the routing layer.  Op: one simulated tick.
    """

    name = "city_tick"
    clonable = True

    def build(self, seed: int):
        size = self.size
        emu = scenarios.city_emulator(
            seed, regions=size["regions"], per_region=size["per_region"],
            flows=size["flows"], trace_s=TRACE_S,
        )
        emu.engine.run_until(emu.tick_s)  # warm-up op: the first, full solve
        return emu

    def engines(self, emu) -> list:
        return [emu.engine]

    def run(self, emu, driver: Driver) -> None:
        for _ in range(self.size["ticks"]):
            _tick(driver, emu.engine, emu.tick_s)

    def verify(self, emu, driver: Driver) -> Outcome:
        return _net_outcome(emu, driver)


@dataclass
class ChurnState:
    emu: object
    rng: object
    ids: list
    next_id: int
    unroutable: int = 0


class FlowChurn(Workload):
    """The same ``net`` layer used for writes.

    Before every tick flows are swapped (remove + add with fresh
    endpoints, so a route lookup), retuned (``set_demand``) and rerouted:
    every tick bumps the flow-set revision, so the flow arrays rebuild,
    the demand cache misses and the solve is full, not incremental.  A
    cache that helps ``city_tick`` by assuming a stable flow set pays
    here.  Op: one tick including its mutations.
    """

    name = "flow_churn"
    clonable = True

    def build(self, seed: int):
        size = self.size
        emu = scenarios.city_emulator(
            seed, regions=size["regions"], per_region=size["per_region"],
            flows=size["flows"], trace_s=TRACE_S,
        )
        emu.engine.run_until(emu.tick_s)
        ids = [flow.flow_id for flow in emu.flows]
        return ChurnState(emu, stream(seed, 4), ids, len(ids))

    def engines(self, state) -> list:
        return [state.emu.engine]

    def _mutate_and_tick(self, state: ChurnState) -> None:
        size, emu, rng, ids = self.size, state.emu, state.rng, state.ids
        swap, retune = size["swap"], size["retune"]
        picks = rng.choice(len(ids), size=swap + retune + size["reroute"], replace=False)
        for pick in picks[:swap]:
            emu.remove_flow(ids[pick])
            ids[pick] = f"f{state.next_id}"
            state.next_id += 1
            src, dst = scenarios.region_endpoints(size["regions"], size["per_region"], rng)
            try:
                emu.add_flow(ids[pick], src, dst, float(rng.uniform(0.1, 15.0)))
            except RoutingError:
                state.unroutable += 1
        for pick in picks[swap : swap + retune]:
            emu.set_demand(ids[pick], float(rng.uniform(0.1, 15.0)))
        for pick in picks[swap + retune :]:
            src, dst = scenarios.region_endpoints(size["regions"], size["per_region"], rng)
            emu.reroute_flow(ids[pick], src, dst)
        emu.engine.run_until(emu.now + emu.tick_s)

    def run(self, state, driver: Driver) -> None:
        engine = state.emu.engine
        for _ in range(self.size["ticks"]):
            driver.op(self._mutate_and_tick, state)
            driver.pending_max = max(driver.pending_max, engine.pending_events)

    def verify(self, state, driver: Driver) -> Outcome:
        return _net_outcome(state.emu, driver, failed=state.unroutable)


# -- the paper's headline path ------------------------------------------------


class SocialnetMesh(Workload):
    """What ``bass-repro run fig13/fig14b`` users wait for.

    The 27-service social network on the 5-node CityLab subset under the
    four Fig 14b configurations.  ``apps`` latency sampling, per-call
    emulator queries and engine dispatch dominate; the instance is tiny,
    so this is the bypass workload for every city-scale optimisation
    (prediction: no change) and the guard for collapsing the
    small-instance solver tier.  Op: one 10-sim-s slice of all four
    configurations (one engine slice each) - per-configuration slices
    would make the op-time distribution bimodal and its median jumpy.
    """

    name = "socialnet_mesh"

    def build(self, seed: int):
        size = self.size
        runs = scenarios.social_runs(
            seed, rps=size["rps"], horizon_s=size["horizon_s"], samples=size["samples"]
        )
        for run in runs:
            run.env.engine.run_until(1.0)  # warm-up op: first tick + sample
        return runs

    def engines(self, runs) -> list:
        return [run.env.engine for run in runs]

    @staticmethod
    def _slice(runs, until: float) -> None:
        for run in runs:
            run.env.engine.run_until(until)

    def run(self, runs, driver: Driver) -> None:
        size = self.size
        now = runs[0].env.engine.now
        while now < size["horizon_s"]:
            now = min(now + size["slice_s"], size["horizon_s"])
            driver.op(self._slice, runs, now)
            driver.pending_max = max(
                driver.pending_max, max(run.env.engine.pending_events for run in runs)
            )

    def verify(self, runs, driver: Driver) -> Outcome:
        stats = [
            {
                "label": run.label,
                "latencies": len(run.latencies),
                "latency_sum": sum(run.latencies),
                "placement": sorted(run.handle.deployment.bindings.items()),
                "moves": [(m.time, m.pod_name, m.to_node) for m in run.handle.deployment.migrations],
            }
            for run in runs
        ]
        counters = {
            "sim.engine.events_n": sum(run.env.engine.processed_events for run in runs),
            "sim.engine.pending_max_n": driver.pending_max,
            "core.migration.migrations_n": sum(
                len(run.handle.deployment.migrations) for run in runs
            ),
        }
        services = len(runs[0].handle.dag.to_pods())
        return Outcome(stats, checks.social(runs, services=services), 0, counters)


# -- the loaded control plane -------------------------------------------------


class FleetEpochs(Workload):
    """The only workload that loads the control plane.

    Stream-pair tenants on a regionalised mesh under a rolling throttle
    wave and periodic node crashes with recovery: ``core`` (migration
    what-if, controllers, arbiter, handoffs, net-monitor), ``cluster``
    and ``faults`` do the work; ``apps`` none, ``net`` mostly as the
    what-if callee.  Op: one 30-sim-s slice = exactly one fleet epoch.
    """

    name = "fleet_epochs"
    clonable = True

    def build(self, seed: int):
        size = self.size
        built = scenarios.fleet(
            seed, regions=size["regions"], per_region=size["per_region"],
            tenants=size["tenants"], horizon_s=size["horizon_s"],
        )
        built.env.engine.run_until(1.0)  # warm-up op: the first emulator tick
        return built

    def engines(self, built) -> list:
        return [built.env.engine]

    def run(self, built, driver: Driver) -> None:
        size = self.size
        engine = built.env.engine
        while engine.now < size["horizon_s"]:
            _tick(driver, engine, min(size["slice_s"], size["horizon_s"] - engine.now))

    def verify(self, built, driver: Driver) -> Outcome:
        plane = built.env.control_plane
        handoffs = plane.arbiter.handoff_counts()
        moves = [
            (m.time, handle.app.name, m.pod_name, m.to_node)
            for handle in built.handles
            for m in handle.deployment.migrations
        ]
        stats = {
            "epochs": plane.epoch_count,
            "placement": [sorted(h.deployment.bindings.items()) for h in built.handles],
            "moves": moves,
            "handoffs": handoffs,
            "faults": [(f.time, f.kind, f.target) for f in built.injector.injected],
        }
        decisions = plane.epoch_decision_seconds
        counters = {
            "sim.engine.events_n": built.env.engine.processed_events,
            "sim.engine.pending_max_n": driver.pending_max,
            "core.controlplane.decision_ms_p50": median(decisions) * 1e3 if decisions else 0.0,
            "core.controlplane.conflicts_n": plane.arbiter.conflict_count,
            "core.regions.handoffs_committed_n": handoffs.get("committed", 0),
            "core.regions.handoffs_denied_n": handoffs.get("denied", 0),
            "core.migration.migrations_n": len(moves),
            "faults.recovery.replaced_n": plane.recovery.recovered_count,
            "faults.recovery.failed_n": plane.recovery.failed_count,
        }
        return Outcome(stats, checks.fleet(built), plane.recovery.failed_count, counters)


# -- the sweep fabric on real cores -------------------------------------------


def _boot_spec() -> SweepSpec:
    """Two trivial cells: what a sweep costs before any cell does work."""
    fn = "repro.runner.testing:square_cell"
    return SweepSpec(name="bench-boot", cells=tuple(CellSpec(fn, {"value": v}) for v in (1, 2)))


@dataclass
class SweepState:
    spec: SweepSpec
    jobs: int
    canonical: str = ""
    failed: int = 0
    counters: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


class SweepGrid(Workload):
    """``runner`` dispatch, reduce and cache with more than one core.

    Fig 14c/d cells at three horizons (heterogeneous costs) through
    ``run_sweep`` with default backend options, ``jobs = min(2, nproc)``.
    Single-run optimisations should move it only through cheaper cells;
    fabric changes must hold ``wall_s``.  Op: one cell, timed by the
    duration the runner's ``cell.done`` event reports (cells run in
    other processes — the one place a program-measured time is read).
    """

    name = "sweep_grid"

    def _state(self, seed: int) -> SweepState:
        spec = scenarios.sweep_spec(
            seed, horizons=self.size["horizons"], thresholds=self.size["thresholds"]
        )
        return SweepState(spec, jobs=min(2, os.cpu_count() or 1))

    def build(self, seed: int):
        state = self._state(seed)
        run_sweep(_boot_spec(), jobs=state.jobs)  # warm-up op: fork and reap a pool
        return state

    def run(self, state, driver: Driver) -> None:
        tracer = Tracer()
        settled = [0.0]

        def mark(index, value):
            # The parent only waits while cells run, so the settle hook is
            # where host speed gets sampled during the sweep.
            driver.sample_if_due(perf_counter())
            settled[0] = perf_counter()

        begin = perf_counter()
        outcome = run_sweep(
            state.spec, jobs=state.jobs, cache=None, tracer=tracer, strict=False, on_result=mark
        )
        end = perf_counter()
        cells = [
            e.data["duration_s"] for e in tracer.events if e.kind in ("cell.done", "cell.failed")
        ]
        driver.record(begin, end, cells)
        state.canonical = outcome.to_canonical_json()
        state.failed = len(outcome.failures)
        state.counters = {
            "runner.sweep.cell_exec_s": sum(cells),
            "runner.sweep.dispatch_overhead_frac": 1.0 - sum(cells) / (state.jobs * (end - begin)),
            "runner.sweep.reduce_s": end - settled[0],
            "runner.queue.chunks_n": outcome.stats.chunks,
            "runner.queue.steals_n": outcome.stats.steals,
        }
        state.info = {
            "backend": outcome.stats.backend, "jobs": state.jobs, "cells": len(cells),
            "parallel_span": (begin, end),
        }

    def verify(self, state, driver: Driver) -> Outcome:
        return Outcome(state.canonical, [], state.failed, state.counters, state.info)

    def audit(self, seed: int, outcomes: list, clock, traced: bool) -> tuple[list, dict]:
        state = self._state(seed)
        root = scratch_dir("sweep-cache")
        tracer = Tracer()
        cold, cold_s, cold_raw_s = clock.timed(
            partial(run_sweep, state.spec, jobs=1, cache=ResultCache(root), tracer=tracer)
        )
        cells_raw_s = sum(e.data["duration_s"] for e in tracer.events if e.kind == "cell.done")
        warm, warm_s, _ = clock.timed(
            partial(run_sweep, state.spec, jobs=1, cache=ResultCache(root))
        )
        problems = checks.sweep(
            [outcome.stats for outcome in outcomes],
            cold.to_canonical_json(),
            warm.to_canonical_json(),
        )
        extra = {}
        if traced:
            _, serial_s, _ = clock.timed(partial(run_sweep, state.spec, jobs=1))
            _, boot_s, _ = clock.timed(partial(run_sweep, _boot_spec(), jobs=state.jobs))
            parallel_s = median(
                (end - begin) / clock.slowdown(begin, end)
                for begin, end in (outcome.info["parallel_span"] for outcome in outcomes)
            )
            extra = {
                "runner.sweep.serial_wall_s": serial_s,
                "runner.sweep.speedup": serial_s / parallel_s,
                "runner.sweep.worker_boot_s": boot_s,
                # Fingerprinting, key hashing and entry writes around the cells.
                "runner.cache.write_overhead_s": cold_s * (1.0 - cells_raw_s / cold_raw_s),
                "runner.cache.replay_ms": warm_s * 1e3,
                "runner.cache.hit_ratio": warm.stats.cache_hit_rate,
            }
        return problems, extra


# -- the telemetry spine ------------------------------------------------------


@dataclass
class ReplayState:
    events: list
    period_s: float
    tracer: Tracer
    directory: object
    emitted: int = 0
    exposition: str = ""
    report_chars: int = 0
    read_back: int = 0


class TraceReplay(Workload):
    """``obs`` does all the work; simulation none.

    A real traced fleet run emits only thousands of events, so tracing
    cost is invisible there; this replays a recorded event stream many
    times through an instrumented tracer with a streaming sink, scrapes
    the exposition like a 1 Hz scraper, then renders the report over the
    shards.  Without it "cut tracer emit cost" could never show a gain.
    Op: a batch of emits (every tenth also renders the exposition); the
    last op closes the sink, reads the shards back and renders the report.
    """

    name = "trace_replay"

    def build(self, seed: int):
        size = self.size
        recorder = Tracer()
        record = size["record"]
        built = scenarios.fleet(
            seed, regions=record["regions"], per_region=record["per_region"],
            tenants=record["tenants"], horizon_s=record["horizon_s"],
            wave_width=max(1, record["regions"] // 2), crash_every_s=150.0, reboot_after_s=60.0,
            tracer=recorder,
        )
        built.env.engine.run_until(record["horizon_s"])
        events = list(recorder.events)
        directory = scratch_dir("trace-shards")
        tracer = Tracer.with_instruments(
            sink=StreamingSink(directory, shard_events=size["shard_events"])
        )
        state = ReplayState(events, max(e.time for e in events) + 1.0, tracer, directory)
        self._emit(state, 1)  # warm-up op
        return state

    def _emit(self, state: ReplayState, count: int) -> None:
        events, emit = state.events, state.tracer.emit
        total = len(events)
        for position in range(state.emitted, state.emitted + count):
            lap, index = divmod(position, total)
            event = events[index]
            emit(
                event.kind,
                event.time + lap * state.period_s,
                app=event.app,
                epoch=event.epoch,
                # Tracer ids count from 1, so lap k's copy of event i is k*n + i.
                cause=event.cause + lap * total if event.cause else None,
                **event.data,
            )
        state.emitted += count

    def _batch(self, state: ReplayState, scrape: bool) -> None:
        self._emit(state, self.size["batch"])
        if scrape:
            state.exposition = render_openmetrics(state.tracer.instruments.registry)

    def _finish(self, state: ReplayState) -> None:
        state.tracer.close()
        events = read_trace(state.directory)
        state.read_back = len(events)
        state.report_chars = len(render_report(events))

    def run(self, state, driver: Driver) -> None:
        every = self.size["scrape_every"]
        for batch in range(self.size["batches"]):
            driver.op(self._batch, state, batch % every == every - 1)
        driver.op(self._finish, state)

    def verify(self, state, driver: Driver) -> Outcome:
        shards = state.tracer.sink.shard_paths()
        lines = 0
        size_bytes = 0
        for shard in shards:
            data = shard.read_bytes()
            lines += data.count(b"\n")
            size_bytes += len(data)
        problems = checks.replay(lines, state.read_back, state.emitted, state.exposition)
        stats = {
            "emitted": state.emitted,
            "kinds": sorted(Counter(e.kind for e in state.events).items()),
            "bytes": size_bytes,
            "report_chars": state.report_chars,
            "exposition": state.exposition,
        }
        counters = {"obs.stream.seal_n": len(shards), "obs.stream.bytes_n": size_bytes}
        shutil.rmtree(state.directory, ignore_errors=True)
        return Outcome(stats, problems, 0, counters)


WORKLOADS = {
    cls.name: cls
    for cls in (CityTick, FlowChurn, SocialnetMesh, FleetEpochs, SweepGrid, TraceReplay)
}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](SIZES[name]["tiny" if tiny else "full"])
