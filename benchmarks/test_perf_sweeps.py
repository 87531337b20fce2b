"""Perf harness for the parallel sweep runner and its fabric.

Measures three workloads:

* the fig14cd threshold grid (the original headline workload): cold
  serial wall time (``jobs=1``, in-process), cold parallel wall time
  (the fabric), and a warm cached replay;
* a heterogeneous busy-cell grid — a few ~100x-outlier heavy cells in
  a sea of tiny ones — where longest-first order over warm workers
  that take one cell at a time is the difference between a
  straggler-bound sweep and a balanced one;
* a grid of nothing but tiny cells, the worst case for one-cell
  dispatch: it keeps "the per-cell round-trip is cheap" measured.

Every run must merge to byte-identical canonical JSON — a speedup
claim is only valid while scheduling stays invisible in the data.
Results are written to ``BENCH_sweeps.json`` at the repo root (merged
per case, like ``BENCH_emulator.json``) so the trajectory is tracked
across PRs; each case records what the fabric ``dispatched``.

The >=3x-at-4-workers acceptance targets need real cores; those
assertions live in the slow tests and are skipped below 4
CPUs.  The smoke tests record the measured numbers on whatever CI
machine runs them and assert only machine-independent contracts
(byte-identity, cheap cached replay), plus a loose
no-catastrophic-regression speedup floor that is gated on
``cpu_count >= 2``.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.experiments.thresholds import fig14cd_sweep_spec
from repro.runner import CellSpec, ResultCache, SweepSpec, run_sweep

from _reporting import fmt, run_once, save_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweeps.json"

BUSY = "repro.runner.testing:busy_cell"

SMOKE_GRID = dict(
    heuristics=("longest_path",),
    thresholds=(0.25, 0.65, 0.95),
    headrooms=(0.10, 0.30),
    duration_s=60.0,
)
FULL_GRID = dict(
    heuristics=("bfs", "longest_path"),
    thresholds=(0.25, 0.50, 0.65, 0.75, 0.95),
    headrooms=(0.10, 0.20, 0.30),
    duration_s=200.0,
)

#: Heterogeneous busy-cell grids: (heavy count, heavy weight, tiny
#: count, tiny weight).  Weights are busy_cell spin units (~0.4 ms per
#: unit); heavy cells run ~1000x longer than tiny ones, so a scheduler
#: that strands a heavy cell on a late worker serializes the tail.
HETERO_SMOKE = dict(n_heavy=2, heavy_weight=400.0, n_tiny=48,
                    tiny_weight=4.0)
HETERO_FULL = dict(n_heavy=4, heavy_weight=12000.0, n_tiny=512,
                   tiny_weight=12.0)
#: Nothing but ~0.4 ms cells: the hand-off is all there is to amortize.
TINY_SMOKE = dict(n_heavy=0, heavy_weight=0.0, n_tiny=200, tiny_weight=1.0)


def hetero_spec(
    *, n_heavy: int, heavy_weight: float, n_tiny: int, tiny_weight: float
) -> SweepSpec:
    cells = [
        CellSpec(
            fn=BUSY,
            kwargs={"weight": heavy_weight, "seed": index},
            label=f"heavy{index}",
        )
        for index in range(n_heavy)
    ]
    cells.extend(
        CellSpec(
            fn=BUSY,
            kwargs={"weight": tiny_weight, "seed": 1000 + index},
            label=f"tiny{index}",
        )
        for index in range(n_tiny)
    )
    return SweepSpec(
        name="hetero", cells=tuple(cells), modules=("repro.runner",)
    )


def timed_sweep(spec, *, jobs, cache):
    begin = time.perf_counter()
    outcome = run_sweep(spec, jobs=jobs, cache=cache)
    return outcome, time.perf_counter() - begin


def dispatch_fields(stats) -> dict:
    """The scheduling shape behind a measured number."""
    return {
        "dispatched": stats.dispatched,
        "worker_crashes": stats.worker_crashes,
    }


def run_case(grid: dict, *, jobs: int, tmp: Path) -> dict:
    """Cold serial, cold parallel, warm replay over one fig14cd grid."""
    spec = fig14cd_sweep_spec(**grid)

    serial_cache = ResultCache(tmp / "serial")
    serial, serial_s = timed_sweep(spec, jobs=1, cache=serial_cache)

    parallel_cache = ResultCache(tmp / "parallel")
    parallel, parallel_s = timed_sweep(
        spec, jobs=jobs, cache=parallel_cache
    )

    replay, replay_s = timed_sweep(spec, jobs=1, cache=serial_cache)

    golden = serial.to_canonical_json()
    assert parallel.to_canonical_json() == golden
    assert replay.to_canonical_json() == golden
    assert replay.stats.cache_hit_rate == 1.0

    return {
        "cells": serial.stats.cells,
        "duration_s": grid["duration_s"],
        "dispatch": dispatch_fields(parallel.stats),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_jobs": jobs,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "replay_s": replay_s,
        "replay_fraction": replay_s / serial_s if serial_s > 0 else 0.0,
        "serial_cells_per_s": serial.stats.cells_per_second,
        "parallel_cells_per_s": parallel.stats.cells_per_second,
        "cpu_count": os.cpu_count() or 1,
    }


def run_hetero_case(params: dict, *, jobs: int, rounds: int) -> dict:
    """Serial vs the fabric on a busy-cell grid: medians over ``rounds``
    alternating pairs, after one discarded fabric run.

    The discarded run is there for the host, not the fabric: on small
    shared boxes, processes forked after seconds of single-core work
    (pytest start-up, a serial leg) share one core for about a second
    before the scheduler spreads them.

    Dispatch overhead is charged per cell as (worker lifetime − worker
    busy time) / cells: everything a worker spent *not* executing cells
    — the result/next-cell round-trip, idling at the tail — relative to
    the mean cell runtime.
    """
    spec = hetero_spec(**params)
    golden = run_sweep(spec, jobs=jobs).to_canonical_json()

    serial_s, queue_s, busy_s, overhead_s, fractions = [], [], [], [], []
    for _ in range(rounds):
        serial, seconds = timed_sweep(spec, jobs=1, cache=None)
        assert serial.to_canonical_json() == golden
        serial_s.append(seconds)
        queue, seconds = timed_sweep(spec, jobs=jobs, cache=None)
        assert queue.to_canonical_json() == golden
        queue_s.append(seconds)
        reports = queue.stats.workers  # sorted by worker id
        busy = sum(report.busy_s for report in reports)
        alive = sum(report.alive_s for report in reports)
        busy_s.append(busy / queue.stats.cells)
        overhead_s.append((alive - busy) / queue.stats.cells)
        fractions.append([report.busy_fraction for report in reports])

    mean_cell_s = statistics.median(busy_s)
    dispatch_overhead_s = statistics.median(overhead_s)
    return {
        "cells": queue.stats.cells,
        "rounds": rounds,
        "dispatch": dispatch_fields(queue.stats),
        "serial_s": statistics.median(serial_s),
        "parallel_s": statistics.median(queue_s),
        "parallel_jobs": jobs,
        "speedup": statistics.median(serial_s) / statistics.median(queue_s),
        "mean_cell_s": mean_cell_s,
        "dispatch_overhead_s": dispatch_overhead_s,
        "dispatch_overhead_fraction": (
            dispatch_overhead_s / mean_cell_s if mean_cell_s > 0 else 0.0
        ),
        "worker_busy_fractions": [
            round(statistics.median(worker), 4) for worker in zip(*fractions)
        ],
        "cpu_count": os.cpu_count() or 1,
    }


def persist(results: dict[str, dict]) -> None:
    """Merge measured cases into BENCH_sweeps.json (smoke runs refresh
    their case without clobbering the full grid's)."""
    payload = {
        "schema": 4,
        "unit_note": "speedup = cold serial wall / cold parallel wall; "
        "replay_fraction = warm cached wall / cold serial wall; "
        "dispatch_overhead_fraction = per-cell non-execution worker time "
        "/ mean cell runtime",
        "cases": {},
    }
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            payload["cases"] = previous.get("cases", {})
        except (json.JSONDecodeError, OSError):
            pass
    payload["cases"].update(results)
    payload["cases"] = dict(sorted(payload["cases"].items()))
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def report(results: dict[str, dict], name: str) -> None:
    save_table(
        name,
        ["case", "cells", "jobs", "serial_s", "parallel_s", "speedup",
         "replay_frac", "dispatch_frac"],
        [
            [
                case,
                row["cells"],
                row["parallel_jobs"],
                fmt(row["serial_s"], 2),
                fmt(row["parallel_s"], 2),
                fmt(row["speedup"], 2),
                fmt(row.get("replay_fraction", 0.0), 3),
                fmt(row.get("dispatch_overhead_fraction", 0.0), 3),
            ]
            for case, row in results.items()
        ],
        note="sweep workloads through the runner; the fabric is "
        "byte-identical to serial by assertion; BENCH_sweeps.json tracks "
        "the series",
    )


@pytest.mark.benchmark(group="perf_sweeps")
def test_perf_sweeps_smoke(benchmark, tmp_path):
    """CI fast path: determinism + cheap replay on a trimmed grid.

    Two workers whatever the box has, so the fabric is always what is
    measured.  Speedups are recorded for the tracked series; the only
    speedup *assertion* is a loose no-catastrophic-regression floor,
    gated on ``cpu_count >= 2`` — single-core boxes pay pure scheduling
    overhead with nothing to parallelize.
    """
    results = run_once(
        benchmark,
        lambda: {"fig14cd_smoke": run_case(SMOKE_GRID, jobs=2, tmp=tmp_path)},
    )
    persist(results)
    report(results, "perf_sweeps_smoke")
    row = results["fig14cd_smoke"]
    assert row["cells"] == 6
    # Cached replay skips every simulation: it must come in well
    # under the cold run even with cache-probe overhead.
    assert row["replay_fraction"] < 0.5
    if row["cpu_count"] >= 2:
        assert row["speedup"] > 0.5, (
            f"fig14cd_smoke: {row['parallel_jobs']} workers ran "
            f"{1 / row['speedup']:.1f}x slower than serial"
        )
    assert row["dispatch"]["dispatched"] == 6


@pytest.mark.benchmark(group="perf_sweeps")
def test_perf_sweeps_hetero_smoke(benchmark):
    """Heterogeneous-grid fast path: record the fabric's numbers, pin
    byte-identity, and — given two cores — hold the balance one cell at
    a time buys: neither worker idles behind the other's heavy cell.
    The >=3x target lives in the slow, core-gated test."""
    results = run_once(
        benchmark,
        lambda: {"hetero_smoke": run_hetero_case(HETERO_SMOKE, jobs=2, rounds=7)},
    )
    persist(results)
    report(results, "perf_sweeps_hetero_smoke")
    row = results["hetero_smoke"]
    assert row["cells"] == 50
    assert row["dispatch"]["worker_crashes"] == 0
    if row["cpu_count"] >= 2:
        assert row["speedup"] >= 1.5, (
            f"hetero_smoke: 2 workers only {row['speedup']:.2f}x serial"
        )
        assert min(row["worker_busy_fractions"]) >= 0.8, (
            f"a worker idled: busy {row['worker_busy_fractions']}"
        )


@pytest.mark.benchmark(group="perf_sweeps")
def test_perf_sweeps_tiny_smoke(benchmark):
    """Worst case for one-cell dispatch: 200 cells of ~0.4 ms.  Records
    the per-cell hand-off (``dispatch_overhead_s``) and holds it under
    half a millisecond."""
    results = run_once(
        benchmark,
        lambda: {"tiny_smoke": run_hetero_case(TINY_SMOKE, jobs=2, rounds=7)},
    )
    persist(results)
    report(results, "perf_sweeps_tiny_smoke")
    row = results["tiny_smoke"]
    assert row["cells"] == 200
    assert row["dispatch"]["dispatched"] == 200
    if row["cpu_count"] >= 2:
        assert row["dispatch_overhead_s"] < 0.5e-3, (
            f"per-cell hand-off {row['dispatch_overhead_s'] * 1e3:.2f} ms"
        )


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_sweeps")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the 3x-at-4-workers target needs >=4 physical cores",
)
def test_perf_sweeps_full_grid(benchmark, tmp_path):
    """The fig14cd acceptance target: the full grid at 4 workers runs
    >=3x faster than serial, and a cached replay is near-instant."""
    results = run_once(
        benchmark,
        lambda: {"fig14cd_full": run_case(FULL_GRID, jobs=4, tmp=tmp_path)},
    )
    persist(results)
    report(results, "perf_sweeps_full")
    row = results["fig14cd_full"]
    assert row["cells"] == 30
    assert row["speedup"] >= 3.0, (
        f"4-worker speedup {row['speedup']:.2f}x < 3x on the full grid"
    )
    assert row["replay_fraction"] < 0.05, (
        f"cached replay took {row['replay_fraction']:.1%} of the cold run"
    )


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_sweeps")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the fabric targets need >=4 physical cores",
)
def test_perf_sweeps_hetero_full(benchmark):
    """The fabric acceptance targets on the heterogeneous grid at 4
    workers: >=3x over serial, and per-cell dispatch
    overhead under 10% of the mean cell runtime."""
    results = run_once(
        benchmark,
        lambda: {"hetero_full": run_hetero_case(HETERO_FULL, jobs=4, rounds=1)},
    )
    persist(results)
    report(results, "perf_sweeps_hetero_full")
    row = results["hetero_full"]
    assert row["speedup"] >= 3.0, (
        f"queue speedup {row['speedup']:.2f}x < 3x over serial"
    )
    assert row["dispatch_overhead_fraction"] < 0.10, (
        f"dispatch overhead {row['dispatch_overhead_fraction']:.1%} of "
        f"mean cell runtime (>= 10%)"
    )
