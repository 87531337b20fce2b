"""The sweep fabric: what ``run_sweep`` does at jobs > 1.

The contract pinned here: ``jobs=1`` (or at most one pending cell) runs
in-process and starts nothing; any ``jobs > 1`` hands the cells out one
at a time, longest-expected-first, to that many warm workers and —
whichever worker runs which cell — merges to the serial loop's exact
bytes and writes the serial loop's exact cache entries; a worker that
*dies* is replaced at once and survived (the cell it held re-queued and
every cell reduced exactly once, with a poison cell surfacing as a
failure after ``MAX_CELL_RETRIES + 1`` deaths instead of crash-looping
the fabric); and duplicate-key cells share the workers' content-addressed
store.
"""

import multiprocessing.process
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.trace import Tracer
from repro.runner import (
    CellSpec,
    ResultCache,
    SweepCellError,
    SweepSpec,
    canonical_json,
    cell_cost,
    order_longest_first,
    run_sweep,
)
from repro.runner import queue as fabric
from repro.runner.costmodel import BASE_COST_S
from repro.runner.queue import PendingCell, execute_queue

SQUARE = "repro.runner.testing:square_cell"
CRASH = "repro.runner.testing:crashing_cell"
BUSY = "repro.runner.testing:busy_cell"
SLOW = "repro.runner.testing:slow_cell"
KILLER = "repro.runner.testing:worker_killing_cell"
OPAQUE = "repro.runner.testing:unserializable_cell"


def square_spec(values=(0, 1, 2, 3, 4, 5, 6, 7), **spec_kwargs):
    return SweepSpec(
        name="squares",
        cells=tuple(
            CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
            for v in values
        ),
        modules=("repro.runner",),
        **spec_kwargs,
    )


# -- cost model (pure, no processes) ------------------------------------------


def test_cell_cost_explicit_weight_dominates():
    light = cell_cost({"weight": 0.01})
    heavy = cell_cost({"weight": 5.0})
    assert heavy > light
    assert heavy == pytest.approx(BASE_COST_S + 5.0)


def test_cell_cost_scales_with_horizon_and_grid_size():
    short = cell_cost({"duration_s": 60.0})
    long = cell_cost({"duration_s": 600.0})
    assert long > short
    small = cell_cost({"duration_s": 600.0, "nodes": 5, "flows": 10})
    big = cell_cost({"duration_s": 600.0, "nodes": 50, "flows": 100})
    assert big > small


def test_order_longest_first_breaks_ties_by_index():
    costs = {0: 1.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert order_longest_first(costs, [0, 1, 2, 3]) == [1, 3, 0, 2]


# -- one dispatch path: serial at jobs=1, the fabric above --------------------


@pytest.fixture
def no_new_processes(monkeypatch):
    """Fail the test if anything starts a process."""

    def refuse(self):
        raise AssertionError(f"started a process: {self.name}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def test_serial_path_starts_no_process_and_emits_no_fabric_event(
    no_new_processes,
):
    tracer = Tracer.with_instruments()
    outcome = run_sweep(square_spec(), jobs=1, tracer=tracer)
    assert outcome.stats.backend == "serial"
    assert outcome.stats.dispatched == 0 and outcome.stats.workers == ()
    assert not [e for e in tracer.events if e.kind == "sweep.fabric"]
    backends = {
        e.kind: e.data["backend"]
        for e in tracer.events
        if e.kind in ("sweep.start", "sweep.done")
    }
    assert backends == {"sweep.start": "serial", "sweep.done": "serial"}


def test_single_pending_cell_runs_inline_at_any_jobs(
    tmp_path, no_new_processes
):
    cache = ResultCache(tmp_path / "cache")
    run_sweep(square_spec(values=(0, 1, 2)), cache=cache)
    outcome = run_sweep(square_spec(values=(0, 1, 2, 3)), jobs=4, cache=cache)
    assert (outcome.stats.cached, outcome.stats.executed) == (3, 1)
    assert outcome.stats.backend == "serial"
    assert [r.squared for r in outcome.results] == [0, 1, 4, 9]


def test_serial_sweeps_never_import_the_fabric_runtime():
    """``multiprocessing`` is the fabric's alone: it is imported by
    the first ``jobs > 1`` sweep, not by importing the runner or
    running a serial sweep — and nothing imports ``asyncio`` at all
    (tens of milliseconds and several MiB each, for every process)."""
    code = (
        "import sys\n"
        "import repro.experiments\n"
        "from repro.runner import CellSpec, SweepSpec, run_sweep\n"
        f"cells = tuple(CellSpec(fn={SQUARE!r}, kwargs={{'value': v}})"
        " for v in range(4))\n"
        "spec = SweepSpec(name='squares', cells=cells)\n"
        "serial = run_sweep(spec, jobs=1)\n"
        "loaded = {'asyncio', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, f'imported without a fabric run: {loaded}'\n"
        "queued = run_sweep(spec, jobs=2)\n"
        "assert queued.stats.backend == 'queue'\n"
        "assert queued.to_canonical_json() == serial.to_canonical_json()\n"
        "assert 'multiprocessing' in sys.modules\n"
        "assert 'asyncio' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_sweeps_take_the_fabric(jobs):
    golden = run_sweep(square_spec()).to_canonical_json()
    queued = run_sweep(square_spec(), jobs=jobs)
    assert queued.to_canonical_json() == golden
    assert queued.stats.backend == "queue"
    assert queued.stats.dispatched == 8
    assert len(queued.stats.workers) == jobs


# -- determinism: fabric output is byte-identical to serial -------------------


@pytest.mark.parametrize("jobs", [2, 4])
def test_queue_backend_matches_serial_bytes(jobs):
    spec = square_spec()
    golden = run_sweep(spec).to_canonical_json()
    settled = {}

    def settle(index, ok, payload, duration_s, from_cache):
        assert ok and index not in settled
        settled[index] = payload

    stats = execute_queue(
        [
            PendingCell(
                index=i, fn=cell.fn, kwargs=spec.resolved_kwargs(i),
                key=None, cost=0.0, label=cell.label,
            )
            for i, cell in enumerate(spec.cells)
        ],
        jobs=jobs,
        cache_root=None,
        sweep=spec.name,
        settle=settle,
    )
    assert canonical_json([settled[i] for i in range(8)]) == golden
    assert stats.dispatched == 8


def test_heterogeneous_costs_still_merge_canonically():
    """Cost-ordered scheduling reorders *execution*, never output."""
    weights = (0.01, 2.0, 0.02, 1.0, 0.03, 0.5)
    spec = SweepSpec(
        name="busy",
        cells=tuple(
            CellSpec(fn=BUSY, kwargs={"weight": w, "seed": i})
            for i, w in enumerate(weights)
        ),
        modules=("repro.runner",),
    )
    golden = run_sweep(spec).to_canonical_json()
    queued = run_sweep(spec, jobs=2)
    assert queued.to_canonical_json() == golden


# -- streaming reducer --------------------------------------------------------


def test_on_result_streams_in_canonical_order():
    seen = []
    outcome = run_sweep(
        square_spec(),
        jobs=3,
        on_result=lambda index, value: seen.append((index, value.squared)),
    )
    assert [index for index, _ in seen] == list(range(8))
    assert [sq for _, sq in seen] == [r.squared for r in outcome.results]


def test_on_result_streams_none_for_failed_cells():
    spec = SweepSpec(
        name="mixed",
        cells=(
            CellSpec(fn=SQUARE, kwargs={"value": 1}),
            CellSpec(fn=CRASH, kwargs={"value": 2}),
            CellSpec(fn=SQUARE, kwargs={"value": 3}),
        ),
        modules=("repro.runner",),
    )
    seen = []
    run_sweep(
        spec,
        jobs=2,
        strict=False,
        on_result=lambda index, value: seen.append((index, value)),
    )
    assert [index for index, _ in seen] == [0, 1, 2]
    assert seen[1][1] is None


# -- exception parity ---------------------------------------------------------


def test_queue_backend_surfaces_original_tracebacks():
    spec = SweepSpec(
        name="crashy",
        cells=(
            CellSpec(fn=SQUARE, kwargs={"value": 1}, label="ok"),
            CellSpec(fn=CRASH, kwargs={"value": 2}, label="boom"),
        ),
        modules=("repro.runner",),
    )
    with pytest.raises(SweepCellError) as excinfo:
        run_sweep(spec, jobs=2)
    message = str(excinfo.value)
    assert "ValueError: boom on 2" in message
    assert excinfo.value.failures[0].label == "boom"


# -- one cell per idle worker -------------------------------------------------


def test_equal_cost_heavy_cells_land_on_different_workers():
    """Nothing in ``slow_cell``'s kwargs tells the cost model which
    cells are heavy, so balance must come from the grain: two 0.5 s
    cells among eight 5 ms ones keep *both* workers busy >= 0.5 s."""
    sleeps = [0.5, 0.5] + [0.005] * 8
    spec = SweepSpec(
        name="two-heavy",
        cells=tuple(
            CellSpec(fn=SLOW, kwargs={"value": v, "sleep_s": sleep_s})
            for v, sleep_s in enumerate(sleeps)
        ),
        modules=("repro.runner",),
    )
    outcome = run_sweep(spec, jobs=2)
    assert [r.value for r in outcome.results] == list(range(10))
    assert [report.busy_s >= 0.5 for report in outcome.stats.workers] == [
        True, True,
    ]


# -- worker-crash recovery ----------------------------------------------------


def transient_spec(marker, cells=12, killer_at=2):
    specs = [
        CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
        for v in range(cells)
    ]
    specs[killer_at] = CellSpec(
        fn=KILLER,
        kwargs={"value": 9, "survive_marker": marker},
        label="killer",
    )
    return SweepSpec(
        name="transient", cells=tuple(specs), modules=("repro.runner",)
    )


def test_transient_worker_death_requeues_and_reduces_exactly_once(tmp_path):
    """Kill a worker mid-cell: the cell it held is re-queued, every
    cell appears exactly once in the merged output, and the fabric
    records the one death."""
    marker = str(tmp_path / "died-once")
    outcome = run_sweep(transient_spec(marker), jobs=2)
    assert [r.squared for r in outcome.results] == [
        81 if v == 2 else v * v for v in range(12)
    ]
    assert outcome.stats.failed == 0
    assert outcome.stats.worker_crashes == 1
    assert outcome.stats.dispatched == 13  # the killer went out twice
    assert os.path.exists(marker)


def test_liveness_poll_backstops_a_missing_death_notice(
    tmp_path, monkeypatch
):
    """A dead worker's pipe stays open while anything it forked still
    holds the write end, so ``gone`` may never come; the quiet-inbox
    poll must still find the corpse."""
    handle = fabric._QueueDriver.handle
    monkeypatch.setattr(
        fabric._QueueDriver,
        "handle",
        lambda self, message: (
            None if message[0] == "gone" else handle(self, message)
        ),
    )
    outcome = run_sweep(transient_spec(str(tmp_path / "marker")), jobs=2)
    assert outcome.stats.failed == 0
    assert outcome.stats.worker_crashes == 1


def test_dead_worker_is_replaced_while_siblings_stream_results(tmp_path):
    """The survivor's results keep the inbox from ever going quiet, so
    replacement cannot wait for the liveness poll: the reader's ``gone``
    brings it at once and the replacement does its share of the grid."""
    cells = 3000
    spec = transient_spec(
        str(tmp_path / "marker"), cells=cells + 1, killer_at=0
    )
    outcome = run_sweep(spec, jobs=2)
    assert outcome.stats.failed == 0
    assert outcome.stats.worker_crashes == 1
    reports = outcome.stats.workers
    assert [report.worker for report in reports] == [0, 1, 2]
    assert sorted(report.crashed for report in reports) == [False, False, True]
    assert sum(report.cells for report in reports) == cells + 1
    replacement = reports[2]  # whichever of the first two died
    assert not replacement.crashed and replacement.cells >= cells // 4


def test_poison_cell_surfaces_as_failure_not_a_hang():
    """A cell that kills every host it lands on must settle as a
    failure with a traceback naming the dead worker — after exactly
    ``MAX_CELL_RETRIES + 1`` deaths — and every other cell still
    completes."""
    cells = [
        CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
        for v in range(10)
    ]
    cells[1] = CellSpec(fn=KILLER, kwargs={"value": 7}, label="poison")
    spec = SweepSpec(
        name="poison", cells=tuple(cells), modules=("repro.runner",)
    )
    outcome = run_sweep(spec, jobs=2, strict=False)
    assert outcome.stats.failed == 1
    assert outcome.results[1] is None
    healthy = [r for r in outcome.results if r is not None]
    assert [r.squared for r in healthy] == [
        v * v for v in range(10) if v != 1
    ]
    failure = outcome.failures[0]
    assert failure.index == 1
    assert failure.label == "poison"
    assert re.search(
        r"SweepWorkerCrash: worker \d+ \(pid \d+\) died with exitcode 137 "
        r"while executing cell 1",
        failure.traceback,
    )
    deaths = fabric.MAX_CELL_RETRIES + 1
    assert outcome.stats.worker_crashes == deaths
    assert sum(report.crashed for report in outcome.stats.workers) == deaths


def test_workers_that_cannot_boot_abort_the_sweep(monkeypatch):
    """A worker that dies before ``ready`` every time is a broken
    interpreter, not a bad cell: the fabric gives up after
    ``MAX_BOOT_FAILURES`` instead of respawn-looping."""
    if fabric.mp_context().get_start_method() != "fork":
        pytest.skip("the patched boot hook reaches workers only by fork")
    monkeypatch.setattr(fabric, "initialize_worker", lambda _: os._exit(3))
    begin = time.perf_counter()
    deaths = fabric.MAX_BOOT_FAILURES + 1
    with pytest.raises(RuntimeError, match=f"failed to boot {deaths} times"):
        run_sweep(square_spec(), jobs=2)
    assert time.perf_counter() - begin < 10.0


def test_cell_sent_to_a_dead_worker_is_requeued_not_lost():
    """The worker dies between ``ready`` and its first cell: the send
    fails, the binding made before it stands, and the reap puts the
    cell back (charged a retry it did not earn — bounded)."""
    spec = square_spec(values=(0, 1, 2))
    settled = {}
    driver = fabric._QueueDriver(
        [
            PendingCell(
                index=i, fn=cell.fn, kwargs=spec.resolved_kwargs(i),
                key=None, cost=0.0,
            )
            for i, cell in enumerate(spec.cells)
        ],
        jobs=1,
        cache_root=None,
        sweep=spec.name,
        settle=lambda index, ok, payload, *_: settled.update(
            {index: (ok, payload.squared)}
        ),
    )
    try:
        ready = driver.inbox.get(timeout=30.0)
        assert ready[0] == "ready"
        worker = driver.workers[ready[1]]
        worker.process.kill()
        worker.process.join(timeout=30.0)
        assert not fabric._send(worker.tasks, None)
        driver.handle(ready)
        assert worker.cell == 0
        driver.run()
    finally:
        driver.shutdown()
    assert settled == {0: (True, 0), 1: (True, 1), 2: (True, 4)}
    stats = driver.fabric_stats()
    assert (stats.worker_crashes, stats.dispatched) == (1, 4)
    assert driver.crash_counts == {0: 1}


def test_poison_cell_raises_in_strict_mode():
    spec = SweepSpec(
        name="poison-strict",
        cells=(
            CellSpec(fn=SQUARE, kwargs={"value": 1}),
            CellSpec(fn=KILLER, kwargs={"value": 7}),
        ),
        modules=("repro.runner",),
    )
    with pytest.raises(SweepCellError, match="SweepWorkerCrash"):
        run_sweep(spec, jobs=2)


# -- shared content-addressed store -------------------------------------------


def test_workers_share_the_cache_across_duplicate_keys(tmp_path):
    """Identical cells resolve to one content address; whichever worker
    computes it first warms every other worker's read."""
    cache = ResultCache(tmp_path / "cache")
    cells = tuple(
        CellSpec(fn=SQUARE, kwargs={"value": 5}) for _ in range(6)
    )
    spec = SweepSpec(name="dup", cells=cells, modules=("repro.runner",))
    outcome = run_sweep(spec, jobs=2, cache=cache)
    assert [r.squared for r in outcome.results] == [25] * 6
    # Six cells, one key: at most one execution per worker can race the
    # first write; everything else must come off the shared store.
    assert outcome.stats.cached >= 4
    assert len(ResultCache(tmp_path / "cache")) == 1


def test_queue_warm_cache_replay_is_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(square_spec(), jobs=2, cache=cache)
    warm = run_sweep(
        square_spec(), jobs=2, cache=ResultCache(tmp_path / "cache")
    )
    assert warm.to_canonical_json() == cold.to_canonical_json()
    assert warm.stats.executed == 0


def cache_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def test_cache_tree_is_byte_identical_whoever_wrote_it(tmp_path):
    """Entries record the sweep name and cell label; a worker must
    stamp what the serial loop stamps."""
    for jobs in (1, 2):
        run_sweep(
            square_spec(), jobs=jobs, cache=ResultCache(tmp_path / str(jobs))
        )
    serial, fabric = cache_tree(tmp_path / "1"), cache_tree(tmp_path / "2")
    assert len(serial) == 8
    assert fabric == serial
    assert all(b'"label": "v' in entry for entry in serial.values())


UNENCODABLE_SWEEP = """
import sys
from repro.runner import CellSpec, ResultCache, SweepSpec, run_sweep

root, jobs = sys.argv[1], int(sys.argv[2])
spec = SweepSpec(
    name="opaque",
    cells=tuple(
        CellSpec(fn="{fn}", kwargs={{"value": v}}, label=f"v{{v}}")
        for v in range(4)
    ),
    modules=("repro.runner",),
)
outcome = run_sweep(spec, jobs=jobs, cache=ResultCache(root))
assert outcome.stats.backend == ("queue" if jobs > 1 else "serial")
print(
    outcome.stats.executed,
    sum(type(r) is object for r in outcome.results),
    len(ResultCache(root)),
)
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_unencodable_result_reduces_uncached_with_a_warning(tmp_path, jobs):
    """Same behaviour on both paths: the value reduces, no entry is
    written, and the process that tried to write it warns.  Run in a
    fresh interpreter so a worker's warning is observable on stderr."""
    done = subprocess.run(
        [
            sys.executable, "-c", UNENCODABLE_SWEEP.format(fn=OPAQUE),
            str(tmp_path / "cache"), str(jobs),
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["4", "4", "0"]
    assert "CacheEntryWarning" in done.stderr
    assert "not cacheable" in done.stderr


# -- observability ------------------------------------------------------------


def test_fabric_trace_event_feeds_queue_instruments(tmp_path):
    tracer = Tracer.with_instruments()
    cache = ResultCache(tmp_path / "cache")
    run_sweep(square_spec(), jobs=2, cache=cache, tracer=tracer)
    fabric_events = [e for e in tracer.events if e.kind == "sweep.fabric"]
    assert len(fabric_events) == 1
    data = fabric_events[0].data
    assert data["backend"] == "queue"
    assert data["dispatched"] == 8
    assert data["workers"]  # per-worker reports ride on the event

    registry = tracer.instruments.registry
    for report in data["workers"]:
        worker = str(report["worker"])
        busy = registry.gauge(
            "bass_sweep_worker_busy_fraction", worker=worker
        )
        assert 0.0 <= busy.value <= 1.0
        hit_rate = registry.gauge(
            "bass_sweep_worker_cache_hit_rate", worker=worker
        )
        assert 0.0 <= hit_rate.value <= 1.0
