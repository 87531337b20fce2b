"""The work-stealing sweep fabric: what ``run_sweep`` does at jobs > 1.

The contract pinned here: ``jobs=1`` (or at most one pending cell) runs
in-process and starts nothing; any ``jobs > 1`` goes through the fabric
and — whatever chunk layout the fabric picks — merges to the serial
loop's exact bytes and writes the serial loop's exact cache entries; a
worker that *dies* mid-chunk is survived (its chunk re-queued and every
cell reduced exactly once, with a poison cell eventually surfacing as a
failure instead of crash-looping the fabric); and duplicate-key cells
share the workers' content-addressed store.
"""

import multiprocessing.process
import os
import subprocess
import sys
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
    default_chunk_size,
    order_longest_first,
    plan_chunks,
    run_sweep,
)
from repro.runner.costmodel import BASE_COST_S
from repro.runner.queue import PendingCell, execute_queue

SQUARE = "repro.runner.testing:square_cell"
CRASH = "repro.runner.testing:crashing_cell"
BUSY = "repro.runner.testing:busy_cell"
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


# -- cost model and chunk planning (pure, no processes) -----------------------


def test_cell_cost_explicit_weight_dominates():
    light = cell_cost(BUSY, {"weight": 0.01})
    heavy = cell_cost(BUSY, {"weight": 5.0})
    assert heavy > light
    assert heavy == pytest.approx(BASE_COST_S + 5.0)


def test_cell_cost_scales_with_horizon_and_grid_size():
    short = cell_cost("m:f", {"duration_s": 60.0})
    long = cell_cost("m:f", {"duration_s": 600.0})
    assert long > short
    small = cell_cost("m:f", {"duration_s": 600.0, "nodes": 5, "flows": 10})
    big = cell_cost("m:f", {"duration_s": 600.0, "nodes": 50, "flows": 100})
    assert big > small


def test_order_longest_first_breaks_ties_by_index():
    costs = {0: 1.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert order_longest_first(costs, [0, 1, 2, 3]) == [1, 3, 0, 2]


def test_default_chunk_size_targets_four_chunks_per_worker():
    assert default_chunk_size(32, 4) == 2
    assert default_chunk_size(3, 4) == 1
    assert default_chunk_size(100, 1) == 25


def _pending(costs):
    return [
        PendingCell(index=i, fn="m:f", kwargs={}, key=None, cost=cost)
        for i, cost in enumerate(costs)
    ]


def test_plan_chunks_is_cost_ordered_and_deterministic():
    pending = _pending([1.0, 9.0, 2.0, 8.0, 3.0])
    chunks = plan_chunks(pending, 2)
    layout = [[cell.index for cell in chunk] for chunk in chunks]
    assert layout == [[1, 3], [4, 2], [0]]  # longest-expected first
    assert layout == [
        [cell.index for cell in chunk] for chunk in plan_chunks(pending, 2)
    ]


def test_plan_chunks_rejects_nonpositive_size():
    with pytest.raises(ValueError, match="chunk_size"):
        plan_chunks(_pending([1.0]), 0)


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
    assert outcome.stats.chunks == 0 and outcome.stats.workers == ()
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
    """``asyncio`` and ``multiprocessing`` are the fabric's alone: they
    are imported by the first ``jobs > 1`` sweep, not by importing the
    runner or running a serial sweep (~45 ms and ~7 MiB for every
    process that never starts a worker)."""
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
        "assert {'asyncio', 'multiprocessing'} <= set(sys.modules)\n"
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
    assert queued.stats.chunks >= 1
    assert len(queued.stats.workers) == jobs


# -- determinism: fabric output is byte-identical to serial -------------------


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("chunk_size", [1, 3])
def test_queue_backend_matches_serial_bytes(jobs, chunk_size):
    """Chunk layout is the fabric's own choice (``run_sweep`` passes
    none), so force layouts it would pick for other grid shapes."""
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
        chunk_size=chunk_size,
        settle=settle,
    )
    assert canonical_json([settled[i] for i in range(8)]) == golden
    assert stats.chunk_size == chunk_size
    assert stats.chunks >= -(-8 // chunk_size)


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


# -- worker-crash recovery ----------------------------------------------------


def test_transient_worker_death_requeues_and_reduces_exactly_once(tmp_path):
    """Kill a worker mid-chunk: the chunk is re-queued, every cell
    appears exactly once in the merged output, and the fabric records
    the death."""
    marker = str(tmp_path / "died-once")
    cells = [
        CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
        for v in range(12)  # two workers: chunks of two cells
    ]
    cells[2] = CellSpec(
        fn=KILLER,
        kwargs={"value": 9, "survive_marker": marker},
        label="killer",
    )
    spec = SweepSpec(
        name="transient", cells=tuple(cells), modules=("repro.runner",)
    )
    outcome = run_sweep(spec, jobs=2)
    assert outcome.stats.chunk_size == 2
    assert [r.squared for r in outcome.results] == [
        81 if v == 2 else v * v for v in range(12)
    ]
    assert outcome.stats.failed == 0
    assert outcome.stats.worker_crashes >= 1
    assert os.path.exists(marker)


def test_poison_cell_surfaces_as_failure_not_a_hang():
    """A cell that kills every host it lands on must settle as a
    failure with a traceback naming the dead worker — and every other
    cell still completes."""
    cells = [
        CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
        for v in range(10)  # two workers: chunks of two cells
    ]
    cells[1] = CellSpec(fn=KILLER, kwargs={"value": 7}, label="poison")
    spec = SweepSpec(
        name="poison", cells=tuple(cells), modules=("repro.runner",)
    )
    outcome = run_sweep(spec, jobs=2, strict=False)
    assert outcome.stats.chunk_size == 2
    assert outcome.stats.failed == 1
    assert outcome.results[1] is None
    healthy = [r for r in outcome.results if r is not None]
    assert [r.squared for r in healthy] == [
        v * v for v in range(10) if v != 1
    ]
    failure = outcome.failures[0]
    assert failure.index == 1
    assert failure.label == "poison"
    assert "SweepWorkerCrash" in failure.traceback
    assert "exitcode" in failure.traceback
    assert outcome.stats.worker_crashes >= 2  # shared chunk + isolation


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
    assert data["chunks"] >= 1
    assert data["workers"]  # per-worker reports ride on the event

    registry = tracer.instruments.registry
    assert registry.gauge("bass_sweep_queue_depth").value >= 1
    assert registry.counter("bass_sweep_steals_total").value >= 0
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
