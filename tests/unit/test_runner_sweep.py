"""The sweep runner: determinism, caching, crash isolation, tracing.

The worker-crash satellite is pinned here: a raising cell surfaces its
*original* traceback, fails alone without poisoning the pool (every
other cell still completes), and leaves no partial cache entry behind.
"""

import pytest

from repro.obs.trace import Tracer
from repro.runner import (
    CellSpec,
    ResultCache,
    SweepCellError,
    SweepSpec,
    run_sweep,
)
from repro.runner.testing import SquareResult, square_cell

SQUARE = "repro.runner.testing:square_cell"
CRASH = "repro.runner.testing:crashing_cell"


def square_spec(values=(1, 2, 3, 4)):
    return SweepSpec(
        name="squares",
        cells=tuple(
            CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
            for v in values
        ),
        modules=("repro.runner",),
    )


def test_results_follow_canonical_cell_order():
    outcome = run_sweep(square_spec())
    assert [r.squared for r in outcome.results] == [1, 4, 9, 16]
    assert outcome.stats.executed == 4
    assert outcome.stats.failed == 0


def test_parallel_output_is_byte_identical_to_serial():
    serial = run_sweep(square_spec(values=tuple(range(8))))
    parallel = run_sweep(square_spec(values=tuple(range(8))), jobs=4)
    assert parallel.to_canonical_json() == serial.to_canonical_json()


def test_cache_round_trip_and_hit_accounting(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_sweep(square_spec(), cache=cache)
    assert cold.stats.cached == 0
    assert len(cache) == 4

    warm = run_sweep(square_spec(), cache=cache)
    assert warm.stats.cached == 4
    assert warm.stats.executed == 0
    assert warm.stats.cache_hit_rate == 1.0
    assert warm.to_canonical_json() == cold.to_canonical_json()


def test_cache_entries_invalidate_when_fingerprint_modules_change(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(square_spec(), cache=cache)
    # Same cells, different fingerprinted module set => different keys.
    other = square_spec()
    other = SweepSpec(
        name=other.name, cells=other.cells, modules=("repro.obs",)
    )
    outcome = run_sweep(other, cache=cache)
    assert outcome.stats.cached == 0
    assert outcome.stats.executed == 4


def test_crashing_cell_surfaces_original_traceback():
    spec = SweepSpec(
        name="crashy",
        cells=(
            CellSpec(fn=SQUARE, kwargs={"value": 1}, label="ok"),
            CellSpec(fn=CRASH, kwargs={"value": 2}, label="boom"),
        ),
        modules=("repro.runner",),
    )
    with pytest.raises(SweepCellError) as excinfo:
        run_sweep(spec)
    message = str(excinfo.value)
    assert "ValueError: boom on 2" in message  # the original traceback
    assert "crashing_cell" in message  # ...with the worker's frames
    assert excinfo.value.failures[0].index == 1
    assert excinfo.value.failures[0].label == "boom"


def test_crash_does_not_poison_the_pool():
    """Every healthy cell still completes when one worker cell raises,
    even with multiple workers in flight."""
    cells = [
        CellSpec(fn=SQUARE, kwargs={"value": v}, label=f"v{v}")
        for v in range(6)
    ]
    cells.insert(3, CellSpec(fn=CRASH, kwargs={"value": 99}, label="boom"))
    spec = SweepSpec(
        name="mixed", cells=tuple(cells), modules=("repro.runner",)
    )
    outcome = run_sweep(spec, jobs=3, strict=False)
    assert outcome.stats.failed == 1
    assert outcome.stats.executed == 6
    assert outcome.results[3] is None  # the crashed slot
    healthy = [r for r in outcome.results if r is not None]
    assert [r.squared for r in healthy] == [0, 1, 4, 9, 16, 25]


def test_crash_leaves_no_partial_cache_entry(tmp_path):
    cache = ResultCache(tmp_path)
    spec = SweepSpec(
        name="crashy",
        cells=(
            CellSpec(fn=SQUARE, kwargs={"value": 1}, label="ok"),
            CellSpec(fn=CRASH, kwargs={"value": 2}, label="boom"),
        ),
        modules=("repro.runner",),
    )
    outcome = run_sweep(spec, cache=cache, strict=False)
    assert outcome.stats.failed == 1
    assert len(cache) == 1  # only the successful cell was persisted
    stray = [
        p
        for p in tmp_path.rglob("*")
        if p.is_file() and not p.name.endswith(".json")
    ]
    assert stray == []  # no temp files, no partial writes

    # A later run re-executes only the failed cell.
    retry = run_sweep(spec, cache=cache, strict=False)
    assert retry.stats.cached == 1
    assert retry.stats.executed == 0
    assert retry.stats.failed == 1


def test_non_strict_mode_returns_partial_results():
    spec = SweepSpec(
        name="partial",
        cells=(
            CellSpec(fn=CRASH, kwargs={"value": 1}, label="boom"),
            CellSpec(fn=SQUARE, kwargs={"value": 3}, label="ok"),
        ),
        modules=("repro.runner",),
    )
    outcome = run_sweep(spec, strict=False)
    assert outcome.results[0] is None
    assert outcome.results[1] == SquareResult(value=3, squared=9, seed=0)
    assert len(outcome.failures) == 1


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(square_spec(), jobs=0)


def test_trace_events_are_canonical_order_and_instrumented(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(square_spec(), cache=cache)  # warm 4 entries

    tracer = Tracer.with_instruments()
    spec = square_spec(values=(1, 2, 3, 4, 5))  # 4 cached + 1 fresh
    outcome = run_sweep(spec, jobs=2, cache=cache, tracer=tracer)
    assert outcome.stats.cached == 4

    kinds = [e.kind for e in tracer.events]
    assert kinds[0] == "sweep.start"
    assert kinds[-1] == "sweep.done"
    cell_events = [e for e in tracer.events if e.kind.startswith("cell.")]
    # Merge-phase emission: cell events appear in canonical cell order
    # regardless of completion order under jobs > 1.
    assert [e.data["cell"] for e in cell_events] == [0, 1, 2, 3, 4]
    assert [e.kind for e in cell_events] == ["cell.cached"] * 4 + [
        "cell.done"
    ]

    registry = tracer.instruments.registry
    executed = registry.counter("bass_sweep_cells_total", status="executed")
    cached = registry.counter("bass_sweep_cells_total", status="cached")
    assert (executed.value, cached.value) == (1.0, 4.0)
    assert registry.gauge("bass_sweep_cache_hit_rate").value == 0.8
    assert registry.gauge("bass_sweep_cells_per_second").value > 0


class TestGrid:
    def test_cells_come_in_nested_loop_order(self):
        spec = SweepSpec.grid(
            "g",
            square_cell,
            {"value": (1, 2), "seed": (7, 8)},
            fixed={"extra": "x"},
            label="v{value}/s{seed}",
        )
        assert spec.name == "g"
        assert spec.cells == tuple(
            CellSpec(
                fn=SQUARE,
                kwargs={"value": value, "extra": "x"},
                label=f"v{value}/s{seed}",
                seed=seed,
            )
            for value in (1, 2)
            for seed in (7, 8)
        )

    def test_no_axes_is_one_cell(self):
        spec = SweepSpec.grid("one", square_cell, fixed={"value": 3}, seed=5)
        assert spec.cells == (CellSpec(fn=SQUARE, kwargs={"value": 3}, seed=5),)
        assert run_sweep(spec).results == [
            SquareResult(value=3, squared=9, seed=5)
        ]

    def test_reproduces_the_hand_built_specs_cell_for_cell(self):
        """The comprehensions the grid helper replaced, verbatim (but for
        multitenant's seed, now on the cell): cache keys must not move."""
        from repro.experiments.churn import churn_seed_sweep_spec
        from repro.experiments.multi_tenant import multi_tenant_scaling_spec
        from repro.experiments.thresholds import (
            fig14cd_sweep_spec,
            fig16_sweep_spec,
        )

        fig14cd = fig14cd_sweep_spec()
        assert fig14cd == SweepSpec(
            name="fig14cd",
            cells=tuple(
                CellSpec(
                    fn="repro.experiments.thresholds:_fig14cd_cell",
                    kwargs={
                        "heuristic": heuristic,
                        "threshold": threshold,
                        "headroom": headroom,
                        "rps": 50.0,
                        "duration_s": 600.0,
                    },
                    label=f"{heuristic}/thr{threshold:g}/hr{headroom:g}",
                    seed=144,
                )
                for heuristic in ("bfs", "longest_path")
                for threshold in (0.25, 0.50, 0.65, 0.75, 0.95)
                for headroom in (0.10, 0.20, 0.30)
            ),
        )
        fig16 = fig16_sweep_spec(duration_s=200.0)
        assert fig16 == SweepSpec(
            name="fig16",
            cells=tuple(
                CellSpec(
                    fn="repro.experiments.thresholds:_fig16_cell",
                    kwargs={
                        "threshold": threshold,
                        "mean_rps": 50.0,
                        "headroom": 0.20,
                        "duration_s": 200.0,
                    },
                    label=f"thr{threshold:g}",
                    seed=16,
                )
                for threshold in (0.25, 0.50, 0.65, 0.75)
            ),
        )
        multitenant = multi_tenant_scaling_spec()
        assert multitenant == SweepSpec(
            name="multitenant-scaling",
            cells=tuple(
                CellSpec(
                    fn="repro.experiments.multi_tenant:_mesh_cell",
                    kwargs={"tenants": tenants, "duration_s": 240.0},
                    label=f"tenants{tenants}",
                    seed=11,
                )
                for tenants in (1, 2, 4, 8)
            ),
        )
        # What the function receives is what it received when the seed
        # sat inside ``kwargs``.
        assert [multitenant.resolved_kwargs(i) for i in range(4)] == [
            {"tenants": tenants, "duration_s": 240.0, "seed": 11}
            for tenants in (1, 2, 4, 8)
        ]
        churn_seeds = churn_seed_sweep_spec(seeds=(3, 1), settle_s=60.0)
        assert churn_seeds == SweepSpec(
            name="churn-seeds",
            cells=tuple(
                CellSpec(
                    fn="repro.experiments.churn:_churn_seed_cell",
                    kwargs={"settle_s": 60.0},
                    label=f"seed{seed}",
                    seed=seed,
                )
                for seed in (3, 1)
            ),
        )
        for spec in (fig14cd, fig16, churn_seeds):
            for index, cell in enumerate(spec.cells):
                assert spec.resolved_kwargs(index) == {
                    **cell.kwargs,
                    "seed": cell.seed,
                }
