"""Invariants of the experiment catalogue, checked over the table
itself rather than over hand-kept lists of ids."""

import inspect
import pickle
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.catalog import CATALOG, EXPERIMENTS
from repro.runner import canonical_json, cell_key, run_sweep
from repro.runner.worker import resolve_cell_function

REPO_ROOT = Path(__file__).resolve().parents[2]


def _ids(rows):
    return [row.id for row in rows]


CHECKPOINTABLE = [row for row in CATALOG if row.checkpoint is not None]


def test_ids_are_unique():
    assert len(EXPERIMENTS) == len(CATALOG)


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_parts_come_in_the_pairs_the_driver_needs(row):
    """One way to run in batch — grids of cells plus their renderer, on
    every row — and no second description of a checkpointable run: no
    capsule builder or summary beside the grids."""
    assert not hasattr(row, "report")
    assert not hasattr(row, "capsule") and not hasattr(row, "summary")
    assert callable(row.specs) and callable(row.render)


def test_every_servable_row_is_checkpointable():
    # serve builds (and --checkpoint-dir snapshots) the checkpoint cell.
    for row in CATALOG:
        if row.serve is not None:
            assert row.checkpoint is not None, row.id


@pytest.mark.parametrize("row", CHECKPOINTABLE, ids=_ids(CHECKPOINTABLE))
def test_checkpoint_label_names_exactly_one_quick_cell(row):
    sizing = row.sizing(quick=True)
    label = row.checkpoint.format(**sizing)
    matches = [
        (spec.name, index)
        for spec in row.specs(**sizing)
        for index, cell in enumerate(spec.cells)
        if cell.label == label
    ]
    assert len(matches) == 1, matches
    spec, index = row.checkpoint_cell(quick=True)
    assert [(spec.name, index)] == matches


@pytest.mark.parametrize("row", CHECKPOINTABLE, ids=_ids(CHECKPOINTABLE))
def test_fresh_capsule_is_the_rows_and_pickles_before_start(row):
    capsule = row.capsule_for(quick=True)
    # Restores look the row up by the capsule's scenario.
    assert capsule.scenario == row.id
    assert not capsule.started
    clone = pickle.loads(pickle.dumps(capsule))
    assert clone.scenario == row.id
    assert clone.duration_s == capsule.duration_s
    assert clone.engine.now == 0.0


@pytest.mark.parametrize("row", CHECKPOINTABLE, ids=_ids(CHECKPOINTABLE))
def test_checkpoint_capsule_runs_as_the_sweep_cell(row):
    """Ticked to the horizon, the capsule single-cell mode builds
    returns what calling the cell function with the sweep's kwargs
    returns — compared through the sweep codec."""
    capsule = row.capsule_for(quick=True)
    spec, index = row.checkpoint_cell(quick=True)
    kwargs = spec.resolved_kwargs(index)
    direct = resolve_cell_function(spec.cells[index].fn)(**kwargs)
    capsule.run_to_completion()
    assert _sans_wall_clock(canonical_json(capsule.result())) == (
        _sans_wall_clock(canonical_json(direct))
    )


def _sans_wall_clock(document):
    """Blank fleet's per-round ``decision_seconds`` (wall time)."""
    return re.sub(r'"decision_seconds":\[[^\]]*\]', "", document)


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_quick_sweep_cells_have_unique_keys(row):
    """Two cells sharing a content address would share a cache entry."""
    for spec in row.specs(**row.sizing(quick=True)):
        assert spec.cells
        keys = [
            cell_key(cell.fn, spec.resolved_kwargs(index), "test")
            for index, cell in enumerate(spec.cells)
        ]
        assert len(set(keys)) == len(keys), spec.name


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_every_row_states_claims(row):
    """A row's shapes live in its claims, paper figure or not."""
    assert row.claims


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_every_cell_takes_its_seed_from_the_cell(row):
    """One seed path: a cell's seed is ``CellSpec.seed``, never a
    ``kwargs`` entry or a default of the function it names — so shifting
    a row's seeds is editing its cells."""
    for quick in (True, False):
        for spec in row.specs(**row.sizing(quick)):
            for cell in spec.cells:
                where = f"{spec.name}[{cell.label}]"
                assert "seed" not in cell.kwargs, where
                fn = resolve_cell_function(cell.fn)
                seed = inspect.signature(fn).parameters.get("seed")
                assert (cell.seed is not None) == (seed is not None), where
                if seed is not None:
                    assert seed.default is inspect.Parameter.empty, where


def _assert_claims_hold(row, specs):
    """Run ``specs`` as ``bass-repro run <id>`` runs them and require
    every shape the row's claims name, listing the ones that fail."""
    outcomes = [run_sweep(spec) for spec in specs]
    failed = []
    for claim in row.claims:
        try:
            if not claim.holds(*outcomes):
                failed.append(claim.name)
        except Exception as error:  # e.g. a result the claim names is missing
            failed.append(f"{claim.name} ({error!r})")
    table = row.render(*outcomes)
    assert not failed, (
        f"{row.id}: claims fail: {failed}\n{table.text()}\n{table.note}"
    )


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_claims_hold_at_full_scale(row):
    """The row's full sizing shows every shape its claims name."""
    _assert_claims_hold(row, row.specs(**row.sizing(quick=False)))


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("row_id", ("fig2", "fig5", "fig12"))
def test_claims_hold_at_shifted_seeds(row_id, k):
    """The shapes are not one seed's: with every cell's seed moved by
    1009·k, the row's full sizing still shows all of them."""
    row = EXPERIMENTS[row_id]
    _assert_claims_hold(
        row,
        [
            replace(
                spec,
                cells=tuple(
                    replace(cell, seed=cell.seed + 1009 * k)
                    for cell in spec.cells
                ),
            )
            for spec in row.specs(**row.sizing(quick=False))
        ],
    )


def test_every_paper_row_of_experiments_md_maps_to_an_id():
    """``Fig 14c/d`` -> ``fig14cd``, ``Table 2`` -> ``table2``; rows
    that reproduce an *input* of the paper (no row to run) are exempt."""
    rows = re.findall(
        r"^\| ((?:Fig|Table) [^|]+?) \| ([^|]+) \|",
        (REPO_ROOT / "EXPERIMENTS.md").read_text(),
        flags=re.MULTILINE,
    )
    assert len(rows) >= 18
    for label, bench in rows:
        if bench.startswith("(input)"):
            continue
        row_id = re.sub(r"[ /]", "", label).lower()
        assert row_id in EXPERIMENTS, label
