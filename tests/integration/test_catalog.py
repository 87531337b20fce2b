"""Invariants of the experiment catalogue, checked over the table
itself rather than over hand-kept lists of ids."""

import pickle
import re
from pathlib import Path

import pytest

from repro.experiments.catalog import CATALOG, EXPERIMENTS
from repro.runner import canonical_json, cell_key
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


def test_every_paper_row_of_experiments_md_maps_to_an_id():
    """``Fig 14c/d`` -> ``fig14cd``, ``Table 2`` -> ``table2``; rows
    that reproduce an *input* of the paper (no bench to run) are exempt."""
    rows = re.findall(
        r"^\| ((?:Fig|Table) [^|]+?) \| ([^|]+) \|",
        (REPO_ROOT / "EXPERIMENTS.md").read_text(),
        flags=re.MULTILINE,
    )
    assert len(rows) >= 18
    for label, bench in rows:
        if bench.startswith("(input)"):
            continue
        assert re.sub(r"[ /]", "", label).lower() in EXPERIMENTS, label
