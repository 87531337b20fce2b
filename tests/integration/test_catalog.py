"""Invariants of the experiment catalogue, checked over the table
itself rather than over hand-kept lists of ids."""

import pickle
import re
from pathlib import Path

import pytest

from repro.experiments.catalog import CATALOG, EXPERIMENTS
from repro.runner import cell_key

REPO_ROOT = Path(__file__).resolve().parents[2]


def _ids(rows):
    return [row.id for row in rows]


CHECKPOINTABLE = [row for row in CATALOG if row.capsule is not None]


def test_ids_are_unique():
    assert len(EXPERIMENTS) == len(CATALOG)


@pytest.mark.parametrize("row", CATALOG, ids=_ids(CATALOG))
def test_parts_come_in_the_pairs_the_driver_needs(row):
    """One way to run in batch — grids of cells plus their renderer, on
    every row — and a capsule builder always brings its summary."""
    assert not hasattr(row, "report")
    assert callable(row.specs) and callable(row.render)
    assert (row.capsule is None) == (row.summary is None)


def test_every_servable_row_is_checkpointable():
    # serve --checkpoint-dir snapshots the run it ticks.
    for row in CATALOG:
        if row.serve is not None:
            assert row.capsule is not None, row.id


@pytest.mark.parametrize("row", CHECKPOINTABLE, ids=_ids(CHECKPOINTABLE))
def test_fresh_capsule_is_the_rows_and_pickles_before_start(row):
    capsule = row.capsule(**row.sizing(quick=True))
    # Restores look the row up by the capsule's scenario.
    assert capsule.scenario == row.id
    assert not capsule.started
    clone = pickle.loads(pickle.dumps(capsule))
    assert clone.scenario == row.id
    assert clone.duration_s == capsule.duration_s
    assert clone.engine.now == 0.0


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
