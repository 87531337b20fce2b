"""Shared helpers for the benchmark harness.

Each benchmark prints its tables and persists them under
``benchmarks/results/``.  The paper's figures are catalogue rows
instead: ``bass-repro run <id>`` prints them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.experiments.catalog import Table

RESULTS_DIR = Path(__file__).parent / "results"


def save_table(
    name: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    note: str = "",
) -> str:
    """Render an aligned text table, print it, and persist it."""
    text = Table(headers, list(rows)).text()
    if note:
        text += f"\n\nnote: {note}"
    print(f"\n=== {name} ===\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def fmt(value: float, digits: int = 2) -> str:
    """Format a float compactly for table cells."""
    return f"{value:.{digits}f}"


def run_once(benchmark, func, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeated rounds
    would re-measure identical work — so every benchmark uses a single
    round and reports the scenario's wall time.
    """
    return benchmark.pedantic(
        func, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
