"""Parallel sweep runner with content-addressed result caching.

The evaluation workloads — threshold grids, seeded churn sweeps,
ablations, multi-tenant scaling — are embarrassingly parallel: every
(configuration, seed) cell is an independent deterministic simulation.
This package fans cells out over worker processes, memoizes completed
cells on disk keyed by *content* (configuration + seed + a fingerprint
of the code they exercise), and merges results in canonical cell order
so parallel output is byte-identical to serial output.

See DESIGN.md, "Parallel sweeps".
"""

from .cache import MISS, CacheEntryWarning, ResultCache, cell_key, open_cache
from .codec import canonical_json, decode_value, encode_value
from .costmodel import cell_cost, order_longest_first
from .fingerprint import code_fingerprint
from .queue import FabricStats, WorkerReport
from .sweep import (
    CellFailure,
    CellSpec,
    SweepCellError,
    SweepOutcome,
    SweepSpec,
    SweepStats,
    derive_cell_seed,
    run_sweep,
)

__all__ = [
    "MISS",
    "CacheEntryWarning",
    "CellFailure",
    "CellSpec",
    "FabricStats",
    "ResultCache",
    "SweepCellError",
    "SweepOutcome",
    "SweepSpec",
    "SweepStats",
    "WorkerReport",
    "canonical_json",
    "cell_cost",
    "cell_key",
    "code_fingerprint",
    "decode_value",
    "derive_cell_seed",
    "encode_value",
    "open_cache",
    "order_longest_first",
    "run_sweep",
]
