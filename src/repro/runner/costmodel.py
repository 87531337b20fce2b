"""Expected-cost model for sweep cells: pack heterogeneous grids tightly.

A threshold-grid cell over a 60-second horizon and a 60-node churn cell
over 400 simulated seconds differ by two orders of magnitude in wall
time.  Dispatching them in spec order lets a long cell land last and
serialize the sweep's tail; the sweep fabric instead orders pending
cells **longest-expected-first** so big cells start early and the small
ones fill the gaps (classic LPT list scheduling); handing out one cell
at a time bounds what a wrong estimate can cost to one cell.

The estimate is deliberately coarse: simulated wall time scales with
the horizon and with the amount of mesh the emulator ticks over, so the
model reads the conventional kwarg names the experiment cells already
use (``duration_s`` / ``total_s`` / ``settle_s``, ``nodes`` /
``tenants``, ``flows`` / ``rps``) and falls back to defaults when a
cell names none of them.  Only the *relative* order of the estimates is
used.

Example:
    >>> cell_cost({"duration_s": 600.0}) > cell_cost({"duration_s": 60.0})
    True
    >>> cell_cost({"weight": 50}) > cell_cost({"weight": 1})
    True
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: Fixed per-cell overhead (import resolution, topology build), seconds.
BASE_COST_S = 0.02
#: Cost per simulated second at the calibration point below.
PER_HORIZON_S = 0.002
#: Extra cost per simulated second per unit of nodes*flows beyond the
#: calibration point (fit against BENCH_emulator.json tick rates:
#: 60 nodes x 500 flows ~ 2.6 ms/tick on the reference machine).
PER_NODE_FLOW_HORIZON_S = 2.6e-3 / (60.0 * 500.0)

#: Defaults when a cell's kwargs name no mesh size (the CityLab subset
#: most experiment cells run on).
DEFAULT_NODES = 10.0
DEFAULT_FLOWS = 20.0
DEFAULT_HORIZON_S = 60.0

_HORIZON_KEYS = ("duration_s", "total_s", "horizon_s", "settle_s")
_NODE_KEYS = ("nodes", "n_nodes", "node_count", "tenants", "regions")
_FLOW_KEYS = ("flows", "n_flows", "flow_count", "rps", "mean_rps")


def _first_number(kwargs: Mapping[str, Any], keys: Sequence[str]) -> float:
    for key in keys:
        value = kwargs.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return 0.0


def cell_cost(kwargs: Mapping[str, Any]) -> float:
    """Expected wall seconds for one cell, from its kwargs.

    An explicit ``weight`` kwarg (used by synthetic benchmark cells)
    dominates; otherwise the estimate is
    ``base + horizon * (per_s + per_node_flow * nodes * flows)`` with
    defaults for anything the cell does not name.
    """
    weight = kwargs.get("weight")
    if isinstance(weight, (int, float)) and not isinstance(weight, bool):
        return BASE_COST_S + float(weight)
    horizon = _first_number(kwargs, _HORIZON_KEYS) or DEFAULT_HORIZON_S
    nodes = _first_number(kwargs, _NODE_KEYS) or DEFAULT_NODES
    flows = _first_number(kwargs, _FLOW_KEYS) or DEFAULT_FLOWS
    return BASE_COST_S + horizon * (
        PER_HORIZON_S + PER_NODE_FLOW_HORIZON_S * nodes * flows
    )


def order_longest_first(
    costs: Sequence[float], indices: Sequence[int]
) -> list[int]:
    """``indices`` sorted by descending cost, ties broken by index.

    Deterministic for a given spec: equal-cost cells keep canonical
    order, so the dispatch order never depends on dict ordering or
    timing.

    Example:
        >>> order_longest_first([1.0, 5.0, 5.0, 0.5], [0, 1, 2, 3])
        [1, 2, 0, 3]
    """
    return sorted(indices, key=lambda index: (-costs[index], index))
