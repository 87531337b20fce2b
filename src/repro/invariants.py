"""System invariants, stated once as pure checkers.

Each checker takes plain values (no emulator, no solver) and returns a
list of human-readable violations: empty means the invariant holds.  A
checker needs no reference implementation to compare against, so it can
judge any path that produces the values — an incremental solve, a
restored run, a skipped fill.

The first one is the max-min **bottleneck certificate** (Bertsekas &
Gallager, *Data Networks*, §6.5): a feasible, demand-bounded allocation
is the max-min fair one exactly when every flow is demand-limited or
crosses a *saturated* link on which no flow gets more than it does.
:func:`max_min_certificate` checks it together with feasibility.

The perf ledger's ``bench/checks.py`` still compares rates with its own
oracle; it moves onto this module in the ledger's next revision
(ROADMAP item 1), and the other invariants of ROADMAP item 3(a) join
this one here.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

#: Relative tolerance of every comparison: a value ``v`` is compared
#: within ``TOLERANCE * (1 + |v|)``.  The water-fill retires a flow
#: within ``1e-9`` of its demand and saturates a link within ``1e-9``
#: of its capacity, and its float rounding is far below that.
TOLERANCE = 1e-9


def _slack(value: float) -> float:
    return TOLERANCE * (1.0 + abs(value))


def max_min_certificate(
    flows: Iterable,
    capacities: Mapping[tuple[str, str], float],
    rates: Mapping[Hashable, float],
) -> list[str]:
    """Violations of the max-min bottleneck certificate.

    Args:
        flows: rows with ``flow_id``, ``links`` (directed link keys; a
            link listed twice carries the flow twice) and
            ``demand_mbps``.
        capacities: capacity of every link the flows cross.
        rates: the allocation to check, one rate per flow.

    Checked:

    * every rate lies in ``[0, demand]``;
    * no link carries more than its capacity;
    * every flow is demand-limited, or crosses a saturated link (load
      at its capacity) on which its rate is the largest.

    A NaN capacity never binds and is never exceeded, as in the fill.
    """
    flows = list(flows)
    problems: list[str] = []
    load: dict[tuple[str, str], float] = {}
    top: dict[tuple[str, str], float] = {}
    for flow in flows:
        rate = rates[flow.flow_id]
        demand = flow.demand_mbps
        if not 0.0 <= rate <= demand + _slack(demand):
            problems.append(
                f"flow {flow.flow_id!r}: rate {rate!r} outside [0, {demand!r}]"
            )
        for key in flow.links:
            load[key] = load.get(key, 0.0) + rate
            if rate > top.get(key, -1.0):
                top[key] = rate
    saturated = set()
    for key, carried in load.items():
        capacity = capacities[key]
        if carried > capacity + _slack(capacity):
            problems.append(
                f"link {key}: carries {carried!r} > capacity {capacity!r}"
            )
        if carried >= capacity - _slack(capacity):
            saturated.add(key)
    for flow in flows:
        rate = rates[flow.flow_id]
        if rate >= flow.demand_mbps - _slack(flow.demand_mbps):
            continue
        if not any(
            key in saturated and rate >= top[key] - _slack(top[key])
            for key in flow.links
        ):
            problems.append(
                f"flow {flow.flow_id!r}: rate {rate!r} below its demand "
                f"{flow.demand_mbps!r} with no saturated link where it is largest"
            )
    return problems
