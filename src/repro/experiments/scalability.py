"""Scheduling-machinery scalability cells (§3.2.1 / §7).

The paper argues its heuristics stay tractable where ILP solvers are
"infeasible for resource constrained wireless mesh environments" — a
Philadelphia mesh of ~30 nodes would need 900 path-bandwidth
constraints.  These cells time the ordering heuristics on synthetic
layered DAGs and the max-min allocator on mesh-scale flow sets; the
scalability benchmarks sweep them and check growth stays polynomial.

Timing cells are **not cacheable**: their results are wall-clock
measurements, so replaying them from a cache would report the machine
state of some earlier run.  Sweeps over them must pass ``cache=None``
(the benchmarks do).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.dag import Component, ComponentDAG
from ..core.ordering import (
    breadth_first_order,
    hybrid_order,
    longest_path_order,
)
from ..net.fairness import FlowDemand, max_min_allocation
from ..runner import SweepSpec

#: The DAG sizes and flow counts the scalability benchmarks sweep.
ORDERING_SIZES = (25, 50, 100, 200, 400)
ALLOCATION_FLOW_COUNTS = (50, 200, 800)


def layered_dag(n_components: int, *, fanout: int = 3) -> ComponentDAG:
    """A layered DAG (the shape of real microservice graphs)."""
    dag = ComponentDAG(f"scale{n_components}")
    rng = np.random.default_rng(n_components)
    names = [f"c{i}" for i in range(n_components)]
    for name in names:
        dag.add_component(Component(name))
    for i, name in enumerate(names[1:], start=1):
        # Every component gets 1..fanout parents among earlier ones.
        n_parents = int(rng.integers(1, fanout + 1))
        parents = rng.choice(i, size=min(n_parents, i), replace=False)
        for parent in parents:
            dag.add_dependency(
                names[int(parent)], name, float(rng.uniform(0.5, 20.0))
            )
    return dag


@dataclass(frozen=True)
class OrderingTiming:
    """Wall time of each ordering heuristic on one DAG size."""

    components: int
    bfs_s: float
    longest_path_s: float
    hybrid_s: float

    def seconds(self, heuristic: str) -> float:
        return {
            "bfs": self.bfs_s,
            "longest_path": self.longest_path_s,
            "hybrid": self.hybrid_s,
        }[heuristic]


def ordering_timing_cell(*, n_components: int) -> OrderingTiming:
    """Time all three ordering heuristics on one layered DAG."""
    dag = layered_dag(n_components)
    timings = {}
    for label, func in (
        ("bfs", breadth_first_order),
        ("longest_path", longest_path_order),
        ("hybrid", hybrid_order),
    ):
        start = time.perf_counter()
        order = func(dag)
        timings[label] = time.perf_counter() - start
        if sorted(order) != sorted(dag.component_names):
            raise ValueError(f"{label} dropped components at n={n_components}")
    return OrderingTiming(
        components=n_components,
        bfs_s=timings["bfs"],
        longest_path_s=timings["longest_path"],
        hybrid_s=timings["hybrid"],
    )


@dataclass(frozen=True)
class AllocationTiming:
    """Wall time of one max-min allocation over a synthetic flow set."""

    flows: int
    seconds: float


def allocation_timing_cell(
    *,
    n_flows: int,
    n_links: int = 30,
    capacity_mbps: float = 25.0,
    seed: int = 7,
) -> AllocationTiming:
    """Time max-min allocation over ``n_flows`` random short-path flows
    on an ``n_links``-link ring (the Philadelphia-mesh scale §7 cites).
    """
    rng = np.random.default_rng(seed)
    links = [(f"n{i}", f"n{(i + 1) % n_links}") for i in range(n_links)]
    flows = []
    for i in range(n_flows):
        start = int(rng.integers(0, n_links))
        hops = int(rng.integers(1, 4))
        path = tuple(links[(start + h) % n_links] for h in range(hops))
        flows.append(
            FlowDemand(
                flow_id=f"f{i}",
                links=path,
                demand_mbps=float(rng.uniform(0.1, 20.0)),
            )
        )
    capacities = {link: capacity_mbps for link in links}
    begin = time.perf_counter()
    rates = max_min_allocation(flows, capacities)
    seconds = time.perf_counter() - begin
    if len(rates) != n_flows:
        raise ValueError(f"allocator returned {len(rates)}/{n_flows} rates")
    return AllocationTiming(flows=n_flows, seconds=seconds)


def ordering_scalability_spec(
    *, sizes: tuple[int, ...] = ORDERING_SIZES
) -> SweepSpec:
    """Heuristic-timing sweep over DAG sizes (run with ``cache=None``)."""
    return SweepSpec.grid(
        "scalability-ordering",
        ordering_timing_cell,
        {"n_components": sizes},
        label="n{n_components}",
    )


def allocation_scalability_spec(
    *, flow_counts: tuple[int, ...] = ALLOCATION_FLOW_COUNTS
) -> SweepSpec:
    """Allocator-timing sweep over flow counts (run with ``cache=None``)."""
    return SweepSpec.grid(
        "scalability-allocation",
        allocation_timing_cell,
        {"n_flows": flow_counts},
        label="f{n_flows}",
    )
