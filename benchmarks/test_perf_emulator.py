"""Perf harness for the fluid-model hot path (the SoA tick core).

Every orchestrator signal is a query against :class:`NetworkEmulator`,
so its per-tick cost bounds how long a trace replay or churn sweep
takes.  This harness measures, across mesh sizes (5 -> 1000 nodes) and
flow counts (10 -> 10000):

* ticks/sec of the optimized tick loop (grid-grouped capacity scan,
  O(1) fingerprint, vectorized queue/flow bookkeeping, incremental
  max-min re-solve), and
* ticks/sec of a frozen copy of the seed implementation's tick path
  (per-link double capacity scan + global reference water-filling each
  tick) on the tracked legacy sizes, and
* solve-only time of the reference / indexed / batched kernels on the
  whole instance (the kernel cutover is on the instance's active-flow
  count), plus the auto-dispatched from-scratch solve and the
  incremental single-link re-solve, and
* ticks/sec of *churned* ticks — 32 flow mutations before every tick,
  the ledger's ``flow_churn`` mix — at 1 200 flows (against the frozen
  tick path replaying the same mutations) and at 10 000, where the
  flow table and the component structure are maintained by delta.

Results are written to ``BENCH_emulator.json`` at the repo root (merged
per case, so the smoke run in CI refreshes its sizes without clobbering
the full sweep's) — the perf trajectory is tracked across PRs.  The
fast and baseline loops run on identically seeded emulators and must
end with *exactly* equal allocations, so the speedup claim is never
bought with drift.  The oracle is the decomposed reference solver
(``tests.oracles.reference_allocation``): solving per
link-connected component is the canonical semantics, and on a single
component it is bit-identical to the frozen global reference loop
(``tests/unit/test_fairness_equivalence.py`` proves both).

City-scale cases (250 and 1000 nodes) skip the baseline tick loop — it
would take minutes per tick — and instead assert exact equality of the
final allocation against the decomposed reference oracle.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mesh.node import MeshNode
from repro.mesh.tracegen import citylab_link_trace
from repro.mesh.traces import BandwidthTrace
from repro.mesh.topology import MeshTopology
from repro.net.fairness import (
    FlowDemand,
    IncrementalMaxMin,
    _fill_batched,
    _fill_indexed,
    _partition_flows,
    link_components,
    max_min_allocation,
)
from repro.net.netem import NetworkEmulator

from _reporting import fmt, run_once, save_table
from tests.oracles import LinkQueue, forced_kernel, reference_allocation

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_emulator.json"

#: (n_nodes, n_flows, n_ticks) — the sweep the acceptance criteria track.
#: The 30-node case doubles as CI's mid-size SoA smoke leg.
SMOKE_CASES = [(5, 10, 300), (15, 50, 150), (30, 200, 50)]
FULL_CASES = SMOKE_CASES + [(60, 500, 30)]

#: (n_regions, nodes_per_region, n_flows, n_ticks) — city-scale cases.
LARGE_CASES = [(25, 10, 2500, 40), (100, 10, 10000, 20)]


#: (n_regions, nodes_per_region, n_flows, n_ticks) — churned-tick cases:
#: before every tick ``CHURN_MIX`` flows are swapped (removed, and a new
#: one added between fresh endpoints), retuned (``set_demand``) and
#: rerouted — the ledger's ``flow_churn`` mix, 32 mutations per tick —
#: so the flow table and the component structure are maintained by
#: delta every tick instead of built once.
CHURN_MIX = (10, 10, 2)
CHURN_SMOKE_CASE = (12, 10, 1200, 20)
CHURN_CITY_CASE = (100, 10, 10000, 20)
#: Churn cases sit beside the frozen-flow-set case of the same size in
#: ``BENCH_emulator.json``, under its name plus this.
CHURN_SUFFIX = "_churn"


def random_mesh(n_nodes: int, seed: int, *, trace_s: float) -> MeshTopology:
    """A connected random mesh: ring backbone plus seeded chords, every
    link driven by a CityLab-style bandwidth trace so capacities really
    change each tick (no fingerprint shortcuts for the solver)."""
    rng = np.random.default_rng(seed)
    topo = MeshTopology()
    names = [f"node{i}" for i in range(n_nodes)]
    for name in names:
        topo.add_node(MeshNode(name, cpu_cores=8, memory_mb=8192))
    pairs = [(names[i], names[(i + 1) % n_nodes]) for i in range(n_nodes)]
    n_chords = n_nodes // 2
    while len(pairs) < n_nodes + n_chords:
        a, b = rng.choice(n_nodes, size=2, replace=False)
        a, b = names[int(a)], names[int(b)]
        if not topo.has_link(a, b) and (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    for a, b in pairs:
        mean = float(rng.uniform(8.0, 40.0))
        link = topo.add_link(a, b, capacity_mbps=mean)
        link.set_trace(
            citylab_link_trace(mean, trace_s, variability="moderate", rng=rng)
        )
    return topo


def coarse_trace(
    mean_mbps: float, duration_s: float, rng: np.random.Generator
) -> BandwidthTrace:
    """Piecewise-constant capacity with coarse random segment lengths
    (5-40 s).  City-scale links wobble on Wi-Fi fade timescales, not
    every second — and the desynchronized segment boundaries are what
    exercises the incremental solver's sparse dirty sets: each tick a
    few percent of links cross a boundary, so only their components
    re-solve."""
    times = [0.0]
    while times[-1] < duration_s:
        times.append(times[-1] + float(rng.uniform(5.0, 40.0)))
    values = np.maximum(
        mean_mbps * rng.uniform(0.55, 1.35, size=len(times)), 0.5
    )
    return BandwidthTrace(times, values, loop=True)


def regional_random_mesh(
    n_regions: int, per_region: int, seed: int, *, trace_s: float
) -> MeshTopology:
    """A city-scale community mesh: sparse random neighbourhoods (ring
    plus chords, so intra-region paths are multi-hop and flows share
    links) joined by a static backbone ring of region gateways."""
    rng = np.random.default_rng(seed)
    topo = MeshTopology()
    for r in range(n_regions):
        names = [f"r{r}n{j}" for j in range(per_region)]
        for name in names:
            topo.add_node(MeshNode(name, cpu_cores=8, memory_mb=8192))
        pairs = [
            (names[i], names[(i + 1) % per_region])
            for i in range(per_region)
        ]
        n_chords = per_region // 2
        while len(pairs) < per_region + n_chords:
            a, b = rng.choice(per_region, size=2, replace=False)
            a, b = names[int(a)], names[int(b)]
            if (
                not topo.has_link(a, b)
                and (a, b) not in pairs
                and (b, a) not in pairs
            ):
                pairs.append((a, b))
        for a, b in pairs:
            mean = float(rng.uniform(8.0, 40.0))
            link = topo.add_link(a, b, capacity_mbps=mean)
            link.set_trace(coarse_trace(mean, trace_s, rng))
    for r in range(n_regions):
        a, b = f"r{r}n0", f"r{(r + 1) % n_regions}n0"
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, capacity_mbps=25.0, latency_ms=8.0)
    return topo


def add_random_flows(emu: NetworkEmulator, n_flows: int, seed: int) -> None:
    rng = np.random.default_rng(seed + 1)
    names = emu.topology.node_names
    for i in range(n_flows):
        src = names[int(rng.integers(0, len(names)))]
        if rng.random() < 0.05:
            dst = src  # loopback
        else:
            dst = names[int(rng.integers(0, len(names)))]
        emu.add_flow(f"f{i}", src, dst, float(rng.uniform(0.1, 15.0)))


def add_regional_flows(
    emu: NetworkEmulator,
    n_regions: int,
    per_region: int,
    n_flows: int,
    seed: int,
) -> None:
    """Intra-region flows only: regions share no links, so the instance
    decomposes into ~one connected component per region."""
    rng = np.random.default_rng(seed + 1)
    for i in range(n_flows):
        r = int(rng.integers(0, n_regions))
        j, k = rng.choice(per_region, size=2, replace=False)
        emu.add_flow(
            f"f{i}",
            f"r{r}n{int(j)}",
            f"r{r}n{int(k)}",
            float(rng.uniform(0.1, 15.0)),
        )


def seed_capacity_scan(emu: NetworkEmulator) -> dict:
    """The seed implementation's per-link Python capacity scan."""
    t = emu.now
    return {
        (src, dst): link.capacity(src, dst, t)
        for src, dst, link in emu.topology.iter_directed_links()
    }


def reference_tick(emu: NetworkEmulator, queues: dict) -> None:
    """A frozen copy of the seed tick path: per-link capacity scan,
    per-object queue advance (``queues``: one scalar oracle per link),
    then a recompute that scans capacities *again* and solves with the
    (decomposed) reference kernel — no fingerprint, no arrays, no
    incremental state."""
    capacities = seed_capacity_scan(emu)
    offered = {key: 0.0 for key in queues}
    for flow in emu._flows.values():
        for key in flow.links:
            offered[key] += flow.demand_mbps
        emu._offered_mbit_by_tag[flow.tag] = (
            emu._offered_mbit_by_tag.get(flow.tag, 0.0)
            + flow.demand_mbps * emu.tick_s * max(len(flow.links), 0)
        )
    for key, queue in queues.items():
        queue.update(emu.tick_s, offered[key], capacities[key])
    capacities = seed_capacity_scan(emu)  # the seed's double scan
    demands = [
        FlowDemand(flow_id=fid, links=flow.links, demand_mbps=flow.demand_mbps)
        for fid, flow in emu._flows.items()
    ]
    rates = reference_allocation(demands, capacities)
    for fid, flow in emu._flows.items():
        flow.allocated_mbps = rates.get(fid, 0.0)


def build_emulator(n_nodes: int, n_flows: int, n_ticks: int) -> NetworkEmulator:
    seed = 10_000 + n_nodes
    topo = random_mesh(n_nodes, seed, trace_s=float(n_ticks + 5))
    emu = NetworkEmulator(topo)
    add_random_flows(emu, n_flows, seed)
    return emu


def time_tick_loop(emu: NetworkEmulator, n_ticks: int, tick) -> float:
    """Drive ``tick`` through the engine for ``n_ticks`` steps; returns
    elapsed wall seconds (engine dispatch overhead included for both
    contenders)."""
    task = emu.engine.every(emu.tick_s, lambda: tick(emu))
    begin = time.perf_counter()
    emu.engine.run_until(n_ticks * emu.tick_s)
    elapsed = time.perf_counter() - begin
    task.stop()
    return elapsed


def solve_snapshot(emu: NetworkEmulator) -> tuple[list[FlowDemand], dict]:
    demands = [
        FlowDemand(flow_id=fid, links=flow.links, demand_mbps=flow.demand_mbps)
        for fid, flow in emu._flows.items()
    ]
    return demands, emu.capacities_now()


def time_solvers(emu: NetworkEmulator, *, repeats: int = 3) -> dict:
    """:func:`time_instance` on the emulator's current flows and
    capacities."""
    return time_instance(*solve_snapshot(emu), repeats=repeats)


def time_instance(
    demands: list[FlowDemand], capacities: dict, *, repeats: int = 3
) -> dict:
    """Best-of-N solve-only wall times (ms), whole instance.

    ``reference`` is the test oracle; ``indexed`` / ``batched`` force a
    kernel through its whole-instance entry point (``indexed`` is the
    plan kernel with a throw-away plan per component); ``full`` is
    ``max_min_allocation`` (whichever kernel the cutover picks for
    ``active_flows``); ``incremental`` is a retained-engine re-solve
    after a single-link capacity perturbation (below the cutover: the
    plan kernel replaying its retained plans).
    """
    _, active = _partition_flows(demands, capacities)
    solvers = {
        "reference": reference_allocation,
        "indexed": forced_kernel(_fill_indexed),
        "batched": forced_kernel(_fill_batched),
        "full": max_min_allocation,
    }
    timings: dict[str, float] = {}
    for label, solve in solvers.items():
        best = float("inf")
        for _ in range(repeats):
            begin = time.perf_counter()
            solve(demands, capacities)
            best = min(best, time.perf_counter() - begin)
        timings[label] = best * 1000.0

    # Incremental tier: full solve once, then perturb one link an
    # active flow crosses and re-solve.
    if active:
        link_index = {key: i for i, key in enumerate(capacities)}
        cap_values = np.array(
            [capacities[key] for key in link_index], dtype=float
        )
        engine = IncrementalMaxMin()
        table = {flow.flow_id: flow for flow in demands}
        engine.solve(table, link_index, cap_values)
        target = link_index[next(iter(active.values())).links[0]]
        base = float(cap_values[target])
        best = float("inf")
        for i in range(repeats * 2):
            cap_values[target] = base * 0.9 if i % 2 == 0 else base
            begin = time.perf_counter()
            engine.solve(table, link_index, cap_values)
            best = min(best, time.perf_counter() - begin)
        timings["incremental"] = best * 1000.0
    else:
        timings["incremental"] = 0.0

    return {
        "solve_ms": timings,
        "active_flows": len(active),
        "components": len(link_components(active)),
    }


#: (label, links, flows as (path over link numbers, demand)) — the
#: component shapes the 5-node social-network loop refills every tick:
#: one link under 1-8 flows 88 % of the time, never more than two links.
SOCIAL_SHAPES = [
    ("1 link x 1 flow", 1, [((0,), 6.0)]),
    ("1 link x 4 flows", 1, [((0,), d) for d in (0.4, 2.5, 6.0, 11.0)]),
    (
        "1 link x 8 flows",
        1,
        [((0,), d) for d in (0.2, 0.4, 0.9, 1.6, 2.5, 4.0, 6.0, 11.0)],
    ),
    (
        "2 links x 8 flows",
        2,
        [((0,), d) for d in (0.4, 1.6, 4.0, 11.0)]
        + [((1,), d) for d in (0.9, 6.0)]
        + [((0, 1), d) for d in (0.2, 2.5)],
    ),
]


def time_social_shapes(*, repeats: int = 200) -> list[dict]:
    """The kernel table on :data:`SOCIAL_SHAPES` (one component each,
    links tight enough that some flows are satisfied and the rest
    share what is left)."""
    rows = []
    for label, n_links, flows in SOCIAL_SHAPES:
        links = [(f"s{i}", f"s{i + 1}") for i in range(n_links)]
        demands = [
            FlowDemand(
                flow_id=f"f{i}",
                links=tuple(links[hop] for hop in path),
                demand_mbps=demand,
            )
            for i, (path, demand) in enumerate(flows)
        ]
        capacities = {key: 9.0 + 4.0 * i for i, key in enumerate(links)}
        expected = reference_allocation(demands, capacities)
        assert forced_kernel(_fill_indexed)(demands, capacities) == expected
        assert forced_kernel(_fill_batched)(demands, capacities) == expected
        row = time_instance(demands, capacities, repeats=repeats)
        row["shape"] = label
        rows.append(row)
    return rows


def report_social_shapes(rows: list[dict], name: str) -> None:
    save_table(
        name,
        [
            "shape",
            "solve_ref_us",
            "solve_indexed_us",
            "solve_batched_us",
            "solve_incr_us",
        ],
        [
            [
                row["shape"],
                fmt(row["solve_ms"]["reference"] * 1000.0, 1),
                fmt(row["solve_ms"]["indexed"] * 1000.0, 1),
                fmt(row["solve_ms"]["batched"] * 1000.0, 1),
                fmt(row["solve_ms"]["incremental"] * 1000.0, 1),
            ]
            for row in rows
        ],
        note="social-network component shapes, one component each; "
        "indexed = plan kernel with a throw-away plan, incr = the "
        "retained plan replayed after a capacity move (whole "
        "IncrementalMaxMin.solve call); not persisted to "
        "BENCH_emulator.json",
    )


def oracle_allocation(emu: NetworkEmulator) -> dict:
    demands, capacities = solve_snapshot(emu)
    return reference_allocation(demands, capacities)


def run_case(n_nodes: int, n_flows: int, n_ticks: int) -> dict:
    fast = build_emulator(n_nodes, n_flows, n_ticks)
    ref = build_emulator(n_nodes, n_flows, n_ticks)

    fast_s = time_tick_loop(fast, n_ticks, lambda emu: emu.tick())
    scalar_queues = {
        key: LinkQueue(buffer_mbit=float(buffer))
        for key, buffer in zip(ref._link_keys, ref._queue_arrays.buffer_mbit)
    }
    ref_s = time_tick_loop(
        ref, n_ticks, lambda emu: reference_tick(emu, scalar_queues)
    )

    # Identically seeded runs must land on exactly equal allocations —
    # the speedup is only valid if the fast path stayed bit-compatible.
    fast_alloc = {f.flow_id: f.allocated_mbps for f in fast.flows}
    ref_alloc = {f.flow_id: f.allocated_mbps for f in ref.flows}
    assert fast_alloc == ref_alloc, "fast path diverged from reference"

    result = {
        "nodes": n_nodes,
        "flows": n_flows,
        "ticks": n_ticks,
        "fast_ticks_per_s": n_ticks / fast_s,
        "reference_ticks_per_s": n_ticks / ref_s,
        "tick_speedup": ref_s / fast_s,
    }
    result.update(time_solvers(fast))
    result["solver_speedup_batched"] = (
        result["solve_ms"]["reference"] / result["solve_ms"]["batched"]
        if result["solve_ms"]["batched"] > 0
        else float("inf")
    )
    return result


def run_large_case(
    n_regions: int, per_region: int, n_flows: int, n_ticks: int
) -> dict:
    seed = 20_000 + n_regions
    topo = regional_random_mesh(
        n_regions, per_region, seed, trace_s=float(n_ticks + 60)
    )
    emu = NetworkEmulator(topo)
    add_regional_flows(emu, n_regions, per_region, n_flows, seed)

    fast_s = time_tick_loop(emu, n_ticks, lambda e: e.tick())

    # No baseline loop at this scale; the exactness bar is equality of
    # the final allocation against the decomposed reference oracle.
    expected = oracle_allocation(emu)
    got = {f.flow_id: f.allocated_mbps for f in emu.flows}
    assert got == expected, "fast path diverged from reference oracle"

    result = {
        "nodes": n_regions * per_region,
        "flows": n_flows,
        "ticks": n_ticks,
        "fast_ticks_per_s": n_ticks / fast_s,
        "solver_stats": emu.solver_stats(),
    }
    result.update(time_solvers(emu))
    return result


class Churn:
    """The ``flow_churn`` mutation mix against one emulator, replayable:
    two instances with one seed mutate their emulators identically."""

    def __init__(
        self, emu: NetworkEmulator, n_regions: int, per_region: int, seed: int
    ) -> None:
        self.emu = emu
        self.shape = (n_regions, per_region)
        self.rng = np.random.default_rng(seed + 2)
        self.ids = [flow.flow_id for flow in emu.flows]
        self.next_id = len(self.ids)

    def endpoints(self) -> tuple[str, str]:
        n_regions, per_region = self.shape
        r = int(self.rng.integers(0, n_regions))
        j, k = self.rng.choice(per_region, size=2, replace=False)
        return f"r{r}n{int(j)}", f"r{r}n{int(k)}"

    def mutate(self) -> None:
        emu, rng, ids = self.emu, self.rng, self.ids
        swap, retune, _ = CHURN_MIX
        picks = rng.choice(len(ids), size=sum(CHURN_MIX), replace=False)
        for pick in picks[:swap]:
            emu.remove_flow(ids[pick])
            ids[pick] = f"f{self.next_id}"
            self.next_id += 1
            emu.add_flow(ids[pick], *self.endpoints(), float(rng.uniform(0.1, 15.0)))
        for pick in picks[swap : swap + retune]:
            emu.set_demand(ids[pick], float(rng.uniform(0.1, 15.0)))
        for pick in picks[swap + retune :]:
            emu.reroute_flow(ids[pick], *self.endpoints())


def run_churn_case(
    n_regions: int,
    per_region: int,
    n_flows: int,
    n_ticks: int,
    *,
    baseline: bool,
) -> dict:
    """Ticks/sec of the tick loop with ``CHURN_MIX`` mutations before
    every tick (mutations timed with the tick they precede).  With
    ``baseline`` the frozen reference tick path replays the same
    mutation stream and both must end on exactly equal allocations;
    without it (city scale) the final allocation must equal the
    decomposed reference oracle's."""
    seed = 30_000 + n_regions

    def build() -> tuple[NetworkEmulator, Churn]:
        topo = regional_random_mesh(
            n_regions, per_region, seed, trace_s=float(n_ticks + 60)
        )
        emu = NetworkEmulator(topo)
        add_regional_flows(emu, n_regions, per_region, n_flows, seed)
        return emu, Churn(emu, n_regions, per_region, seed)

    def churned(tick):
        def step(emu):
            churn.mutate()
            tick(emu)

        return step

    emu, churn = build()
    fast_s = time_tick_loop(emu, n_ticks, churned(lambda e: e.tick()))
    got = {f.flow_id: f.allocated_mbps for f in emu.flows}
    result = {
        "nodes": n_regions * per_region,
        "flows": n_flows,
        "ticks": n_ticks,
        # A swap is a remove and an add: 32 emulator calls per tick.
        "mutations_per_tick": sum(CHURN_MIX) + CHURN_MIX[0],
        "fast_ticks_per_s": n_ticks / fast_s,
        "solver_stats": emu.solver_stats(),
    }
    if baseline:
        emu, churn = build()
        queues = {
            key: LinkQueue(buffer_mbit=float(buffer))
            for key, buffer in zip(emu._link_keys, emu._queue_arrays.buffer_mbit)
        }
        ref_s = time_tick_loop(
            emu, n_ticks, churned(lambda e: reference_tick(e, queues))
        )
        expected = {f.flow_id: f.allocated_mbps for f in emu.flows}
        result["reference_ticks_per_s"] = n_ticks / ref_s
        result["tick_speedup"] = ref_s / fast_s
    else:
        expected = oracle_allocation(emu)
    assert got == expected, "churned fast path diverged from reference"
    return result


def record_churn_case(case: tuple, *, baseline: bool) -> dict:
    """Run one churn case, persist it and refresh the churn table."""
    n_regions, per_region, n_flows, n_ticks = case
    churned = run_churn_case(
        n_regions, per_region, n_flows, n_ticks, baseline=baseline
    )
    persist({case_name(n_regions * per_region, n_flows) + CHURN_SUFFIX: churned})
    report_churn()
    assert churned["solver_stats"]["full_solves"] == 1
    return churned


def report_churn() -> None:
    """The churned-tick table, from every churn case on record (the
    smoke leg and the slow city leg each refresh their own row)."""
    cases = json.loads(BENCH_PATH.read_text())["cases"]
    save_table(
        "perf_emulator_churn",
        [
            "nodes",
            "flows",
            "mutations_per_tick",
            "fast_ticks_per_s",
            "ref_ticks_per_s",
            "tick_speedup",
            "partial_solves",
            "full_solves",
        ],
        [
            [
                row["nodes"],
                row["flows"],
                row["mutations_per_tick"],
                fmt(row["fast_ticks_per_s"], 1),
                fmt(row.get("reference_ticks_per_s", 0.0), 1),
                fmt(row.get("tick_speedup", 0.0), 2),
                row["solver_stats"]["partial_solves"],
                row["solver_stats"]["full_solves"],
            ]
            for name, row in cases.items()
            if name.endswith(CHURN_SUFFIX)
        ],
        note="regional meshes, coarse desynced traces; every tick is "
        "preceded by 10 swaps, 10 retunes and 2 reroutes (the ledger's "
        "flow_churn mix), timed with it; final allocation equal to the "
        "frozen reference tick path replaying the same mutations "
        "(n120) or to the decomposed reference oracle (n1000) by "
        "assertion; 0.0 = no baseline loop at that scale",
    )


def persist(results: dict[str, dict]) -> None:
    """Merge the measured cases into BENCH_emulator.json (smoke runs
    refresh their sizes without dropping the full sweep's entries)."""
    payload = {"schema": 1, "unit_note": "ticks_per_s higher is better", "cases": {}}
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            payload["cases"] = previous.get("cases", {})
        except (json.JSONDecodeError, OSError):
            pass
    payload["cases"].update(results)
    payload["cases"] = dict(sorted(payload["cases"].items()))
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def case_name(nodes: int, flows: int) -> str:
    return f"n{nodes:03d}_f{flows:03d}"


def run_suite(cases) -> dict[str, dict]:
    results = {}
    for n_nodes, n_flows, n_ticks in cases:
        results[case_name(n_nodes, n_flows)] = run_case(
            n_nodes, n_flows, n_ticks
        )
    return results


def run_large_suite(cases) -> dict[str, dict]:
    results = {}
    for n_regions, per_region, n_flows, n_ticks in cases:
        results[case_name(n_regions * per_region, n_flows)] = run_large_case(
            n_regions, per_region, n_flows, n_ticks
        )
    return results


def report(results: dict[str, dict], name: str) -> None:
    save_table(
        name,
        [
            "nodes",
            "flows",
            "fast_ticks_per_s",
            "ref_ticks_per_s",
            "tick_speedup",
            "solve_ref_ms",
            "solve_indexed_ms",
            "solve_batched_ms",
            "solve_incr_ms",
        ],
        [
            [
                row["nodes"],
                row["flows"],
                fmt(row["fast_ticks_per_s"], 1),
                fmt(row.get("reference_ticks_per_s", 0.0), 1),
                fmt(row.get("tick_speedup", 0.0), 2),
                fmt(row["solve_ms"]["reference"], 3),
                fmt(row["solve_ms"]["indexed"], 3),
                fmt(row["solve_ms"]["batched"], 3),
                fmt(row["solve_ms"]["incremental"], 3),
            ]
            for row in results.values()
        ],
        note="traced random meshes; kernel times on the whole "
        "instance; both tick loops engine-driven and bit-identical by "
        "assertion; BENCH_emulator.json tracks the series",
    )


def report_large(results: dict[str, dict], name: str) -> None:
    save_table(
        name,
        [
            "nodes",
            "flows",
            "fast_ticks_per_s",
            "components",
            "partial_solves",
            "full_solves",
            "solve_full_ms",
            "solve_incr_ms",
        ],
        [
            [
                row["nodes"],
                row["flows"],
                fmt(row["fast_ticks_per_s"], 1),
                row["components"],
                row["solver_stats"]["partial_solves"],
                row["solver_stats"]["full_solves"],
                fmt(row["solve_ms"]["full"], 3),
                fmt(row["solve_ms"]["incremental"], 3),
            ]
            for row in results.values()
        ],
        note="regional meshes (intra-region flows, coarse desynced "
        "traces); final allocation equal to the decomposed reference "
        "oracle by assertion",
    )


@pytest.mark.benchmark(group="perf_emulator")
def test_perf_emulator_smoke(benchmark):
    """CI fast path: small + mid sizes, sanity-checks the fast path wins."""
    results = run_once(benchmark, lambda: run_suite(SMOKE_CASES))
    persist(results)
    report(results, "perf_emulator_smoke")
    report_social_shapes(time_social_shapes(), "perf_emulator_social_shapes")
    churned = record_churn_case(CHURN_SMOKE_CASE, baseline=True)
    assert churned["tick_speedup"] > 1.0
    for row in results.values():
        assert row["fast_ticks_per_s"] > 0
        # The fast path must never lose to the frozen reference by more
        # than timer noise, even at trivial sizes.
        assert row["tick_speedup"] > 0.8


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_emulator")
def test_perf_emulator_full_sweep(benchmark):
    """The tracked sweep: >=4 mesh sizes; the large-instance tick loop
    must clear the SoA acceptance bar (2x the pre-refactor 160 ticks/s)
    and hold a wide margin over the frozen reference path."""
    results = run_once(benchmark, lambda: run_suite(FULL_CASES))
    persist(results)
    report(results, "perf_emulator")
    largest = results[max(results)]
    assert largest["nodes"] == 60 and largest["flows"] == 500
    assert largest["tick_speedup"] >= 3.0, (
        f"large-instance speedup {largest['tick_speedup']:.2f}x < 3x"
    )
    assert largest["fast_ticks_per_s"] >= 320.0, (
        f"n060_f500 at {largest['fast_ticks_per_s']:.0f} ticks/s "
        "< 320 (2x the pre-SoA 160)"
    )


@pytest.mark.slow
@pytest.mark.benchmark(group="perf_emulator")
def test_perf_emulator_city_scale(benchmark):
    """City-scale: 250 and 1000 nodes at interactive speed, allocations
    exactly equal to the decomposed reference oracle."""
    results = run_once(benchmark, lambda: run_large_suite(LARGE_CASES))
    persist(results)
    report_large(results, "perf_emulator_city")
    assert results["n250_f2500"]["fast_ticks_per_s"] >= 10.0
    assert results["n1000_f10000"]["fast_ticks_per_s"] >= 10.0
    churned = record_churn_case(CHURN_CITY_CASE, baseline=False)
    assert churned["fast_ticks_per_s"] >= 10.0
