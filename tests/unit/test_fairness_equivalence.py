"""Bit-compatibility of the fast-path allocators against the oracle.

The indexed and batched kernels in ``repro.net.fairness`` must return
*exactly* the allocation the oracle computes — not merely close: the
emulator's golden figure benchmarks are pinned byte-for-byte, so any
reassociated float operation would surface as a golden diff.

The canonical semantics are *decomposed*: ``max_min_allocation`` splits
an instance into link-connected components and solves each one
independently, so the oracle for a general instance is
``tests.oracles.reference_allocation`` — the frozen reference kernel
run per component.  On a *single-component* instance the decomposed
solve is additionally bit-identical to the frozen *global*
``max_min_allocation_reference`` (asserted below); multi-component
instances may differ from the global loop at the ulp level because the
global loop interleaves rounds across independent components.

This suite replays hundreds of seeded random instances — including
loopback flows, zero demands, saturated links, and dead (zero-capacity)
links — through both kernels' whole-instance entry points and the
``max_min_allocation`` dispatch, and compares with ``==``, no tolerance.
The ``city`` size class and the multi-component tests below sit above
the ``_BATCH_MIN_FLOWS`` cutover with dozens of components, the shape
the batched kernel's per-component masking exists for.
"""

import numpy as np
import pytest

from repro.net import fairness
from repro.net.fairness import (
    _BATCH_MIN_FLOWS,
    _EPSILON,
    FlowDemand,
    _fill_batched,
    _fill_indexed,
    _partition_flows,
    link_components,
    max_min_allocation,
)
from tests.oracles import (
    forced_kernel,
    max_min_allocation_reference,
    reference_allocation,
)

#: The two kernels forced over the whole instance, and the dispatch.
KERNELS = {
    "indexed": forced_kernel(_fill_indexed),
    "batched": forced_kernel(_fill_batched),
    "auto": max_min_allocation,
}
REFERENCE_AND_KERNELS = {"reference": reference_allocation, **KERNELS}

#: (instances, links, flows, seed base) per size class; 270 instances
#: total.  ``city`` has far more links than a flow's 1-5 hops can join,
#: so its instances split into dozens of components above the cutover.
SIZE_CLASSES = [
    (120, 6, 8, 1000),
    (80, 40, 60, 2000),
    (40, 120, 300, 3000),
    (30, 900, 300, 4000),
]
SIZE_IDS = ["small", "medium", "large", "city"]


def random_instance(rng, n_links, n_flows):
    """A seeded random allocation instance with every edge case mixed in."""
    links = [(f"n{i}", f"n{i + 1}") for i in range(n_links)]
    capacities = {}
    for key in links:
        roll = rng.random()
        if roll < 0.08:
            capacities[key] = 0.0  # dead link (crashed endpoint)
        elif roll < 0.16:
            capacities[key] = float(rng.uniform(0.0, 0.5))  # nearly dead
        else:
            capacities[key] = float(rng.uniform(1.0, 100.0))
    flows = []
    for i in range(n_flows):
        roll = rng.random()
        if roll < 0.08:
            path = ()  # loopback: endpoints co-located
        else:
            start = int(rng.integers(0, n_links))
            hops = int(rng.integers(1, min(5, n_links) + 1))
            path = tuple(links[(start + h) % n_links] for h in range(hops))
            if rng.random() < 0.1:
                path += path[:1]  # the same link twice on one path
        if rng.random() < 0.08:
            demand = 0.0
        elif rng.random() < 0.25:
            demand = float(rng.uniform(50.0, 500.0))  # saturating
        else:
            demand = float(rng.uniform(0.1, 20.0))
        flows.append(FlowDemand(flow_id=f"f{i}", links=path, demand_mbps=demand))
    return flows, capacities


@pytest.mark.parametrize(
    "instances,n_links,n_flows,seed_base",
    SIZE_CLASSES,
    ids=SIZE_IDS,
)
def test_solvers_bit_identical_on_random_instances(
    instances, n_links, n_flows, seed_base
):
    for case in range(instances):
        rng = np.random.default_rng(seed_base + case)
        flows, capacities = random_instance(rng, n_links, n_flows)
        expected = reference_allocation(flows, capacities)
        for solver, solve in KERNELS.items():
            got = solve(flows, capacities)
            assert got == expected, (
                f"solver={solver} diverged on seed {seed_base + case}"
            )


@pytest.mark.parametrize(
    "instances,n_links,n_flows,seed_base",
    SIZE_CLASSES[:3],
    ids=SIZE_IDS[:3],
)
def test_single_component_instances_match_global_reference(
    instances, n_links, n_flows, seed_base
):
    """On one connected component, decomposition is a no-op: every
    kernel (and the decomposed dispatch itself) must equal the frozen
    *global* reference loop bit for bit."""
    checked = 0
    for case in range(instances):
        rng = np.random.default_rng(seed_base + case)
        flows, capacities = random_instance(rng, n_links, n_flows)
        _, active = _partition_flows(flows, capacities)
        if not active or len(link_components(active)) != 1:
            continue
        checked += 1
        expected = max_min_allocation_reference(flows, capacities)
        for solver, solve in REFERENCE_AND_KERNELS.items():
            got = solve(flows, capacities)
            assert got == expected, (
                f"solver={solver} diverged on seed {seed_base + case}"
            )
    assert checked > 0, "no single-component instances in this size class"


def test_all_solvers_handle_empty_input():
    for solve in REFERENCE_AND_KERNELS.values():
        assert solve([], {}) == {}


def test_all_solvers_grant_loopback_and_zero_demand():
    flows = [
        FlowDemand("loop", (), 7.5),
        FlowDemand("idle", (("a", "b"),), 0.0),
    ]
    capacities = {("a", "b"): 10.0}
    expected = {"loop": 7.5, "idle": 0.0}
    for solve in REFERENCE_AND_KERNELS.values():
        assert solve(flows, capacities) == expected


def test_all_solvers_reject_unknown_links():
    flows = [FlowDemand("f", (("a", "ghost"),), 1.0)]
    for solve in REFERENCE_AND_KERNELS.values():
        with pytest.raises(KeyError):
            solve(flows, {("a", "b"): 10.0})


def test_auto_uses_vectorized_on_large_instances():
    """The dispatcher's large-instance branch (the batched array kernel)
    must agree with the oracle on a shape that actually crosses the
    cutover."""
    rng = np.random.default_rng(77)
    flows, capacities = random_instance(rng, 100, 400)
    assert max_min_allocation(flows, capacities) == reference_allocation(
        flows, capacities
    )


def test_auto_never_picks_vectorized_on_small_perf_instances(monkeypatch):
    """The perf harness's smallest tracked case (``n005_f010``: 5 nodes,
    10 flows) ran ~4x *slower* through an array kernel — set-up dwarfs
    the solve.  Auto must keep instances of that size (and the paper's
    5-node mesh with a few dozen flows) on the plan kernel, whatever the
    paths look like."""

    def refuse(*args, **kwargs):
        raise AssertionError("array kernel picked for a small instance")

    monkeypatch.setattr(fairness._Layout, "__init__", refuse)
    rng = np.random.default_rng(505)
    for n_links, n_flows in ((5, 10), (10, 45), (20, _BATCH_MIN_FLOWS - 1)):
        for _ in range(20):
            flows, capacities = random_instance(rng, n_links, n_flows)
            max_min_allocation(flows, capacities)
    with pytest.raises(AssertionError):
        flows, capacities = random_instance(rng, 100, 400)
        max_min_allocation(flows, capacities)


def test_city_instances_are_multi_component_above_the_cutover():
    """The ``city`` class must actually exercise what it claims to."""
    rng = np.random.default_rng(4000)
    flows, capacities = random_instance(rng, 900, 300)
    _, active = _partition_flows(flows, capacities)
    assert len(active) >= _BATCH_MIN_FLOWS
    sizes = [len(c) for c in link_components(active)]
    assert len(sizes) > 20
    assert 1 in sizes  # single-flow components ride along


def chain_flows(n_flows, prefix="f", links_each=2, demand=1.0):
    """``n_flows`` flows, each alone on its own ``links_each`` links."""
    return [
        FlowDemand(
            flow_id=f"{prefix}{i}",
            links=tuple(
                (f"{prefix}{i}h{h}", f"{prefix}{i}h{h + 1}")
                for h in range(links_each)
            ),
            demand_mbps=demand,
        )
        for i in range(n_flows)
    ]


def capacities_for(flows, capacity=10.0):
    return {key: capacity for flow in flows for key in flow.links}


def test_auto_solver_threshold_boundary():
    """``auto`` switches kernel exactly at ``_BATCH_MIN_FLOWS`` active
    flows; one flow short and at the boundary, both kernels (and auto,
    whichever it picked) return the oracle's rates."""
    rng = np.random.default_rng(128)
    at = chain_flows(_BATCH_MIN_FLOWS // 2, "a", demand=30.0) + [
        FlowDemand(f"b{i}", (("x", "y"), (f"y{i % 7}", "z")), 3.0 + i)
        for i in range(_BATCH_MIN_FLOWS - _BATCH_MIN_FLOWS // 2)
    ]
    capacities = {
        key: float(rng.uniform(5.0, 60.0))
        for key in capacities_for(at)
    }
    # Inactive flows never count toward the cutover.
    idle = [FlowDemand("loop", (), 4.0), FlowDemand("zero", (("x", "y"),), 0.0)]
    for flows in (at[:-1] + idle, at + idle):
        expected = reference_allocation(flows, capacities)
        for solve in KERNELS.values():
            assert solve(flows, capacities) == expected
    below = max_min_allocation(at[:-1], capacities)
    above = max_min_allocation(at, capacities)
    # Dropping the last flow only touches its own component.
    last = at[-1]
    untouched = [f.flow_id for f in at[:-1] if not set(f.links) & set(last.links)]
    assert untouched
    assert all(below[fid] == above[fid] for fid in untouched)


def test_sub_epsilon_component_finishes_while_others_continue():
    """A component with less than epsilon of headroom per flow finishes
    in its first round (increment <= epsilon, link saturated); the
    batched kernel must stop just that component and keep filling the
    rest for many more rounds."""
    stuck = [
        FlowDemand("stuck0", (("s", "t"),), 5.0),
        FlowDemand("stuck1", (("s", "t"),), 5.0),
    ]
    others = chain_flows(_BATCH_MIN_FLOWS, "o", demand=4.0) + [
        FlowDemand(f"p{i}", (("p", "q"),), 1.0 + i) for i in range(6)
    ]
    flows = stuck[:1] + others + stuck[1:]
    capacities = capacities_for(others)
    capacities[("s", "t")] = 1.5 * _EPSILON
    capacities[("p", "q")] = 9.0
    expected = reference_allocation(flows, capacities)
    assert 0.0 < expected["stuck0"] < _EPSILON
    assert expected["o0"] == 4.0
    for solve in KERNELS.values():
        assert solve(flows, capacities) == expected


def test_dead_end_exit_freezes_only_its_component():
    """The ``delta <= epsilon`` and nothing retired exit is a guard no
    finite input reaches (the link or flow that bounds a round always
    saturates or is satisfied by it).  A NaN capacity does reach it in
    the batched kernel — the reference would spin forever — and must
    stop that one component without disturbing any other."""
    poisoned = [
        FlowDemand("nan0", (("s", "t"),), 5.0),
        FlowDemand("nan1", (("s", "t"), ("t", "u")), 5.0),
    ]
    others = chain_flows(_BATCH_MIN_FLOWS, "o", demand=4.0) + [
        FlowDemand(f"p{i}", (("p", "q"),), 1.0 + i) for i in range(6)
    ]
    capacities = capacities_for(others)
    capacities[("p", "q")] = 9.0
    expected = reference_allocation(others, capacities)
    capacities[("s", "t")] = float("nan")
    capacities[("t", "u")] = 3.0
    rates = KERNELS["batched"](
        poisoned[:1] + others + poisoned[1:], capacities
    )
    assert {fid: rates[fid] for fid in expected} == expected


def test_dead_links_pin_their_flows_to_zero():
    flows = [
        FlowDemand("dead", (("a", "b"),), 5.0),
        FlowDemand("live", (("b", "c"),), 5.0),
    ]
    capacities = {("a", "b"): 0.0, ("b", "c"): 10.0}
    for solve in REFERENCE_AND_KERNELS.values():
        assert solve(flows, capacities) == {"dead": 0.0, "live": 5.0}


def test_repeated_link_on_a_path_counts_twice_everywhere():
    """A path that crosses the same directed link twice (legal for the
    public API even if shortest paths never do it) must double-count in
    every solver, as the reference does."""
    flows = [
        FlowDemand("twice", (("a", "b"), ("b", "a"), ("a", "b")), 50.0),
        FlowDemand("once", (("a", "b"),), 50.0),
    ]
    capacities = {("a", "b"): 30.0, ("b", "a"): 30.0}
    expected = max_min_allocation_reference(flows, capacities)
    for solve in KERNELS.values():
        assert solve(flows, capacities) == expected
