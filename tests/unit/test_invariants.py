"""The max-min bottleneck certificate (``repro.invariants``): it holds
on every solver answer and fails on allocations that are infeasible,
over-granted or not max-min fair."""

import numpy as np
import pytest

from repro.invariants import max_min_certificate
from repro.net.fairness import FlowDemand, max_min_allocation

A, B, C = ("a", "b"), ("b", "c"), ("c", "d")


def instance(seed: int):
    rng = np.random.default_rng(seed)
    links = [(f"n{i}", f"n{i + 1}") for i in range(6)]
    capacities = {key: float(rng.uniform(0.0, 30.0)) for key in links}
    capacities[links[-1]] = float("inf")
    flows = []
    for i in range(int(rng.integers(1, 14))):
        path = [links[j] for j in rng.integers(0, len(links), size=rng.integers(0, 4))]
        demand = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 40.0))
        flows.append(FlowDemand(f"f{i}", tuple(path), demand))
    return flows, capacities


@pytest.mark.parametrize("seed", range(40))
def test_every_solver_answer_is_certified(seed):
    """Random instances with repeated links, loopbacks, zero demands and
    an infinite capacity."""
    flows, capacities = instance(seed)
    assert max_min_certificate(flows, capacities, max_min_allocation(flows, capacities)) == []


def test_two_flows_sharing_a_link():
    flows = [FlowDemand("x", (A,), 10.0), FlowDemand("y", (A, B), 10.0)]
    capacities = {A: 10.0, B: 3.0}
    rates = max_min_allocation(flows, capacities)
    assert rates == {"x": 7.0, "y": 3.0}
    assert max_min_certificate(flows, capacities, rates) == []
    # Shifting rate from the bottlenecked flow to the other is feasible
    # and saturates A, but x is no longer largest there: y is not
    # demand-limited and has no link where it is largest.
    (problem,) = max_min_certificate(flows, capacities, {"x": 8.0, "y": 2.0})
    assert "flow 'y'" in problem
    # Too much in all: A overloaded.
    assert any(
        "link ('a', 'b')" in p
        for p in max_min_certificate(flows, capacities, {"x": 7.5, "y": 3.0})
    )
    # Under-granted on an unsaturated link.
    (problem,) = max_min_certificate(flows, capacities, {"x": 6.0, "y": 3.0})
    assert "flow 'x'" in problem


def test_rates_outside_zero_and_demand_are_refused():
    flows = [FlowDemand("x", (C,), 2.0)]
    assert max_min_certificate(flows, {C: 10.0}, {"x": 2.0}) == []
    assert max_min_certificate(flows, {C: 10.0}, {"x": 2.5})
    assert max_min_certificate(flows, {C: 10.0}, {"x": -0.5})


def test_a_link_crossed_twice_carries_the_flow_twice():
    flows = [FlowDemand("x", (A, A), 10.0)]
    assert max_min_certificate(flows, {A: 10.0}, {"x": 5.0}) == []
    assert max_min_certificate(flows, {A: 10.0}, {"x": 6.0})


def test_a_nan_capacity_never_binds():
    flows = [FlowDemand("x", (A,), 4.0)]
    capacities = {A: float("nan")}
    assert max_min_allocation(flows, capacities) == {"x": 4.0}
    assert max_min_certificate(flows, capacities, {"x": 4.0}) == []
    assert max_min_certificate(flows, capacities, {"x": 1.0})
