"""The small-instance plan kernel: exact, compiled once, never pickled.

Below the ``_BATCH_MIN_FLOWS`` cutover every component is water-filled
by :class:`repro.net.fairness._Plan` — the component compiled once to
local integers, then replayed against fresh capacities.  The paper's
5-node loop lives here (components of 1-2 links x 1-10 flows, refilled
every tick), so this file generates exactly those shapes and holds the
kernel to the frozen reference with ``==``:

* equal demands, demands within epsilon of each other, a link listed
  twice on a path, zero / sub-epsilon / infinite capacities, and a
  saturated link pinning a flow in the *middle* of the demand order —
  the shape on which an ordered kernel that forgets to step over
  retired flows before reading the smallest slack goes wrong;
* a plan retained across capacity changes gives what a throw-away plan
  gives;
* a plan is compiled once per component, recompiled only for the
  components a flow change dissolves, and never checkpointed;
* a retained plan's capacity-free certificate accepts exactly the
  capacities above its bounds, where the fill it replaces returns the
  free rates bit for bit — and on the social loop it replaces most
  fills.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.social import SocialNetworkApp
from repro.experiments.common import build_env, deploy_app, run_timeline
from repro.net import fairness
from repro.net.fairness import (
    _EPSILON,
    FlowDemand,
    IncrementalMaxMin,
    _fill_indexed,
    _Plan,
)
from tests.oracles import forced_kernel, reference_allocation
from tests.unit.test_fairness_incremental import PerturbationHarness

plan_kernel = forced_kernel(_fill_indexed)

LINKS = [("a", "b"), ("b", "c"), ("c", "d")]

# -- (a) generated component shapes -----------------------------------------

#: Capacities the 5-node mesh really sees (a trace sample), plus every
#: degenerate one: dead, below epsilon, a hair above it, unlimited.
capacity = st.one_of(
    st.floats(min_value=0.5, max_value=100.0),
    st.sampled_from([0.0, 1e-12, 1.5 * _EPSILON, 3 * _EPSILON, float("inf")]),
)

#: A base demand and a nudge of at most a few epsilon, so flows tie
#: exactly, tie within the satisfaction threshold, or differ outright.
demand = st.builds(
    lambda base, ulps: base + ulps * (_EPSILON / 4),
    st.sampled_from([0.3, 2.0, 7.5, 40.0]) | st.floats(0.05, 60.0),
    st.integers(min_value=-6, max_value=6),
)


@st.composite
def component_shapes(draw):
    n_links = draw(st.integers(1, 3))
    links = LINKS[:n_links]
    flows = []
    for i in range(draw(st.integers(1, 12))):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=n_links, unique=True)
        )
        if draw(st.booleans()) and draw(st.booleans()):
            path.append(path[0])  # the same link twice on one path
        flows.append(FlowDemand(f"f{i}", tuple(path), draw(demand)))
    caps = [draw(st.lists(capacity, min_size=n_links, max_size=n_links)) for _ in range(3)]
    return flows, links, caps


@settings(max_examples=300, deadline=None)
@given(component_shapes())
def test_plan_kernel_equals_reference_on_generated_shapes(shape):
    """Throw-away plan == the reference; a plan retained by the
    incremental engine across three capacity vectors == both."""
    flows, links, capacity_vectors = shape
    table = {flow.flow_id: flow for flow in flows}
    link_index = {key: i for i, key in enumerate(links)}
    engine = IncrementalMaxMin()
    for caps in capacity_vectors:
        capacities = dict(zip(links, caps))
        expected = reference_allocation(flows, capacities)
        assert plan_kernel(flows, capacities) == expected
        rates, _ = engine.solve(table, link_index, np.array(caps))
        assert rates == expected
    assert engine.full_solves == 1


def test_pinned_flow_at_the_head_of_the_demand_order():
    """The trap, by hand.  ``low`` has the smallest demand but is
    pinned at rate 0.1 by its dead-end link before it is satisfied, so
    it retires while still first in demand order.  The next round's
    smallest slack is ``mid``'s: one increment, ``0.1 + (0.9 - 0.1)``,
    which is ``0.9``.  Reading the slack from the retired ``low``
    instead climbs there in two steps, ``0.1 + (0.3 - 0.1)`` then
    ``+ (0.9 - 0.30000000000000004)`` — ``0.9000000000000001``."""
    flows = [
        FlowDemand("low", (("x", "y"), ("a", "b")), 0.3),
        FlowDemand("mid", (("a", "b"),), 0.9),
        FlowDemand("high", (("a", "b"),), 10.0),
    ]
    capacities = {("x", "y"): 0.1, ("a", "b"): 100.0}
    expected = {"low": 0.1, "mid": 0.9, "high": 10.0}
    assert reference_allocation(flows, capacities) == expected
    assert plan_kernel(flows, capacities) == expected


def test_pinned_mid_order_flow_seed_1026():
    """The instance (``test_fairness_equivalence`` small class, seed
    1026) on which stepping over retired flows only in the retire loop
    is wrong by one ulp.  Round one satisfies ``f3``; round two
    saturates ``n1->n2`` and pins its five flows — the next four in
    demand order among them — so ``head`` is left on a retired flow;
    ``f0`` then fills alone, and its one increment must be taken from
    its own slack."""
    n = [(f"n{i}", f"n{i + 1}") for i in range(6)]
    flows = [
        FlowDemand("f0", (n[2],), 15.840703947783398),
        FlowDemand("f1", (n[0], n[1]), 83.14574290417804),
        FlowDemand("f2", (n[0], n[1], n[2], n[3]), 9.861198618769121),
        FlowDemand("f3", (n[4],), 0.459363573060971),
        FlowDemand("f4", (n[0], n[1], n[2], n[3], n[4]), 3.8613770882368486),
        FlowDemand("f6", (n[1], n[2], n[3], n[4], n[5]), 11.870728701165218),
        FlowDemand("f7", (n[1], n[2], n[3], n[4], n[5]), 3.7648855423532113),
    ]
    capacities = {
        n[0]: 59.91660919216477,
        n[1]: 4.5200456279180115,
        n[2]: 49.63547929284179,
        n[3]: 18.096778142156317,
        n[4]: 41.96559474161985,
        n[5]: 44.37811838724262,
    }
    expected = reference_allocation(flows, capacities)
    pinned = ("f1", "f2", "f4", "f6", "f7")
    assert len({expected[fid] for fid in pinned}) == 1  # one shared rate
    assert expected["f0"] == 15.840703947783398
    assert plan_kernel(flows, capacities) == expected


def test_plan_counts_a_repeated_link_twice():
    plan = _Plan(
        {
            "twice": FlowDemand("twice", (("a", "b"), ("b", "a"), ("a", "b")), 50.0),
            "once": FlowDemand("once", (("a", "b"),), 50.0),
        }
    )
    assert plan.links == [("a", "b"), ("b", "a")]
    assert plan.counts0 == [3, 1]
    assert plan.flow_links == [[0, 1, 0], [0]]
    assert plan.fill([30.0, 30.0]) == [10.0, 10.0]


# -- (b) compiled once per component ----------------------------------------


class CompileCounter:
    """Counts plan compilations and component creations."""

    def __init__(self, monkeypatch) -> None:
        self.plans = self.components = 0
        self._wrap(monkeypatch, fairness._Plan, "plans")
        self._wrap(monkeypatch, fairness._Component, "components")

    def _wrap(self, monkeypatch, cls, counter: str) -> None:
        init = cls.__init__

        def counted(instance, *args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            init(instance, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)


def _social_env(ticks: float):
    env = build_env(seed=7, trace_duration_s=300.0, buffer_mbit=400.0)
    handle = deploy_app(
        env, SocialNetworkApp(annotate_rps=50.0), "k3s", start_controller=False
    )
    run_timeline(env, ticks)
    return env, handle


def test_capacity_only_ticks_compile_each_component_once(monkeypatch):
    counter = CompileCounter(monkeypatch)
    env, _ = _social_env(10.0)
    engine = env.netem._incremental
    assert engine.component_count > 1
    assert counter.plans == counter.components > 0
    compiled, solves = counter.plans, engine.partial_solves
    env.engine.run_until(60.0)  # 50 more ticks: capacities move, flows do not
    assert engine.partial_solves >= solves + 45
    assert counter.plans == counter.components == compiled
    assert all(c.plan is not None for c in engine._components)


def _plans(engine) -> dict:
    return {id(c): c.plan for c in engine._components}


@pytest.mark.parametrize("edit", ["set_demand", "reroute_flow"])
def test_emulator_edit_recompiles_only_dissolved_components(monkeypatch, edit):
    env, _ = _social_env(10.0)
    netem, engine = env.netem, env.netem._incremental
    flow = max(netem.flows, key=lambda f: (len(f.links), f.flow_id))
    dissolved = engine._member_of[flow.flow_id]
    before = _plans(engine)
    counter = CompileCounter(monkeypatch)
    if edit == "set_demand":
        netem.set_demand(flow.flow_id, flow.demand_mbps * 0.5)
    else:
        netem.reroute_flow(flow.flow_id, flow.dst, flow.src)
    netem.recompute()
    after = _plans(engine)
    assert id(dissolved) not in after
    fresh = after.keys() - before.keys()
    assert counter.plans == counter.components == len(fresh) > 0
    for key in after.keys() & before.keys():
        assert after[key] is before[key]  # retained, not recompiled


def test_in_place_row_edit_recompiles_only_dissolved_components(monkeypatch):
    """``on_topology_change`` rewrites ``links`` on the row the engine
    holds and reports the id: the plan compiled from the old path must
    go with the component."""
    harness = PerturbationHarness(n_links=20, seed=9, max_hops=1)
    mover = harness.add_flow(path=harness.links[2:4], demand=10.0)
    harness.add_flow(path=(harness.links[3],), demand=10.0)
    harness.add_flow(path=(harness.links[9],), demand=10.0)
    harness.solve_and_verify()
    before = _plans(harness.engine)
    assert len(before) == 2 and all(before.values())
    counter = CompileCounter(monkeypatch)
    harness.flows[mover].links = (harness.links[15],)
    harness.engine.touch(mover)
    harness.solve()
    after = _plans(harness.engine)
    assert len(after) == 3
    assert counter.plans == counter.components == 2
    kept = after.keys() & before.keys()
    assert len(kept) == 1 and all(after[k] is before[k] for k in kept)
    # Capacity-only solves from here on compile nothing.
    harness.perturb_fraction(1.0)
    rates, _ = harness.solve()
    assert counter.plans == counter.components == 2
    assert rates == reference_allocation(
        list(harness.flows.values()),
        dict(zip(harness.links, harness.cap_values.tolist())),
    )


def test_untouched_solve_skips_the_restructure(monkeypatch):
    """A capacity-only solve does no structure work at all."""
    harness = PerturbationHarness(n_links=10, seed=7)
    for _ in range(8):
        harness.add_flow()
    harness.solve_and_verify()

    def refuse(*args, **kwargs):
        raise AssertionError("restructured with nothing touched")

    monkeypatch.setattr(IncrementalMaxMin, "_restructure", refuse)
    components = list(harness.engine._components)
    harness.perturb_fraction(1.0)
    harness.solve_and_verify()
    assert harness.engine._components == components
    assert harness.engine.partial_solves == 1


# -- (c) plans are derived state --------------------------------------------


def _rate_bits(netem) -> list:
    return [(f.flow_id, f.allocated_mbps.hex()) for f in netem.flows]


def test_checkpoint_carries_no_plan_and_resumes_byte_identically():
    env, handle = _social_env(30.0)
    netem = env.netem
    assert all(c.plan is not None for c in netem._incremental._components)
    payload = pickle.dumps((netem, handle.binding))
    assert b"_Plan" not in payload
    restored, _ = pickle.loads(payload)
    assert all(c.plan is None for c in restored._incremental._components)
    assert not any(c.cap_pos for c in restored._incremental._components)
    assert restored.solver_stats() == netem.solver_stats()
    for until in (31.0, 45.0, 90.0):
        netem.engine.run_until(until)
        restored.engine.run_until(until)
        assert _rate_bits(restored) == _rate_bits(netem)
        assert restored.solver_stats() == netem.solver_stats()
    assert all(c.plan is not None for c in restored._incremental._components)
    assert restored.solver_stats()["full_solves"] == 1


# -- (d) the capacity-free certificate ----------------------------------------

#: Where a link's capacity sits against its slot's bound, and whether
#: the certificate must accept it there.
PLACEMENTS = {
    "below": False,
    "at": False,
    "ulps above": True,
    "margin above": True,
    "inf": True,
}


def _place(bound: float, where: str, fraction: float, ulps: int) -> float:
    if where == "below":
        return bound * fraction
    if where == "at":
        return bound
    if where == "ulps above":
        for _ in range(ulps):
            bound = math.nextafter(bound, math.inf)
        return bound
    if where == "margin above":
        return bound + 1e-6 * (bound + 1.0)
    return math.inf


@st.composite
def placed_capacities(draw):
    """The components of a ``component_shapes`` draw, each compiled,
    with every link's capacity drawn below, at, a few ulps above, a
    margin above or at ``+inf`` of its bound."""
    flows, _, _ = draw(component_shapes())
    _, active = fairness._partition_flows(flows, dict.fromkeys(LINKS, 1.0))
    plans = [_Plan(component) for component in fairness.link_components(active)]
    placed = []
    for plan in plans:
        plan.certify([0.0] * len(plan.links))  # derives the bounds
        wheres = [draw(st.sampled_from(list(PLACEMENTS))) for _ in plan.links]
        caps = [
            _place(
                bound,
                where,
                draw(st.floats(0.0, 1.0, exclude_max=True)),
                draw(st.integers(1, 4)),
            )
            for bound, where in zip(plan.bound, wheres)
        ]
        placed.append((plan, caps, all(PLACEMENTS[w] for w in wheres)))
    return flows, placed


def _bits(values) -> list:
    return [value.hex() for value in values]


@settings(max_examples=300, deadline=None)
@given(placed_capacities())
def test_certificate_accepts_only_what_fills_to_the_free_rates(shape):
    """Whenever the certificate accepts, ``fill(caps)`` and the free
    rates are bit-equal and are the reference allocation; it accepts
    exactly the capacities strictly above every bound."""
    flows, placed = shape
    for plan, caps, certifiable in placed:
        assert plan.certify(caps) is certifiable
        filled = plan.fill(list(caps))
        members = [flow for flow in flows if flow.flow_id in plan.flow_ids]
        expected = reference_allocation(members, dict(zip(plan.links, caps)))
        assert dict(zip(plan.flow_ids, filled)) == expected
        if certifiable:
            assert _bits(filled) == _bits(plan.free)


def test_retained_plans_cross_their_bounds_both_ways():
    """A history whose capacities swing each component below, onto and
    above its bound, both ways, with a pickle round trip mid-way: exact
    at every step, and both sides of the certificate are exercised."""
    harness = PerturbationHarness(n_links=12, seed=5, max_hops=2)
    for _ in range(10):
        harness.add_flow(
            path=harness.random_path(), demand=float(harness.rng.uniform(1.0, 20.0))
        )
    harness.solve_and_verify()
    engine = harness.engine
    need = np.zeros(len(harness.links))
    for row in harness.flows.values():
        for key in row.links:
            need[harness.link_index[key]] += row.demand_mbps
    crossed = need > 0.0
    factors = np.array([0.5, 1.0, 1.001, 4.0, np.inf])
    certified = filled = 0
    for step in range(80):
        picks = harness.rng.integers(0, factors.size, size=need.size)
        harness.cap_values[crossed] = need[crossed] * factors[picks[crossed]]
        if step % 30 == 17:
            harness.checkpoint_round_trip()
            engine = harness.engine
        before = engine.components_resolved
        harness.solve_and_verify()
        resolved = engine.components_resolved - before
        filled += resolved
        certified += engine.component_count - resolved
    assert certified > 40 and filled > 40
    assert engine.full_solves == 1


def test_social_loop_fills_a_quarter_of_what_it_did(monkeypatch):
    """On the 5-node loop most components have room for all their
    demand, so most capacity-only ticks certify instead of filling.
    ``_Plan.fill`` calls over ticks 10-120 of this run: 880 before the
    certificate, 203 with it (a full ``socialnet_mesh`` rep: 19 220 →
    3 826)."""
    env, _ = _social_env(10.0)
    fills = [0]
    fill = _Plan.fill

    def counted(plan, remaining):
        fills[0] += 1
        return fill(plan, remaining)

    monkeypatch.setattr(_Plan, "fill", counted)
    env.engine.run_until(120.0)
    assert 0 < fills[0] <= 880 // 4
