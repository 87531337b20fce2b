"""Exactness of the incremental max-min engine under perturbation.

:class:`repro.net.fairness.IncrementalMaxMin` takes both of its inputs
as deltas.  Flow-set changes are reported per flow id (``touch``) and
re-component only the pool of flows the changes reach; capacity changes
re-fill every retained component below the ``_BATCH_MIN_FLOWS`` cutover
that its capacity-free certificate does not cover, and only the
components owning a moved link above it (one batched call with a
dirty-component mask).  Everything else keeps its cached rates.
The emulator leans on this every tick, and the golden figures are pinned
byte-for-byte — so "only re-solve the touched part" must produce
*exactly* (``==``, no tolerance) the allocation a from-scratch
reference-oracle solve computes, at every step of a long perturbation
history: add, remove, add+remove cancelled, demand to/from zero,
reroute (row replaced or mutated in place), duplicate links on a path,
bridging flows that merge and split components, loopbacks, capacity
deltas, link death and revival, several of these between two solves,
and a pickle round trip mid-history — on both sides of the cutover.
"""

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.net.fairness import (
    _BATCH_MIN_FLOWS,
    IncrementalMaxMin,
    _partition_flows,
    _slack_bound,
    link_components,
)
from repro.net.flows import FlowArrays
from tests.oracles import reference_allocation

#: How a harness hands the engine its flow table: not at all (the
#: engine converts the rows itself on every change), as a
#: ``FlowArrays`` kept current by ``update`` like the emulator's, or as
#: one rebuilt from scratch before every solve.
TABLES = (None, "delta", "rebuilt")


@dataclass
class Row:
    """A mutable flow row, like the emulator's ``Flow``: the engine
    holds it by reference, so in-place edits must be ``touch``-ed."""

    flow_id: str
    links: tuple
    demand_mbps: float
    tag: str = "app"


class PerturbationHarness:
    """A mutable allocation instance driving one incremental engine.

    Keeps the flow table and the link-capacity array, reports every
    flow change to the engine the way the emulator does, and checks
    every engine answer — rates, the ``changed`` list, and the retained
    component structure — against a from-scratch solve.
    """

    def __init__(self, n_links: int, seed: int, max_hops: int = 5, table=None):
        assert table in TABLES
        self.table_mode = table
        self.table = None
        #: Flow ids changed since ``table`` was current (delta mode).
        self.stale: dict = {}
        self.max_hops = max_hops
        self.rng = np.random.default_rng(seed)
        self.links = [(f"n{i}", f"n{i + 1}") for i in range(n_links)]
        self.link_index = {key: i for i, key in enumerate(self.links)}
        self.cap_values = self.rng.uniform(1.0, 100.0, size=n_links)
        self.flows: dict[str, Row] = {}
        self.next_fid = 0
        self.engine = IncrementalMaxMin()
        self.prev_rates: dict = {}

    # -- flow mutations (each reports itself to the engine) --------------

    def pick(self) -> str:
        fids = list(self.flows)
        return fids[int(self.rng.integers(0, len(fids)))]

    def random_path(self) -> tuple:
        n_links = len(self.links)
        start = int(self.rng.integers(0, n_links))
        hops = int(self.rng.integers(1, min(self.max_hops, n_links) + 1))
        path = [self.links[(start + h) % n_links] for h in range(hops)]
        if self.rng.random() < 0.15:
            # Duplicate link on the path: legal for the public API, and
            # it must double-count in the incremental engine too.
            path.append(path[0])
        return tuple(path)

    def add_flow(self, path=None, demand=None) -> str:
        if path is None:
            path = () if self.rng.random() < 0.08 else self.random_path()
        if demand is None:
            zero = self.rng.random() < 0.08
            demand = 0.0 if zero else float(self.rng.uniform(0.1, 80.0))
        fid = f"f{self.next_fid}"
        self.next_fid += 1
        self.flows[fid] = Row(fid, path, demand)
        self.touch(fid, path)
        return fid

    def touch(self, fid: str, links: tuple) -> None:
        """Report a change the way the emulator does: the id and the
        links the flow crossed or crosses to the engine, the id to the
        flow table's stale set."""
        self.engine.touch(fid, links)
        self.stale[fid] = None

    def remove_flow(self, fid=None) -> None:
        if not self.flows:
            return
        fid = self.pick() if fid is None else fid
        self.touch(fid, self.flows.pop(fid).links)

    def add_then_remove(self) -> None:
        """A flow that comes and goes between two solves cancels."""
        self.remove_flow(self.add_flow())

    def change_demand(self) -> None:
        if not self.flows:
            return
        fid = self.pick()
        self.set_demand(fid, float(self.rng.uniform(0.1, 80.0)))

    def set_demand(self, fid: str, demand: float) -> None:
        row = self.flows[fid]
        row.demand_mbps = demand
        self.touch(fid, row.links)

    def toggle_demand(self) -> None:
        """Demand to or from <= epsilon: leaves or joins the active set."""
        if not self.flows:
            return
        fid = self.pick()
        row = self.flows[fid]
        if row.demand_mbps > 1e-9:
            self.set_demand(fid, 0.0 if self.rng.random() < 0.5 else 1e-10)
        else:
            self.set_demand(fid, float(self.rng.uniform(0.1, 80.0)))

    def reroute(self) -> None:
        """New path, same id: the row is replaced (``reroute_flow``) or
        edited in place (``on_topology_change``)."""
        if not self.flows:
            return
        fid = self.pick()
        row = self.flows[fid]
        path = () if self.rng.random() < 0.1 else self.random_path()
        self.repath(fid, path, in_place=self.rng.random() >= 0.5)

    def repath(self, fid: str, path: tuple, in_place: bool) -> None:
        row = self.flows[fid]
        left = row.links
        if in_place:
            row.links = path
        else:
            self.flows[fid] = Row(fid, path, row.demand_mbps)
        self.touch(fid, left + path)

    # -- capacity mutations ---------------------------------------------

    def perturb_link(self) -> None:
        li = int(self.rng.integers(0, len(self.links)))
        self.cap_values[li] = float(
            self.cap_values[li] * self.rng.uniform(0.3, 1.7) + 1e-6
        )

    def perturb_fraction(self, fraction: float) -> None:
        """Move a random ``fraction`` of all link capacities at once."""
        hit = self.rng.random(len(self.links)) < fraction
        self.cap_values[hit] = (
            self.cap_values[hit] * self.rng.uniform(0.3, 1.7, size=hit.sum())
            + 1e-6
        )

    def kill_link(self) -> None:
        li = int(self.rng.integers(0, len(self.links)))
        self.cap_values[li] = 0.0

    def revive_link(self) -> None:
        dead = np.flatnonzero(self.cap_values == 0.0)
        if dead.size == 0:
            return
        li = int(dead[int(self.rng.integers(0, dead.size))])
        self.cap_values[li] = float(self.rng.uniform(1.0, 100.0))

    def mutate(self) -> None:
        roll = self.rng.random()
        if roll < 0.30:
            self.perturb_link()
        elif roll < 0.36:
            self.kill_link()
        elif roll < 0.41:
            self.revive_link()
        elif roll < 0.57:
            self.add_flow()
        elif roll < 0.70:
            self.remove_flow()
        elif roll < 0.76:
            self.add_then_remove()
        elif roll < 0.84:
            self.change_demand()
        elif roll < 0.91:
            self.toggle_demand()
        else:
            self.reroute()

    def step(self) -> None:
        """One to three mutations between two solves, so flow-set and
        capacity changes interleave."""
        for _ in range(int(self.rng.integers(1, 4))):
            self.mutate()

    def checkpoint_round_trip(self) -> None:
        """Pickle the flow table and the engine together, as a snapshot
        of the emulator does, so rows stay shared between the two."""
        self.flows, self.engine = pickle.loads(
            pickle.dumps((self.flows, self.engine))
        )
        self.prev_rates = dict(self.engine._rates)
        # Like the emulator's, the flow table is not part of a snapshot.
        self.table, self.stale = None, {}

    # -- the check ------------------------------------------------------

    def current_table(self):
        if self.table_mode is None:
            return None
        if self.table is None or self.table_mode == "rebuilt":
            self.table = FlowArrays(self.flows, self.link_index)
        else:
            self.table.update(self.flows, self.link_index, self.stale)
        self.stale = {}
        return self.table

    def solve(self):
        return self.engine.solve(
            self.flows, self.link_index, self.cap_values, self.current_table()
        )

    def solve_and_verify(self) -> list:
        rates, changed = self.solve()
        flow_list = list(self.flows.values())
        capacities = dict(zip(self.links, self.cap_values.tolist()))
        expected = reference_allocation(flow_list, capacities)
        assert rates == expected, "incremental diverged from scratch solve"
        assert len(changed) == len(set(changed))
        # Every flow outside the re-solved components kept not just its
        # rate but the very same cached float object.
        for fid in rates.keys() - set(changed):
            assert rates[fid] is self.prev_rates[fid], fid
        self.prev_rates = dict(rates)
        self.verify_structure()
        return changed

    def verify_structure(self) -> None:
        """The retained components are the from-scratch components."""
        engine = self.engine
        _, active = _partition_flows(list(self.flows.values()), self.link_index)
        want = {frozenset(c) for c in link_components(active)}
        assert engine.active_flows == len(active)
        assert engine.component_count == len(want)
        if engine.batched:
            self.verify_labels(want)
            return
        assert {frozenset(c.flows) for c in engine._components} == want
        assert len(engine._components) == len(want)
        for component in engine._components:
            for fid, row in component.flows.items():
                assert row is self.flows[fid]
                assert engine._member_of[fid] is component
            assert set(component.links) == {
                key for row in component.flows.values() for key in row.links
            }
            for key in component.links:
                assert engine._link_owner[key] is component
        assert engine._member_of.keys() == active.keys()
        assert len(engine._link_owner) == sum(
            len(c.links) for c in engine._components
        )

    def verify_labels(self, want: set) -> None:
        """Label form: the rows sharing a label are a from-scratch
        component, named by the smallest id among exactly the links its
        flows cross; no dict structure is kept beside the columns."""
        engine = self.engine
        assert not engine._components
        assert not engine._member_of and not engine._link_owner
        flow_ids = engine._table.flow_ids
        members: dict = {}
        for row, label in zip(engine._rows.tolist(), engine._labels.tolist()):
            members.setdefault(label, set()).add(flow_ids[row])
        assert {frozenset(fids) for fids in members.values()} == want
        owned: dict = {}
        for link, label in enumerate(engine._link_comp.tolist()):
            if label >= 0:
                owned.setdefault(label, set()).add(self.links[link])
        assert owned.keys() == members.keys()
        for label, fids in members.items():
            crossed = {key for fid in fids for key in self.flows[fid].links}
            assert owned[label] == crossed
            assert label == min(self.link_index[key] for key in crossed)

    def active_count(self) -> int:
        return self.engine.active_flows


def small_harness(seed: int) -> PerturbationHarness:
    harness = PerturbationHarness(n_links=30, seed=seed)
    for _ in range(25):
        harness.add_flow()
    harness.solve_and_verify()
    return harness


def city_harness(seed: int, table=None) -> PerturbationHarness:
    """Above the cutover with dozens of components: 1-2 hop flows over
    far more links than they can join up."""
    harness = PerturbationHarness(n_links=700, seed=seed, max_hops=2, table=table)
    for _ in range(2 * _BATCH_MIN_FLOWS):
        harness.add_flow()
    harness.solve_and_verify()
    assert harness.active_count() >= _BATCH_MIN_FLOWS
    assert harness.engine.batched
    assert harness.engine.component_count > 30
    return harness


def dense_harness(seed: int, table=None) -> PerturbationHarness:
    """Above the cutover with a few *large* components, so one flow
    change pools more than ``_BATCH_MIN_FLOWS`` flows."""
    harness = PerturbationHarness(n_links=3, seed=seed, max_hops=1, table=table)
    for _ in range(5 * _BATCH_MIN_FLOWS):
        harness.add_flow()
    harness.solve_and_verify()
    assert harness.engine.component_count == 3
    assert (np.bincount(harness.engine._labels) >= _BATCH_MIN_FLOWS).all()
    return harness


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_equals_scratch_over_perturbation_history(seed):
    """>= 200 seeded steps of flow-set deltas, capacity deltas and link
    death/revival — exact equality at every step.  Below the cutover:
    the plan kernel over the touched (or, when capacities moved, all)
    components.  One from-scratch build, ever."""
    harness = small_harness(seed * 1000)
    for step in range(200):
        harness.step()
        if step % 40 == 17:
            harness.checkpoint_round_trip()
        harness.solve_and_verify()
    assert harness.active_count() < _BATCH_MIN_FLOWS
    assert harness.engine.full_solves == 1
    assert harness.engine.partial_solves > 100
    assert harness.engine.components_resolved >= harness.engine.partial_solves


def test_incremental_with_production_thresholds_still_exact():
    """Same property on a larger instance that is still below the
    cutover (the engine has no knobs: every test runs production
    thresholds)."""
    harness = PerturbationHarness(n_links=40, seed=99)
    for _ in range(60):
        harness.add_flow()
    harness.solve_and_verify()
    for _ in range(200):
        harness.step()
        harness.solve_and_verify()


def run_city_history(harness: PerturbationHarness) -> None:
    """200 steps above the cutover.  Single steps give sparse dirty
    sets; every tenth step moves 60 % of the links (majority-dirty) and
    every twenty-fifth all of them."""
    components = harness.engine.component_count
    sparse = majority = 0
    for step in range(200):
        if step % 25 == 24:
            harness.perturb_fraction(1.0)
        elif step % 10 == 9:
            harness.perturb_fraction(0.6)
        else:
            harness.step()
        if step % 40 == 17:
            harness.checkpoint_round_trip()
        before = (
            harness.engine.partial_solves,
            harness.engine.components_resolved,
        )
        harness.solve_and_verify()
        if harness.engine.partial_solves > before[0]:
            resolved = harness.engine.components_resolved - before[1]
            assert 0 < resolved <= harness.engine.component_count
            sparse += resolved * 10 < components
            majority += resolved * 2 > components
    assert harness.active_count() >= _BATCH_MIN_FLOWS
    assert harness.engine.batched
    assert harness.engine.full_solves == 1
    assert sparse > 20 and majority > 10


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_batched_incremental_equals_scratch_over_perturbation_history(seed):
    """The same 200-step history above the cutover, where the structure
    is label columns over an integer flow table and every fill is one
    layout gathered for the dirty components.  Driven without a table:
    the engine converts the rows itself whenever they change."""
    run_city_history(city_harness(seed * 1000))


@pytest.mark.parametrize("table", ["delta", "rebuilt"])
@pytest.mark.parametrize("seed", [4, 5])
def test_table_path_equals_scratch_over_perturbation_history(seed, table):
    """...and handed a ``FlowArrays`` the way the emulator hands its
    own: kept current by ``update``, or rebuilt before every solve."""
    run_city_history(city_harness(seed * 1000, table=table))


@pytest.mark.parametrize("seed", [7, 8])
def test_large_pools_above_the_cutover_stay_exact(seed):
    """A few big components: one flow change re-groups hundreds of
    flows."""
    harness = dense_harness(seed * 1000)
    for step in range(60):
        harness.step()
        if step == 30:
            harness.checkpoint_round_trip()
        harness.solve_and_verify()
    assert harness.engine.full_solves == 1


@pytest.mark.parametrize("table", ["delta", "rebuilt"])
def test_large_pools_on_the_table_path_stay_exact(table):
    harness = dense_harness(7000, table=table)
    for step in range(60):
        harness.step()
        if step == 30:
            harness.checkpoint_round_trip()
        harness.solve_and_verify()
    assert harness.engine.full_solves == 1


def test_batched_partial_solve_reports_exactly_the_dirty_components():
    check_partial_solve_reports_the_dirty_components(city_harness(77))


@pytest.mark.parametrize("table", ["delta", "rebuilt"])
def test_table_path_partial_solve_reports_exactly_the_dirty_components(table):
    check_partial_solve_reports_the_dirty_components(city_harness(77, table=table))


def link_headroom(harness: PerturbationHarness) -> np.ndarray:
    """Capacity minus load (the rates crossing a link, with
    multiplicity) of every link an active flow crosses; NaN elsewhere."""
    load = np.zeros(len(harness.links))
    for fid, row in harness.flows.items():
        for key in row.links:
            load[harness.link_index[key]] += harness.engine._rates[fid]
    owned = harness.engine._link_comp >= 0
    return np.where(owned, harness.cap_values - load, np.nan)


def check_partial_solve_reports_the_dirty_components(harness) -> None:
    """A capacity move re-fills exactly the components owning a moved
    link that is not slack: a binding link's one component, then none
    for a slack link's — and none for a link no active flow crosses."""
    engine = harness.engine
    link_comp = engine._link_comp
    uncrossed = int(np.flatnonzero(link_comp < 0)[0])
    headroom = link_headroom(harness)
    binding = int(np.nanargmin(headroom))
    assert headroom[binding] <= 1e-9
    label = link_comp[binding]
    members = engine._rows[engine._labels == label]
    # A binding link and an uncrossed one move: +1 component.
    harness.cap_values[binding] *= 0.5
    harness.cap_values[uncrossed] += 1.0
    before, partial = engine.components_resolved, engine.partial_solves
    changed = harness.solve_and_verify()
    assert engine.components_resolved == before + 1
    assert engine.partial_solves == partial + 1
    assert changed == [engine._table.flow_ids[row] for row in members]
    # A slack link and an uncrossed one move: +0, nothing recomputed.
    headroom = link_headroom(harness)
    slack = int(np.nanargmax(headroom))
    assert headroom[slack] > 1.0
    harness.cap_values[slack] += 1.0
    harness.cap_values[uncrossed] += 1.0
    assert harness.solve_and_verify() == []
    assert engine.components_resolved == before + 1
    assert engine.partial_solves == partial + 1


def test_checkpoint_drops_compiled_arrays_and_resumes_exactly():
    """The label columns are derived state: not pickled, re-derived
    from the flow table on the first solve after restore — without
    filling anything, counting a full solve or touching the solved-caps
    snapshot."""
    harness = city_harness(55, table="delta")
    engine = harness.engine
    assert engine._link_comp is not None and engine._table is not None
    flows, restored = pickle.loads(pickle.dumps((harness.flows, engine)))
    assert restored.batched
    assert restored._link_comp is None and restored._table is None
    assert restored._rows.size == restored._labels.size == 0
    assert len(pickle.dumps(engine)) == len(pickle.dumps(restored))
    assert restored.component_count == engine.component_count
    assert restored.active_flows == engine.active_flows
    counters = (restored.full_solves, restored.partial_solves)
    # Only a link nobody crosses moved: the first solve re-labels the
    # table and fills nothing.
    harness.cap_values[np.flatnonzero(engine._link_comp < 0)[0]] += 1.0
    table = FlowArrays(flows, harness.link_index)
    rates, changed = restored.solve(
        flows, harness.link_index, harness.cap_values, table
    )
    assert changed == [] and rates == engine._rates
    assert np.array_equal(restored._link_comp, engine._link_comp)
    assert counters == (restored.full_solves, restored.partial_solves)
    assert harness.solve()[1] == []
    harness.perturb_fraction(0.2)
    rates, changed = harness.solve()
    again, changed_again = restored.solve(
        flows, harness.link_index, harness.cap_values, table
    )
    assert again == rates and changed_again == changed
    assert restored.full_solves == counters[0]
    assert restored.partial_solves == counters[1] + 1


def history_with_pending_touches(harness: PerturbationHarness, pickle_at) -> list:
    """Forty steps; at ``pickle_at`` the harness is checkpointed *after*
    the step's mutations and before its solve.  Returns every step's
    rates, changed ids and counters."""
    seen = []
    for step in range(40):
        harness.step()
        harness.step()
        if step == pickle_at:
            assert harness.engine._touched
            harness.checkpoint_round_trip()
        changed = harness.solve_and_verify()
        engine = harness.engine
        seen.append(
            (
                dict(engine._rates),
                sorted(changed),
                engine.full_solves,
                engine.partial_solves,
                engine.components_resolved,
                engine.component_count,
            )
        )
    return seen


@pytest.mark.parametrize("table", TABLES)
def test_checkpoint_with_touches_pending_equals_the_uninterrupted_run(table):
    """A snapshot taken between the changes and the solve carries the
    pending dirty links, not the labels: the restored engine re-labels
    the table, fills exactly what the uninterrupted one fills, and
    counts the same."""
    straight = history_with_pending_touches(city_harness(91, table=table), None)
    restored = history_with_pending_touches(city_harness(91, table=table), 12)
    assert restored == straight


@pytest.mark.parametrize("table", TABLES)
def test_history_oscillating_across_the_cutover_stays_exact(table):
    """The active count crosses ``_BATCH_MIN_FLOWS`` in both directions,
    repeatedly, with flow and capacity changes pending at each
    crossing: the structure changes form, the rates stay exact, and a
    crossing is never a full solve."""
    harness = PerturbationHarness(n_links=400, seed=17, max_hops=2, table=table)
    for _ in range(_BATCH_MIN_FLOWS + 10):
        harness.add_flow(path=harness.random_path(), demand=5.0)
    harness.solve_and_verify()
    assert harness.engine.batched
    crossings = 0
    for swing in range(6):
        shrink = swing % 2 == 0
        for _ in range(25):
            if shrink:
                harness.remove_flow()
            else:
                harness.add_flow(path=harness.random_path(), demand=5.0)
            if harness.rng.random() < 0.5:
                harness.mutate()
            was = harness.engine.batched
            harness.solve_and_verify()
            crossings += harness.engine.batched != was
            assert harness.engine.batched == (
                harness.active_count() >= _BATCH_MIN_FLOWS
            )
        assert harness.engine.batched != shrink
        if swing == 3:
            harness.checkpoint_round_trip()
    assert crossings >= 6
    assert harness.engine.full_solves == 1


@pytest.mark.parametrize("table", TABLES)
def test_loads_follow_the_rates_across_the_cutover_and_a_checkpoint(table):
    """The label form's per-link loads are derived state.  Every step
    moves a third of the capacities, in whichever form the structure is
    in, so the rates — and with them the loads — change while the label
    form is away; the active count crosses the cutover both ways, and
    the engine is pickled mid-history.  Every answer stays bit-equal to
    a from-scratch solve: a load kept from before a conversion would
    certify a link that the rates since have made binding."""
    harness = PerturbationHarness(n_links=300, seed=29, max_hops=2, table=table)

    def arrive() -> None:
        harness.add_flow(
            path=harness.random_path(), demand=float(harness.rng.uniform(1.0, 60.0))
        )

    for _ in range(_BATCH_MIN_FLOWS + 15):
        arrive()
    harness.solve_and_verify()
    crossings = 0
    for swing in range(6):
        shrink = swing % 2 == 0
        for _ in range(20):
            if shrink:
                harness.remove_flow()
            else:
                arrive()
            harness.perturb_fraction(0.3)
            was = harness.engine.batched
            harness.solve_and_verify()
            crossings += harness.engine.batched != was
            # ...and again with capacities alone, so some moves land in
            # a form the structure has only just entered.
            harness.perturb_fraction(0.3)
            harness.solve_and_verify()
        if swing == 2:
            harness.checkpoint_round_trip()
    assert crossings == 6
    assert harness.engine.full_solves == 1


@pytest.mark.parametrize("table", TABLES)
def test_slack_margin_boundaries(table):
    """One flow of demand 10 alone on a link, beside 150 others: its
    rate, hence its link's load, is exactly 10.0.  A capacity move on
    that link skips the component iff the capacity before *and* after
    is strictly above ``_slack_bound(10.0)``: one ulp above is slack,
    the bound itself and one ulp below are not, ``+inf`` is, ``0.0`` and
    NaN are not.  Skipped or filled, the rates equal a scratch solve
    (but for NaN, which no capacity source produces and the reference
    loop cannot solve: there only the re-fill is checked)."""
    harness = PerturbationHarness(n_links=160, seed=3, table=table)
    harness.cap_values[:] = 100.0
    fid = harness.add_flow(path=(harness.links[0],), demand=10.0)
    for li in range(1, 151):
        harness.add_flow(path=(harness.links[li],), demand=10.0)
    harness.solve_and_verify()
    engine = harness.engine
    assert engine.batched
    bound = _slack_bound(10.0)
    above, below = np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf)
    nan, inf = float("nan"), float("inf")
    # (new capacity, components re-filled, the rate after)
    moves = [
        (above, 0, 10.0),  # 100 -> one ulp above: slack on both sides
        (bound, 1, 10.0),  # the bound itself is not slack
        (above, 1, 10.0),  # nor is a move *from* it
        (inf, 0, 10.0),
        (below, 1, 10.0),
        (inf, 1, 10.0),
        (0.0, 1, 0.0),  # a dead link, and then its load is 0.0
        (5.0, 1, 5.0),
        (nan, 1, None),  # NaN is never slack, going in...
        (100.0, 1, 10.0),  # ...or coming out
        (200.0, 0, 10.0),
    ]
    for cap, refilled, rate in moves:
        before = engine.components_resolved
        harness.cap_values[0] = cap
        changed = harness.solve()[1] if rate is None else harness.solve_and_verify()
        assert engine.components_resolved - before == refilled, cap
        assert changed == ([fid] if refilled else []), cap
        assert rate is None or engine._rates[fid] == rate, cap
    assert engine.full_solves == 1


def test_pending_changes_survive_a_checkpoint():
    """Touched-but-unsolved flow ids are state: a snapshot taken between
    the change and the next solve must still apply it."""
    harness = small_harness(314)
    harness.add_flow(path=harness.links[:2], demand=5.0)
    harness.remove_flow()
    harness.checkpoint_round_trip()
    changed = harness.solve_and_verify()
    assert changed
    assert harness.engine.full_solves == 1


def test_clean_capacities_return_cached_rates_without_resolving():
    harness = PerturbationHarness(n_links=10, seed=7)
    for _ in range(8):
        harness.add_flow()
    rates, changed = harness.solve()
    # The first call solves from scratch: every flow's rate is new.
    assert sorted(changed) == sorted(harness.flows)
    assert harness.engine.full_solves == 1
    before = (
        harness.engine.full_solves,
        harness.engine.partial_solves,
        harness.engine.components_resolved,
    )
    again, changed = harness.solve()
    assert changed == []
    assert again is rates  # cached object, no work done
    assert before == (
        harness.engine.full_solves,
        harness.engine.partial_solves,
        harness.engine.components_resolved,
    )


def test_invalidate_forces_full_resolve():
    harness = small_harness(11)
    full_before = harness.engine.full_solves
    harness.add_flow()  # pending changes are folded into the rebuild
    harness.engine.invalidate()
    changed = harness.solve_and_verify()
    assert sorted(changed) == sorted(harness.flows)
    assert harness.engine.full_solves == full_before + 1
    assert harness.engine._touched == {}


def test_shape_change_resolves_only_the_touched_components():
    """An arriving flow re-solves the components its path reaches and
    nothing else; so does its departure."""
    harness = PerturbationHarness(n_links=40, seed=23, max_hops=1)
    for li in (0, 0, 10, 20, 20, 30):
        harness.add_flow(path=(harness.links[li],), demand=30.0)
    harness.solve_and_verify()
    engine = harness.engine
    assert engine.component_count == 4
    before = (engine.partial_solves, engine.components_resolved)
    probe = harness.add_flow(path=(harness.links[10],), demand=3.0)
    changed = harness.solve_and_verify()
    assert sorted(changed) == sorted(["f2", probe])
    harness.remove_flow(probe)
    changed = harness.solve_and_verify()
    assert changed == ["f2"]
    assert engine.full_solves == 1
    assert (engine.partial_solves, engine.components_resolved) == (
        before[0] + 2,
        before[1] + 2,
    )


def test_cancelled_and_inactive_changes_fill_nothing():
    """Add+remove between two solves, and flows that never enter the
    active set (loopback, zero demand), water-fill no component."""
    harness = small_harness(41)
    engine = harness.engine
    before = (engine.partial_solves, engine.components_resolved)
    harness.add_then_remove()
    assert harness.solve_and_verify() == []
    loop = harness.add_flow(path=(), demand=7.0)
    idle = harness.add_flow(path=harness.links[:2], demand=0.0)
    assert sorted(harness.solve_and_verify()) == sorted([loop, idle])
    assert engine._rates[loop] == 7.0 and engine._rates[idle] == 0.0
    harness.remove_flow(loop)
    harness.remove_flow(idle)
    assert harness.solve_and_verify() == []
    assert loop not in engine._rates and idle not in engine._rates
    assert before == (engine.partial_solves, engine.components_resolved)


def test_bridging_flow_merges_components_and_its_removal_splits_them():
    harness = PerturbationHarness(n_links=20, seed=5, max_hops=1)
    left = harness.add_flow(path=(harness.links[3],), demand=50.0)
    right = harness.add_flow(path=(harness.links[4],), demand=50.0)
    far = harness.add_flow(path=(harness.links[12],), demand=50.0)
    harness.solve_and_verify()
    engine = harness.engine
    assert engine.component_count == 3
    bridge = harness.add_flow(path=harness.links[3:5], demand=50.0)
    changed = harness.solve_and_verify()
    assert engine.component_count == 2
    assert sorted(changed) == sorted([left, right, bridge])
    assert engine._member_of[left] is engine._member_of[right]
    # Still one component while the bridge merely idles...
    harness.flows[bridge].demand_mbps = 20.0
    harness.engine.touch(bridge)
    harness.solve_and_verify()
    assert engine.component_count == 2
    # ...and two again the moment it leaves the active set.
    harness.flows[bridge].demand_mbps = 0.0
    harness.engine.touch(bridge)
    changed = harness.solve_and_verify()
    assert engine.component_count == 3
    assert sorted(changed) == sorted([left, right, bridge])
    assert engine._member_of[left] is not engine._member_of[right]
    assert far not in changed
    assert engine.full_solves == 1


def test_rerouted_row_edited_in_place_releases_its_old_links():
    """``on_topology_change`` rewrites ``links`` on the row the engine
    already holds; the old component must still be found and its links
    released."""
    harness = PerturbationHarness(n_links=20, seed=9, max_hops=1)
    mover = harness.add_flow(path=harness.links[2:4], demand=10.0)
    stay = harness.add_flow(path=(harness.links[3],), demand=10.0)
    harness.solve_and_verify()
    assert harness.engine.component_count == 1
    harness.flows[mover].links = (harness.links[15],)
    harness.engine.touch(mover)
    changed = harness.solve_and_verify()
    assert sorted(changed) == sorted([mover, stay])
    assert harness.engine.component_count == 2
    assert harness.links[2] not in harness.engine._link_owner


def test_unknown_link_is_rejected_before_anything_changes():
    harness = small_harness(3)
    engine = harness.engine
    members = dict(engine._member_of)
    harness.add_flow(path=(("ghost", "link"),), demand=1.0)
    with pytest.raises(KeyError):
        harness.solve()
    assert engine._member_of == members


def test_small_instances_skip_dirty_tracking():
    """Below the cutover a capacity move visits every retained
    component — no dirty tracking — but re-fills only the constrained
    ones: a component whose every link has room for its flows' demands
    is answered with its plan's capacity-free rates, and ``changed``
    lists it only on the solve where that answer is new."""
    harness = PerturbationHarness(n_links=10, seed=31)
    busy = [harness.add_flow(path=(harness.links[0],), demand=50.0) for _ in range(2)]
    idle = harness.add_flow(path=(harness.links[5],), demand=5.0)
    harness.cap_values[0], harness.cap_values[5] = 10.0, 3.0
    harness.solve_and_verify()
    engine = harness.engine
    assert engine.component_count == 2

    def tick(cap_busy, cap_idle):
        before = engine.components_resolved
        harness.cap_values[0], harness.cap_values[5] = cap_busy, cap_idle
        changed = harness.solve_and_verify()
        return sorted(changed), engine.components_resolved - before

    # The idle flow's link widens past its demand: it becomes free.
    assert tick(12.0, 40.0) == (sorted(busy + [idle]), 1)
    assert engine._rates[idle] == 5.0
    # Both links move again; only the constrained component is filled
    # and only its flows are written back.
    assert tick(8.0, 30.0) == (sorted(busy), 1)
    assert tick(9.0, 5.0 + 1e-3) == (sorted(busy), 1)
    # Below its bound the idle component is filled like any other...
    assert tick(9.5, 4.0) == (sorted(busy + [idle]), 2)
    # ...and on the way back it is new again, once.
    assert tick(7.0, 60.0) == (sorted(busy + [idle]), 1)
    assert tick(7.5, 61.0) == (sorted(busy), 1)
    assert engine.full_solves == 1
    assert engine.partial_solves == 6
