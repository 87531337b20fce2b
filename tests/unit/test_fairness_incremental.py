"""Exactness of the incremental max-min engine under perturbation.

:class:`repro.net.fairness.IncrementalMaxMin` keeps the component
structure while the flow set is unchanged and, above the
``_BATCH_MIN_FLOWS`` cutover, re-runs water-filling only over components
whose link capacities moved (one batched call with a dirty-component
mask); everything else keeps cached rates.  The emulator leans on this
every tick, and the golden figures are pinned byte-for-byte — so "only
re-solve the dirty part" must produce *exactly* (``==``, no tolerance)
the allocation a from-scratch reference-oracle solve computes, at
every step of a long perturbation history: single-link capacity deltas,
link death and revival, flow add/remove, demand changes, duplicate
links on a path — below the cutover (dict kernel, every retained
component re-solved) and above it (sparse, majority and all-dirty
masks).
"""

import pickle

import numpy as np
import pytest

from repro.net.fairness import (
    _BATCH_MIN_FLOWS,
    FlowDemand,
    IncrementalMaxMin,
)
from tests.oracles import reference_allocation


class PerturbationHarness:
    """A mutable allocation instance driving one incremental engine.

    Keeps the flow set, the link-capacity array, and a shape revision
    that bumps exactly when the flow set changes — the same discipline
    the emulator follows — and checks every engine answer against a
    from-scratch solve.
    """

    def __init__(self, n_links: int, seed: int, max_hops: int = 5):
        self.max_hops = max_hops
        self.rng = np.random.default_rng(seed)
        self.links = [(f"n{i}", f"n{i + 1}") for i in range(n_links)]
        self.link_index = {key: i for i, key in enumerate(self.links)}
        self.cap_values = self.rng.uniform(1.0, 100.0, size=n_links)
        self.flows: dict[str, FlowDemand] = {}
        self.rev = 0
        self.next_fid = 0
        self.engine = IncrementalMaxMin()
        self.prev_rates: dict = {}

    # -- mutations ------------------------------------------------------

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

    def add_flow(self) -> None:
        roll = self.rng.random()
        if roll < 0.08:
            path = ()  # loopback
        else:
            path = self.random_path()
        if self.rng.random() < 0.08:
            demand = 0.0
        else:
            demand = float(self.rng.uniform(0.1, 80.0))
        fid = f"f{self.next_fid}"
        self.next_fid += 1
        self.flows[fid] = FlowDemand(fid, path, demand)
        self.rev += 1

    def remove_flow(self) -> None:
        if not self.flows:
            return
        fids = list(self.flows)
        fid = fids[int(self.rng.integers(0, len(fids)))]
        del self.flows[fid]
        self.rev += 1

    def change_demand(self) -> None:
        if not self.flows:
            return
        fids = list(self.flows)
        fid = fids[int(self.rng.integers(0, len(fids)))]
        old = self.flows[fid]
        self.flows[fid] = FlowDemand(
            fid, old.links, float(self.rng.uniform(0.1, 80.0))
        )
        self.rev += 1

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

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            self.perturb_link()
        elif roll < 0.55:
            self.kill_link()
        elif roll < 0.62:
            self.revive_link()
        elif roll < 0.80:
            self.add_flow()
        elif roll < 0.93:
            self.remove_flow()
        else:
            self.change_demand()

    # -- the check ------------------------------------------------------

    def solve_and_verify(self) -> None:
        flow_list = list(self.flows.values())
        rates, changed = self.engine.solve(
            flow_list,
            self.link_index,
            self.cap_values,
            ("rev", self.rev),
        )
        capacities = dict(zip(self.links, self.cap_values.tolist()))
        expected = reference_allocation(flow_list, capacities)
        assert rates == expected, (
            f"incremental diverged from scratch solve (rev={self.rev})"
        )
        if changed is not None:
            # Partial re-solve: same flow universe as last time, and
            # every flow outside the re-solved components kept its rate.
            assert rates.keys() == self.prev_rates.keys()
            untouched = rates.keys() - set(changed)
            for fid in untouched:
                assert rates[fid] == self.prev_rates[fid], fid
        self.prev_rates = dict(rates)


    def active_count(self) -> int:
        return sum(
            1 for f in self.flows.values() if f.links and f.demand_mbps > 0
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_incremental_equals_scratch_over_perturbation_history(seed):
    """>= 200 seeded steps of capacity deltas, link death/revival, flow
    churn, and demand changes — exact equality at every step.  Below
    the cutover: the dict kernel over the retained components."""
    harness = PerturbationHarness(n_links=30, seed=seed * 1000)
    for _ in range(25):
        harness.add_flow()
    harness.solve_and_verify()
    for _ in range(200):
        harness.step()
        harness.solve_and_verify()
    assert harness.active_count() < _BATCH_MIN_FLOWS
    # The history must have genuinely exercised both paths.
    assert harness.engine.full_solves > 5
    assert harness.engine.partial_solves > 5
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


def city_harness(seed: int) -> PerturbationHarness:
    """Above the cutover with dozens of components: 1-2 hop flows over
    far more links than they can join up."""
    harness = PerturbationHarness(n_links=700, seed=seed, max_hops=2)
    for _ in range(2 * _BATCH_MIN_FLOWS):
        harness.add_flow()
    harness.solve_and_verify()
    assert harness.active_count() >= _BATCH_MIN_FLOWS
    assert harness.engine.component_count > 30
    return harness


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_batched_incremental_equals_scratch_over_perturbation_history(seed):
    """The same 200-step history above the cutover, where partial
    solves go through the batched kernel with a dirty-component mask.
    Single-link steps give sparse masks; every tenth step moves 60 % of
    the links (majority-dirty) and every twenty-fifth all of them."""
    harness = city_harness(seed * 1000)
    components = harness.engine.component_count
    sparse = majority = 0
    for step in range(200):
        if step % 25 == 24:
            harness.perturb_fraction(1.0)
        elif step % 10 == 9:
            harness.perturb_fraction(0.6)
        else:
            harness.step()
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
    assert harness.engine.full_solves > 5
    assert sparse > 20 and majority > 10


def test_batched_partial_solve_reports_exactly_the_dirty_components():
    harness = city_harness(77)
    engine = harness.engine
    batch, cap_pos = engine._batch(harness.link_index)
    # Move one link of component 0 and one link no active flow crosses.
    crossed = np.zeros(len(harness.links), dtype=bool)
    crossed[cap_pos] = True
    harness.cap_values[cap_pos[0]] *= 0.5
    harness.cap_values[np.flatnonzero(~crossed)[0]] += 1.0
    before = engine.components_resolved
    rates, changed = engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert engine.components_resolved == before + 1
    assert changed == batch.flow_ids[: batch.flow_starts[1]]
    # Only an uncrossed link moved: nothing to re-solve.
    harness.cap_values[np.flatnonzero(~crossed)[0]] += 1.0
    _, changed = engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert changed == []
    assert engine.components_resolved == before + 1


def test_checkpoint_drops_compiled_arrays_and_resumes_exactly():
    """The batch arrays are derived state: not pickled, rebuilt from the
    retained components on the first batched solve after restore —
    without counting a full solve or touching the solved-caps snapshot."""
    harness = city_harness(55)
    engine = harness.engine
    assert engine._compiled is not None
    restored = pickle.loads(pickle.dumps(engine))
    assert restored._compiled is None
    assert len(pickle.dumps(engine)) == len(pickle.dumps(restored))
    solved_caps = restored._solved_caps.copy()
    counters = (restored.full_solves, restored.partial_solves)
    restored._batch(harness.link_index)
    assert np.array_equal(restored._solved_caps, solved_caps)
    assert counters == (restored.full_solves, restored.partial_solves)
    harness.perturb_fraction(0.2)
    args = (
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    rates, changed = engine.solve(*args)
    again, changed_again = restored.solve(*args)
    assert again == rates and changed_again == changed
    assert restored.full_solves == counters[0]
    assert restored.partial_solves == counters[1] + 1


def test_clean_capacities_return_cached_rates_without_resolving():
    harness = PerturbationHarness(n_links=10, seed=7)
    for _ in range(8):
        harness.add_flow()
    rates, changed = harness.engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert changed is None  # first call is a full solve
    before = (
        harness.engine.full_solves,
        harness.engine.partial_solves,
        harness.engine.components_resolved,
    )
    again, changed = harness.engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert changed == []
    assert again is rates  # cached object, no work done
    assert before == (
        harness.engine.full_solves,
        harness.engine.partial_solves,
        harness.engine.components_resolved,
    )


def test_invalidate_forces_full_resolve():
    harness = PerturbationHarness(n_links=10, seed=11)
    for _ in range(8):
        harness.add_flow()
    harness.solve_and_verify()
    full_before = harness.engine.full_solves
    harness.engine.invalidate()
    _, changed = harness.engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert changed is None
    assert harness.engine.full_solves == full_before + 1


def test_shape_change_triggers_full_resolve_and_new_structure():
    harness = PerturbationHarness(n_links=20, seed=23)
    for _ in range(12):
        harness.add_flow()
    harness.solve_and_verify()
    assert harness.engine.component_count > 0
    harness.add_flow()
    _, changed = harness.engine.solve(
        list(harness.flows.values()),
        harness.link_index,
        harness.cap_values,
        ("rev", harness.rev),
    )
    assert changed is None  # shape rev moved -> full solve


def test_small_instances_skip_dirty_tracking():
    """Below the cutover a capacity change re-solves every retained
    component through the dict kernel — no dirty tracking, and no
    structure rebuild either."""
    harness = PerturbationHarness(n_links=40, seed=31, max_hops=2)
    for _ in range(8):
        harness.add_flow()
    harness.solve_and_verify()
    components = harness.engine.component_count
    assert components > 1
    harness.perturb_link()
    harness.solve_and_verify()
    assert harness.engine.full_solves == 1
    assert harness.engine.partial_solves == 1
    assert harness.engine.components_resolved == components
