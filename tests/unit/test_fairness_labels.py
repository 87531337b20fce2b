"""The array form of the component structure, piece by piece.

At or above ``_BATCH_MIN_FLOWS`` active flows the incremental engine
holds no component objects: it re-groups the released rows of an integer
flow table by merging link labels, and gathers the water-fill layout of
the dirty components from the table's COO columns.  Each piece is held
here to the Python loop it replaced:

* :func:`repro.net.fairness._merge_links` partitions generated pools
  exactly as ``_link_groups`` does — a link listed twice on a path,
  bridging flows, single-link flows — and names every component by its
  smallest link id, in a bounded number of rounds on the shape that
  defeats plain label passing (a shuffled chain);
* :class:`repro.net.fairness._Layout` fills to exactly the rates of the
  frozen reference loop run per component
  (``tests.oracles.reference_allocation``) on full and partial
  selections of a generated instance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fairness import (
    FlowDemand,
    _Incidence,
    _Layout,
    _link_groups,
    _merge_links,
    _partition_flows,
    link_components,
)
from tests.oracles import reference_allocation
from tests.unit.test_fairness_equivalence import random_instance

# -- re-grouping by link labels ------------------------------------------------


def merge(paths: list[list[int]], n_links: int):
    links = np.array([link for path in paths for link in path], dtype=np.intp)
    lens = np.array([len(path) for path in paths], dtype=np.intp)
    return _merge_links(links, lens, n_links)


def dict_partition(paths: list[list[int]]) -> set:
    """The same pool through the dict union-find: each component as
    (its flows, its links)."""
    pool = {
        i: FlowDemand(i, tuple((str(link), "") for link in path), 1.0)
        for i, path in enumerate(paths)
    }
    return {
        (frozenset(group.flows), frozenset(int(key[0]) for key in group.links))
        for group in _link_groups(pool)
    }


@st.composite
def pools(draw):
    n_links = draw(st.integers(1, 24))
    link = st.integers(0, n_links - 1)
    # Non-empty paths (a loopback never reaches a pool); links repeat.
    paths = draw(st.lists(st.lists(link, min_size=1, max_size=5), min_size=1, max_size=40))
    return paths, n_links


@settings(max_examples=500, deadline=None)
@given(pools())
def test_label_regroup_partitions_like_the_dict_union_find(pool):
    paths, n_links = pool
    label_of, rounds = merge(paths, n_links)
    groups: dict = {}
    for flow, path in enumerate(paths):
        labels = {int(label_of[link]) for link in path}
        assert len(labels) == 1  # one label along a whole path
        flows, links = groups.setdefault(labels.pop(), (set(), set()))
        flows.add(flow)
        links.update(path)
    assert {
        (frozenset(flows), frozenset(links)) for flows, links in groups.values()
    } == dict_partition(paths)
    for label, (_, links) in groups.items():
        assert label == min(links)  # named by its smallest link id
    crossed = {link for path in paths for link in path}
    for link in set(range(n_links)) - crossed:
        assert label_of[link] == link  # uncrossed links keep their own
    assert rounds <= 2 * n_links.bit_length() + 1


def test_a_bridging_flow_merges_and_a_repeated_link_is_harmless():
    label_of, _ = merge([[4, 5], [7, 7, 8], [9]], 12)
    assert label_of.tolist() == [0, 1, 2, 3, 4, 4, 6, 7, 7, 9, 10, 11]
    label_of, _ = merge([[4, 5], [7, 7, 8], [9], [8, 3, 5]], 12)
    assert label_of.tolist() == [0, 1, 2, 3, 3, 3, 6, 3, 3, 9, 10, 11]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_chain_merges_in_logarithmic_rounds(seed):
    """Flow *i* covers links ``perm[i]`` and ``perm[i + 1]``: one
    component of diameter 3 000 whose link ids are in random order.
    Passing the smallest label from link to link takes a round per hop
    (1 305 rounds when it was tried); hooking roots and flattening
    takes ``O(log n)`` — the bound the docstring derives."""
    n_flows = 3000
    perm = np.random.default_rng(seed).permutation(n_flows + 1)
    links = np.empty(2 * n_flows, dtype=np.intp)
    links[0::2], links[1::2] = perm[:-1], perm[1:]
    label_of, rounds = _merge_links(
        links, np.full(n_flows, 2, dtype=np.intp), n_flows + 1
    )
    assert not label_of.any()  # every link in component 0
    assert rounds <= 2 * (n_flows + 1).bit_length() + 1


def test_sorted_chain_and_star_take_a_round_or_two():
    n = 500
    chain = [[i, i + 1] for i in range(n)]
    assert merge(chain, n + 1)[1] == 1
    star = [[n, leaf] for leaf in range(n)]  # hub has the largest id
    label_of, rounds = merge(star, n + 1)
    assert not label_of.any() and rounds <= 2


# -- the gathered layout -------------------------------------------------------


def gathered_rates(flows, capacities, components) -> dict:
    """Fill ``components`` (some of the instance's) through a layout
    gathered from the whole instance's integer table."""
    link_index = {key: i for i, key in enumerate(capacities)}
    table = _Incidence(flows, link_index)
    row_of = {fid: row for row, fid in enumerate(table.flow_ids)}
    rows, labels = [], []
    for label, component in enumerate(components):
        rows += sorted(row_of[fid] for fid in component)
        labels += [label] * len(component)
    layout = _Layout(
        table.demand,
        table.ptr,
        table.entry_link,
        np.array(rows, dtype=np.intp),
        np.array(labels, dtype=np.intp),
        len(link_index),
    )
    cap = np.array([float(value) for value in capacities.values()])
    rates = layout.fill(cap)
    assert layout.n_components == len(components)
    return {table.flow_ids[row]: rate for row, rate in zip(rows, rates.tolist())}


@pytest.mark.parametrize(
    "n_links,n_flows,seed_base",
    [(40, 60, 2000), (120, 300, 3000), (900, 300, 4000)],
    ids=["medium", "large", "city"],
)
def test_gathered_layout_fills_like_the_compiled_batch(n_links, n_flows, seed_base):
    for case in range(12):
        rng = np.random.default_rng(seed_base + case)
        flows, capacities = random_instance(rng, n_links, n_flows)
        _, active = _partition_flows(flows, capacities)
        components = link_components(active)
        expected = reference_allocation(flows, capacities)
        assert gathered_rates(flows, capacities, components) == {
            fid: expected[fid] for fid in active
        }
        # Partial selections: rows of the unselected components (and the
        # inactive flows) stay in the table and out of the layout.
        for _ in range(3):
            picked = [c for c in components if rng.random() < 0.4] or components[:1]
            got = gathered_rates(flows, capacities, picked)
            assert got == {fid: expected[fid] for c in picked for fid in c}


def test_layout_counts_a_repeated_link_twice():
    flows = [
        FlowDemand("twice", (("a", "b"), ("b", "a"), ("a", "b")), 50.0),
        FlowDemand("once", (("a", "b"),), 50.0),
    ]
    capacities = {("a", "b"): 30.0, ("b", "a"): 30.0}
    components = link_components({flow.flow_id: flow for flow in flows})
    assert gathered_rates(flows, capacities, components) == {
        "twice": 10.0,
        "once": 10.0,
    }
