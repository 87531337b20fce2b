"""The delta-maintained flow table equals a from-scratch build, always.

``FlowArrays.update`` folds the flows that changed since the last read
into a built table instead of re-walking every row.  The contract is
equality with the constructor — ``flow_ids``, ``tags``, and every array
element for element *with its dtype* — after any history of add, remove,
remove + re-add of one id, ``set_demand`` (to and from zero included),
``reroute_flow``, a row re-pathed in place, several changes between two
reads, and tags appearing and vanishing; and bit-equal ``offered_mbps``
and ``accumulate_offered_by_tag``, accumulator key order included.
Generated histories drive a bare flow dict; a second suite drives a real
emulator above the cutover, where the delta path is live.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import full_mesh_topology
from repro.net.fairness import _BATCH_MIN_FLOWS
from repro.net.flows import Flow, FlowArrays
from repro.net.netem import NetworkEmulator

N_LINKS = 8
LINKS = [(f"n{i}", f"n{i + 1}") for i in range(N_LINKS)]
LINK_INDEX = {key: i for i, key in enumerate(LINKS)}
ARRAYS = ("demand", "hops", "ptr", "tag_codes", "entry_flow", "entry_link")


def assert_tables_equal(got: FlowArrays, want: FlowArrays) -> None:
    assert got.flow_ids == want.flow_ids
    assert got.tags == want.tags
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert np.array_equal(got.offered_mbps(N_LINKS), want.offered_mbps(N_LINKS))
    acc_got, acc_want = {"seen": 1.5}, {"seen": 1.5}
    got.accumulate_offered_by_tag(0.5, acc_got)
    want.accumulate_offered_by_tag(0.5, acc_want)
    assert list(acc_got.items()) == list(acc_want.items())


def make_flow(fid: str, path, demand: float, tag: str) -> Flow:
    links = tuple(LINKS[i] for i in path)
    return Flow(fid, "s", "d", demand, links=links, tag=tag)


class History:
    """A flow dict, the table kept current by ``update``, and the ids
    changed since its last read — what the emulator keeps."""

    def __init__(self) -> None:
        self.flows: dict[str, Flow] = {}
        self.table = FlowArrays(self.flows, LINK_INDEX)
        self.stale: dict[str, None] = {}

    def apply(self, op) -> None:
        kind, fid = op[0], op[1]
        flows = self.flows
        if kind == "add":
            if fid not in flows:
                flows[fid] = make_flow(fid, *op[2:])
        elif fid not in flows:
            return
        elif kind == "remove":
            del flows[fid]
        elif kind == "readd":  # reroute_flow: same id, a new row at the tail
            flows[fid] = make_flow(fid, op[2], flows.pop(fid).demand_mbps, op[3])
        elif kind == "demand":
            flows[fid].demand_mbps = op[2]
        elif kind == "repath":  # on_topology_change: in place, position kept
            flows[fid].links = tuple(LINKS[i] for i in op[2])
        self.stale[fid] = None

    def read_and_check(self) -> None:
        self.table.update(self.flows, LINK_INDEX, self.stale)
        self.stale = {}
        assert_tables_equal(self.table, FlowArrays(self.flows, LINK_INDEX))


fids = st.sampled_from([f"f{i}" for i in range(7)])
paths = st.lists(st.integers(0, N_LINKS - 1), max_size=4)  # repeats, loopbacks
demands = st.sampled_from([0.0, 1e-10, 0.5, 3.0, 12.25])
tags = st.sampled_from(["app", "probe", "beat"])
ops = st.one_of(
    st.tuples(st.just("add"), fids, paths, demands, tags),
    st.tuples(st.just("remove"), fids),
    st.tuples(st.just("readd"), fids, paths, tags),
    st.tuples(st.just("demand"), fids, demands),
    st.tuples(st.just("repath"), fids, paths),
)
#: Steps of zero to four changes between two reads.
histories = st.lists(st.lists(ops, max_size=4), min_size=1, max_size=25)


@settings(max_examples=400, deadline=None)
@given(histories)
def test_delta_table_equals_scratch_build_after_every_read(history):
    state = History()
    for step in history:
        for op in step:
            state.apply(op)
        state.read_and_check()


def read_sums(table_of, ticks) -> tuple:
    """``offered_mbps`` and the tag accumulation over ``ticks``, as bits,
    asking ``table_of()`` for the table at every read."""
    acc = {"seen": 1.5}
    for tick_s in ticks:
        table_of().accumulate_offered_by_tag(tick_s, acc)
    offered = [value.hex() for value in table_of().offered_mbps(N_LINKS).tolist()]
    return offered, [(tag, value.hex()) for tag, value in acc.items()]


@settings(max_examples=300, deadline=None)
@given(histories, st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3))
def test_memoised_sums_equal_a_fresh_tables_after_every_update(history, ticks):
    """The per-link and per-tag sums are kept until ``update`` touches
    the table.  Read before every update (so a memo that outlived it
    would show) and twice after, they equal those of a table built
    fresh for each read; the offered array is shared and read-only."""
    state = History()

    def kept():
        return state.table

    def fresh():
        return FlowArrays(state.flows, LINK_INDEX)

    for step in history:
        read_sums(kept, ticks)
        for op in step:
            state.apply(op)
        state.table.update(state.flows, LINK_INDEX, state.stale)
        state.stale = {}
        want = read_sums(fresh, ticks)
        assert read_sums(kept, ticks) == want
        assert read_sums(kept, ticks) == want
        offered = state.table.offered_mbps(N_LINKS)
        assert offered is state.table.offered_mbps(N_LINKS)
        assert not offered.flags.writeable


def test_tags_are_first_appearance_order_over_the_current_rows():
    """History ``add p1[probe], add a1[app], remove p1, add p2[probe]``:
    ``probe`` was seen first but ``app`` now heads the rows, and the
    accumulator gets its keys in that order."""
    state = History()
    state.apply(("add", "p1", [0], 1.0, "probe"))
    state.apply(("add", "a1", [1], 2.0, "app"))
    state.read_and_check()
    assert state.table.tags == ["probe", "app"]
    state.apply(("remove", "p1"))
    state.apply(("add", "p2", [2], 3.0, "probe"))
    state.read_and_check()
    assert state.table.tags == ["app", "probe"]
    acc: dict = {}
    state.table.accumulate_offered_by_tag(1.0, acc)
    assert list(acc) == ["app", "probe"]
    state.apply(("remove", "a1"))
    state.read_and_check()
    assert state.table.tags == ["probe"]


def test_remove_and_readd_of_one_id_is_a_drop_and_an_append():
    state = History()
    for i in range(4):
        state.apply(("add", f"f{i}", [i, i + 1], 1.0 + i, "app"))
    state.read_and_check()
    state.apply(("readd", "f1", [5], "app"))
    state.read_and_check()
    assert state.table.flow_ids == ["f0", "f2", "f3", "f1"]
    # Twice between two reads, then gone again: still one consistent fold.
    state.apply(("readd", "f0", [6], "app"))
    state.apply(("readd", "f0", [7, 7], "probe"))
    state.apply(("remove", "f3"))
    state.read_and_check()
    assert state.table.flow_ids == ["f2", "f1", "f0"]


@pytest.fixture
def builds(monkeypatch) -> list:
    """The tables built from scratch while the test runs."""
    seen: list = []
    init = FlowArrays.__init__

    def counted(self, *args):
        seen.append(self)
        init(self, *args)

    monkeypatch.setattr(FlowArrays, "__init__", counted)
    return seen


def test_delta_read_never_runs_the_scratch_build(builds):
    """Drops, patches and appends are folded in; only a row re-pathed
    in place (position kept, entries replaced) rebuilds."""
    state = History()
    for i in range(6):
        state.apply(("add", f"f{i}", [i], 2.0, "app"))
    table = state.table
    table.update(state.flows, LINK_INDEX, state.stale)
    state.stale = {}
    state.apply(("remove", "f2"))
    state.apply(("demand", "f4", 9.0))
    state.apply(("add", "f9", [1, 2], 4.0, "probe"))
    builds.clear()
    table.update(state.flows, LINK_INDEX, state.stale)
    assert builds == []
    state.stale = {}
    state.apply(("repath", "f3", [6, 7]))
    table.update(state.flows, LINK_INDEX, state.stale)
    assert builds == [table]
    assert_tables_equal(table, FlowArrays(state.flows, LINK_INDEX))


def test_an_unreported_change_rebuilds_rather_than_corrupts():
    state = History()
    for i in range(4):
        state.apply(("add", f"f{i}", [i], 2.0, "app"))
    state.read_and_check()
    del state.flows["f1"]  # nobody told the table
    state.apply(("add", "f7", [3], 1.0, "app"))
    state.read_and_check()


# -- through the emulator, above the cutover ----------------------------------


def crowded_emulator(n_flows: int) -> NetworkEmulator:
    emu = NetworkEmulator(full_mesh_topology(6, capacity_mbps=50.0))
    rng = np.random.default_rng(5)
    for i in range(n_flows):
        a, b = rng.choice(6, size=2, replace=False)
        tag = "probe" if i % 7 == 0 else "app"
        emu.add_flow(f"f{i}", f"node{a + 1}", f"node{b + 1}", 0.2 + i % 5, tag=tag)
    emu.tick()
    return emu


def test_emulator_keeps_its_table_by_delta_above_the_cutover(builds):
    emu = crowded_emulator(_BATCH_MIN_FLOWS + 40)
    assert emu._incremental.batched
    table = emu._current_flow_arrays()
    rng = np.random.default_rng(9)
    for step in range(30):
        ids = [flow.flow_id for flow in emu.flows]
        for pick in rng.choice(len(ids), size=4, replace=False):
            fid = ids[pick]
            roll = rng.random()
            if roll < 0.3:
                emu.remove_flow(fid)
            elif roll < 0.6:
                emu.set_demand(fid, float(rng.choice([0.0, 1.5, 7.0])))
            else:
                a, b = rng.choice(6, size=2, replace=False)
                emu.reroute_flow(fid, f"node{a + 1}", f"node{b + 1}")
        emu.add_flow(f"g{step}", "node1", "node4", 1.0, tag="beat")
        builds.clear()
        emu.tick()
        assert builds == []
        assert emu._current_flow_arrays() is table
        assert emu._stale_rows == {}
        assert_tables_equal(table, FlowArrays(emu._flows, emu._link_index))
    assert emu.solver_stats()["full_solves"] == 1


def test_emulator_rebuilds_per_change_below_the_cutover():
    """One cutover governs the table too: on a small flow set the
    delta's fixed cost exceeds a rebuild."""
    emu = crowded_emulator(20)
    assert not emu._incremental.batched
    table = emu._current_flow_arrays()
    emu.set_demand("f3", 9.0)
    emu.tick()
    assert emu._current_flow_arrays() is not table


def test_topology_change_repaths_in_place_and_the_table_follows():
    emu = crowded_emulator(_BATCH_MIN_FLOWS + 10)
    table = emu._current_flow_arrays()
    emu.topology.set_link_up("node1", "node2", False)
    impact = emu.on_topology_change()
    assert impact["rerouted"]
    emu.tick()
    assert emu._current_flow_arrays() is table  # rebuilt in place
    assert_tables_equal(table, FlowArrays(emu._flows, emu._link_index))
