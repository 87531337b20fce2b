"""Property-based tests for the network emulator and binding layer."""

import pickle
from collections import Counter
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding, edge_flow_id
from repro.core.dag import Component, ComponentDAG
from repro.errors import RoutingError
from repro.invariants import max_min_certificate
from repro.mesh.topology import full_mesh_topology, line_topology, regional_mesh
from repro.mesh.traces import BandwidthTrace
from repro.net.fairness import (
    _BATCH_MIN_FLOWS,
    _EPSILON,
    IncrementalMaxMin,
    _slack_bound,
    link_components,
    max_min_allocation,
)
from repro.net.netem import NetworkEmulator
from tests.unit.test_fairness_incremental import touched_or_moved

_EPS = 1e-6

NODES = ["node1", "node2", "node3"]


@st.composite
def flow_operations(draw):
    """A random sequence of add/remove/set-demand/tick operations."""
    ops = []
    n_ops = draw(st.integers(min_value=1, max_value=25))
    for i in range(n_ops):
        kind = draw(st.sampled_from(["add", "remove", "demand", "tick"]))
        if kind == "add":
            ops.append(
                (
                    "add",
                    f"f{i}",
                    draw(st.sampled_from(NODES)),
                    draw(st.sampled_from(NODES)),
                    draw(st.floats(min_value=0.0, max_value=50.0)),
                )
            )
        elif kind == "remove":
            ops.append(("remove", f"f{draw(st.integers(0, n_ops))}"))
        elif kind == "demand":
            ops.append(
                (
                    "demand",
                    f"f{draw(st.integers(0, n_ops))}",
                    draw(st.floats(min_value=0.0, max_value=50.0)),
                )
            )
        else:
            ops.append(("tick",))
    return ops


class TestEmulatorInvariants:
    @given(flow_operations())
    @settings(max_examples=60, deadline=None)
    def test_allocation_always_feasible(self, ops):
        emu = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
        for op in ops:
            if op[0] == "add" and not emu.has_flow(op[1]):
                emu.add_flow(op[1], op[2], op[3], op[4])
            elif op[0] == "remove":
                emu.remove_flow(op[1])
            elif op[0] == "demand" and emu.has_flow(op[1]):
                emu.set_demand(op[1], op[2])
            elif op[0] == "tick":
                emu.tick()
        emu.recompute()
        rates = {flow.flow_id: flow.allocated_mbps for flow in emu.flows}
        assert max_min_certificate(emu.flows, emu.capacities_now(), rates) == []
        for flow in emu.flows:
            assert 0.0 <= flow.goodput_fraction <= 1.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=60.0),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_available_bandwidth_consistent(self, demands):
        emu = NetworkEmulator(full_mesh_topology(2, capacity_mbps=20.0))
        for i, demand in enumerate(demands):
            emu.add_flow(f"f{i}", "node1", "node2", demand)
        emu.recompute()
        available = emu.available_bandwidth("node1", "node2")
        allocated = emu.link_allocated("node1", "node2")
        assert available >= -_EPS
        assert abs((available + allocated) - 20.0) < _EPS or allocated < 20.0


LINE = ("node1", "node2", "node3", "node4")


def frozen_path_delay_s(emu: NetworkEmulator, src: str, dst: str) -> float:
    """The per-hop sum: propagation, then backlog over capacity (a dead
    link drains at a nominal 1 Mbps), every hop asked its capacity."""
    total = 0.0
    for a, b in emu.router.path_link_keys(src, dst):
        total += emu.topology.link(a, b).latency_ms / 1000.0
        capacity = emu.topology.capacity(a, b, emu.now)
        backlog = float(emu._queue_arrays.backlog_mbit[emu._link_index[(a, b)]])
        total += backlog / 1.0 if capacity <= 0 else backlog / capacity
    return total


class TestPathDelay:
    @given(
        kinds=st.lists(
            st.sampled_from(["plain", "dead", "throttled", "traced"]),
            min_size=3,
            max_size=3,
        ),
        latencies=st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 7.0]), min_size=3, max_size=3
        ),
        backlogs=st.lists(
            st.sampled_from([0.0, 0.0, -0.0, 1e-12, 0.4, 3.0, 25.0]),
            min_size=6,
            max_size=6,
        ),
        t=st.sampled_from([0.0, 1.5, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_path_delay_is_the_per_hop_sum(self, kinds, latencies, backlogs, t):
        """Skipping the capacity read on an empty queue is exact, on a
        dead link (up and routed, but a zero trace sample) and a
        throttled one too."""
        topo = line_topology([10.0, 20.0, 30.0])
        for i, (kind, latency) in enumerate(zip(kinds, latencies)):
            a, b = LINE[i], LINE[i + 1]
            link = topo.link(a, b)
            link.latency_ms = latency
            if kind == "dead":
                link.set_trace(BandwidthTrace([0.0, 2.0], [0.0, 0.0]))
            elif kind == "throttled":
                link.set_rate_limit(3.0, src=a, dst=b)
            elif kind == "traced":
                link.set_trace(
                    BandwidthTrace([0.0, 1.0, 2.0, 3.0], [8.0, 0.0, 2.5, 40.0])
                )
        emu = NetworkEmulator(topo)
        emu.engine.run_until(t)
        emu._queue_arrays.backlog_mbit[:] = backlogs
        for src in LINE:
            for dst in LINE:
                want = frozen_path_delay_s(emu, src, dst)
                assert emu.path_delay_s(src, dst).hex() == want.hex()


@st.composite
def random_placements(draw):
    """A small DAG plus an arbitrary component → node assignment."""
    n = draw(st.integers(min_value=2, max_value=6))
    dag = ComponentDAG("prop")
    for i in range(n):
        dag.add_component(Component(f"c{i}", cpu=1, memory_mb=16))
    for i in range(n - 1):
        if draw(st.booleans()):
            dag.add_dependency(
                f"c{i}", f"c{i + 1}",
                draw(st.floats(min_value=0.1, max_value=10.0)),
            )
    assignment = {
        f"c{i}": draw(st.sampled_from(NODES)) for i in range(n)
    }
    return dag, assignment


class TestBindingInvariants:
    @given(random_placements())
    @settings(max_examples=60, deadline=None)
    def test_sync_flows_is_idempotent(self, scenario):
        dag, assignment = scenario
        deployment = Deployment("prop")
        for name, node in assignment.items():
            deployment.bind(name, node)
        emu = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
        binding = DeploymentBinding(dag, deployment, emu)
        binding.sync_flows()
        snapshot = {
            f.flow_id: (f.src, f.dst, f.demand_mbps) for f in emu.flows
        }
        binding.sync_flows()
        assert snapshot == {
            f.flow_id: (f.src, f.dst, f.demand_mbps) for f in emu.flows
        }

    @given(random_placements())
    @settings(max_examples=60, deadline=None)
    def test_flows_exist_exactly_for_inter_node_edges(self, scenario):
        dag, assignment = scenario
        deployment = Deployment("prop")
        for name, node in assignment.items():
            deployment.bind(name, node)
        emu = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
        binding = DeploymentBinding(dag, deployment, emu)
        binding.sync_flows()
        expected = {
            edge_flow_id("prop", src, dst)
            for src, dst, _ in dag.edges()
            if assignment[src] != assignment[dst]
        }
        actual = {f.flow_id for f in emu.flows}
        assert actual == expected

    @given(random_placements(), random_placements())
    @settings(max_examples=40, deadline=None)
    def test_sync_tracks_arbitrary_rebinds(self, first, second):
        dag, initial = first
        _, target = second
        deployment = Deployment("prop")
        for name, node in initial.items():
            deployment.bind(name, node)
        emu = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
        binding = DeploymentBinding(dag, deployment, emu)
        binding.sync_flows()
        for name in list(initial):
            new_node = target.get(name)
            if new_node and new_node != deployment.node_of(name):
                deployment.rebind(
                    name, new_node, time=0.0, restart_seconds=0.0
                )
        binding.sync_flows()
        for src, dst, _ in dag.edges():
            flow_id = edge_flow_id("prop", src, dst)
            if deployment.colocated(src, dst):
                assert not emu.has_flow(flow_id)
            else:
                flow = emu.flow(flow_id)
                assert flow.src == deployment.node_of(src)
                assert flow.dst == deployment.node_of(dst)


REGION_NODES = [f"r{i}n{j}" for i in range(3) for j in (1, 2, 3)]
REGION_LINKS = [link.id for link in regional_mesh(3, 3).links]
FLOW_IDS = [f"f{i}" for i in range(12)]
#: A bulk arrival: enough flows to lift the active count over the
#: cutover on its own.
BULK_IDS = [f"bulk{i}" for i in range(_BATCH_MIN_FLOWS + 8)]


# -- slack admission, restated over the stateless component split -----------


def _active(rows) -> dict:
    return {
        row.flow_id: row for row in rows if row.demand_mbps > _EPSILON and row.links
    }


def _slack(members: dict, rates, capacities, keys, extra=None) -> bool:
    """Every link of ``keys`` is slack under the rates of ``members``
    crossing it (plus ``extra = (row, rate)``), with multiplicity."""
    load = dict.fromkeys(keys, 0.0)
    carried = [(row, rates[fid]) for fid, row in members.items()]
    for row, rate in carried + ([extra] if extra else []):
        for key in row.links:
            if key in load:
                load[key] += rate
    return all(capacities[key] > _slack_bound(value) for key, value in load.items())


def admits_arrival(rows, rates, capacities, flow) -> bool:
    """Whether ``flow`` may join the active flows of ``rows`` — which
    hold ``rates`` against ``capacities`` — with no water-fill: it
    touches at most one component, tops its demands by more than
    ``2 * epsilon``, and leaves its links slack at the grant."""
    active = _active(rows)
    if flow.flow_id not in _active([flow]) or len(active) + 1 >= _BATCH_MIN_FLOWS:
        return False
    keys = set(flow.links)
    touched = [
        members
        for members in link_components(active)
        if any(keys & set(row.links) for row in members.values())
    ]
    if len(touched) > 1:
        return False
    members = touched[0] if touched else {}
    demand = flow.demand_mbps
    top = max((row.demand_mbps for row in members.values()), default=-np.inf)
    held = max((rates[fid] for fid in members), default=0.0)
    grant = held + (demand - held)
    return (
        demand > top + 2 * _EPSILON
        and held < demand - _EPSILON <= grant
        and _slack(members, rates, capacities, flow.links, (flow, grant))
    )


def departure(rows, rates, capacities, fid) -> tuple[bool, bool]:
    """``(admitted, filled)`` for the removal of ``fid`` from ``rows``:
    whether it leaves with no water-fill (its component cannot split,
    it tops the other demands by more than ``2 * epsilon``, its links
    are slack), and else whether a fill follows (others remain)."""
    active = _active(rows)
    if fid not in active:
        return False, False
    flow = active[fid]
    (members,) = [c for c in link_components(active) if fid in c]
    top = max(
        (row.demand_mbps for other, row in members.items() if other != fid),
        default=-np.inf,
    )
    admitted = (
        len(active) < _BATCH_MIN_FLOWS  # the label form admits nothing
        and (len(set(flow.links)) == 1 or len(members) == 1)
        and flow.demand_mbps > top + 2 * _EPSILON
        and _slack(members, rates, capacities, flow.links)
    )
    return admitted, not admitted and len(members) > 1


def rate_bits(rates) -> dict:
    return {fid: float(rate).hex() for fid, rate in rates.items()}


def check_allocation(rows, capacities, rates) -> None:
    """Bit for bit the stateless solve, and max-min by certificate."""
    rows = list(rows)
    assert rate_bits(rates) == rate_bits(max_min_allocation(rows, capacities))
    assert max_min_certificate(rows, capacities, rates) == []


class WatchedMaxMin(IncrementalMaxMin):
    """The engine, with every answer's ``changed`` list held to the
    contract: exactly the touched flows still in the table plus every
    other flow whose rate moved."""

    def solve(self, flows, link_index, cap_values, table=None):
        return touched_or_moved(
            self,
            flows,
            lambda: super(WatchedMaxMin, self).solve(
                flows, link_index, cap_values, table
            ),
        )


class ReverseIndexMachine(RuleBasedStateMachine):
    """``_flows_by_link`` stays the index of ``flows`` through every
    mutation: the flows crossing each link, in ``_flows`` order.

    ``link_allocated`` and the migration what-if (``linked_flows``)
    both read it; a stale member or a missed entry
    would skew them silently.  A 3-region mesh gives multi-hop paths
    over the backbone ring, so reroutes after a failure move flows
    between links.

    The same history checks the allocation: after every step the
    emulator's rates are, bit for bit, a stateless solve's, and an
    arrival or removal the slack-admission rule accepts (restated
    here over the stateless components) fills nothing, while one it
    refuses fills — throttled links make some arrivals bind, a
    pickle round trip lands mid-history.

    The engine is a :class:`WatchedMaxMin`, so every solve's
    ``changed`` list is exactly the touched flows plus the ones whose
    rate moved, and after every step each flow's ``allocated_mbps`` is
    bit for bit the rate the engine holds: the emulator writes back
    only what is reported.  Bulk arrivals and departures carry the
    active count across ``_BATCH_MIN_FLOWS`` both ways, so the label
    form is checked too; ``tally`` counts the crossings and the
    checkpoints taken in the label form, across examples.
    """

    tally: Counter = Counter()

    def __init__(self) -> None:
        super().__init__()
        self.emu = NetworkEmulator(regional_mesh(3, 3))
        self.emu._incremental = WatchedMaxMin()
        self.batched = False

    def _held(self):
        """The solved state a change starts from."""
        rows = self.emu.flows
        rates = {flow.flow_id: flow.allocated_mbps for flow in rows}
        return rows, rates, self.emu.capacities_now(), self._counters()

    def _counters(self):
        stats = self.emu.solver_stats()
        return stats["partial_solves"], stats["components_resolved"]

    def _expect(self, before, admitted: bool, filled: bool) -> None:
        self.emu.recompute()
        partial, resolved = self._counters()
        if admitted:
            assert (partial, resolved) == before
        elif filled:
            assert partial == before[0] + 1

    @rule(
        fid=st.sampled_from(FLOW_IDS),
        src=st.sampled_from(REGION_NODES),
        dst=st.sampled_from(REGION_NODES),
        demand=st.sampled_from([0.0, 1.0, 4.5, 20.0, 39.0]),
    )
    def add_flow(self, fid, src, dst, demand):
        if self.emu.has_flow(fid):
            return
        rows, rates, capacities, before = self._held()
        try:
            flow = self.emu.add_flow(fid, src, dst, demand)
        except RoutingError:
            assert not self.emu.has_flow(fid)
            return
        admitted = admits_arrival(rows, rates, capacities, flow)
        self._expect(before, admitted, fid in _active([flow]))

    @rule(fid=st.sampled_from(FLOW_IDS))
    def remove_flow(self, fid):
        rows, rates, capacities, before = self._held()
        admitted, filled = departure(rows, rates, capacities, fid)
        self.emu.remove_flow(fid)
        self._expect(before, admitted, filled)

    @rule(
        fid=st.sampled_from(FLOW_IDS),
        src=st.sampled_from(REGION_NODES),
        dst=st.sampled_from(REGION_NODES),
    )
    def reroute_flow(self, fid, src, dst):
        if not self.emu.has_flow(fid):
            return
        try:
            self.emu.reroute_flow(fid, src, dst)
        except RoutingError:
            assert not self.emu.has_flow(fid)

    @rule(fid=st.sampled_from(FLOW_IDS), demand=st.sampled_from([0.0, 2.0, 9.0]))
    def set_demand(self, fid, demand):
        if self.emu.has_flow(fid):
            self.emu.set_demand(fid, demand)

    @rule(pair=st.sampled_from(REGION_LINKS), up=st.booleans())
    def set_link_up(self, pair, up):
        self.emu.topology.set_link_up(*pair, up)
        self.emu.on_topology_change()

    @rule(node=st.sampled_from(REGION_NODES), up=st.booleans())
    def set_node_up(self, node, up):
        self.emu.topology.set_node_up(node, up)
        self.emu.on_topology_change()

    @rule(
        pair=st.sampled_from(REGION_LINKS),
        forward=st.booleans(),
        limit=st.sampled_from([None, 2.0, 6.0, 25.0]),
    )
    def throttle(self, pair, forward, limit):
        src, dst = pair if forward else pair[::-1]
        self.emu.topology.link(src, dst).set_rate_limit(limit, src=src, dst=dst)

    @initialize(bulk=st.booleans(), seed=st.integers(0, 2**16))
    def start(self, bulk, seed):
        """Half the histories start in the label form."""
        if bulk:
            self.bulk_arrive(seed, 1.0)

    @rule(
        seed=st.integers(0, 2**16),
        demand=st.sampled_from([0.5, 1.0, 4.5]),
    )
    def bulk_arrive(self, seed, demand):
        """Every absent bulk flow arrives, between random distinct
        nodes, before one solve."""
        rng = np.random.default_rng(seed)
        for fid in BULK_IDS:
            if self.emu.has_flow(fid):
                continue
            src, dst = rng.choice(REGION_NODES, size=2, replace=False).tolist()
            try:
                self.emu.add_flow(fid, src, dst, demand)
            except RoutingError:
                pass
        self.emu.recompute()

    @rule(keep=st.sampled_from([0, 40, 120]))
    def bulk_depart(self, keep):
        """All but the first ``keep`` bulk flows leave before one solve."""
        for fid in BULK_IDS[keep:]:
            self.emu.remove_flow(fid)
        self.emu.recompute()

    @rule()
    def checkpoint(self):
        if self.emu._incremental.batched:
            self.tally["checkpoint batched"] += 1
        self.emu = pickle.loads(pickle.dumps(self.emu))

    @rule(
        links=st.lists(st.sampled_from(REGION_LINKS), max_size=3),
        exclude=st.sets(st.sampled_from(FLOW_IDS), max_size=3),
    )
    def linked_flows_is_the_closure(self, links, exclude):
        start = [(a, b) for a, b in links] + [(b, a) for a, b in links]
        reached = {flow.flow_id for flow in self.emu.linked_flows(start, exclude)}
        # The fixpoint over the flow list, without the index.
        closure, frontier = set(), set(start)
        while True:
            grown = {
                flow.flow_id
                for flow in self.emu.flows
                if flow.flow_id not in exclude | closure
                and frontier & set(flow.links)
            }
            if not grown:
                break
            closure |= grown
            frontier |= {key for fid in grown for key in self.emu.flow(fid).links}
        assert reached == closure

    @invariant()
    def index_is_rebuilt_from_flows(self):
        rebuilt: dict = {}
        for flow in self.emu.flows:
            for key in flow.links:
                rebuilt.setdefault(key, {})[flow.flow_id] = None
        assert {key: list(ids) for key, ids in self.emu._flows_by_link.items()} == {
            key: list(ids) for key, ids in rebuilt.items()
        }

    @invariant()
    def allocation_is_a_stateless_solve(self):
        self.emu.recompute()
        flows = self.emu.flows
        rates = {flow.flow_id: flow.allocated_mbps for flow in flows}
        check_allocation(flows, self.emu.capacities_now(), rates)

    @invariant()
    def allocation_is_the_engine_rates(self):
        self.emu.recompute()
        engine = self.emu._incremental
        rates = {flow.flow_id: flow.allocated_mbps for flow in self.emu.flows}
        assert rate_bits(rates) == rate_bits(engine._rates)
        if engine.batched != self.batched:
            self.batched = engine.batched
            self.tally["crossed up" if self.batched else "crossed down"] += 1


ReverseIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestReverseIndex = ReverseIndexMachine.TestCase


def test_reverse_index_histories_cross_the_cutover():
    """The machine's histories reach the label form and leave it, and
    are checkpointed while in it."""
    ReverseIndexMachine.tally.clear()
    run_state_machine_as_test(
        ReverseIndexMachine,
        settings=settings(max_examples=30, stateful_step_count=30, deadline=None),
    )
    tally = ReverseIndexMachine.tally
    for kind in ("crossed up", "crossed down", "checkpoint batched"):
        assert tally[kind] > 0, tally


ENGINE_LINKS = [(f"n{i}", f"n{i + 1}") for i in range(5)]
ENGINE_FLOWS = [f"g{i}" for i in range(8)]
#: Paths as link positions: repeats cross a link twice, ``[]`` is a
#: loopback.
PATHS = st.lists(st.integers(0, len(ENGINE_LINKS) - 1), max_size=3)
DEMANDS = st.sampled_from([0.0, 1e-10, 0.7, 2.0, 4.5, 9.0, 30.0])


@dataclass
class Row:
    """A mutable flow row, held by reference like the emulator's."""

    flow_id: str
    links: tuple
    demand_mbps: float


class AdmissionMachine(RuleBasedStateMachine):
    """An :class:`IncrementalMaxMin` driven directly, one solve per
    step: arrivals and departures at the top of their component's fill
    order and below it, on slack and binding links, bridging paths, a
    link crossed twice, zero-demand and loopback rows, in-place demand
    edits (one followed by the row's removal before the solve),
    capacity moves and a pickle round trip.  Every answer is bit for
    bit the stateless solve; an arrival or departure the rule accepts
    fills nothing, and one it refuses fills.  ``tally`` counts both
    outcomes across examples."""

    tally: Counter = Counter()

    def __init__(self) -> None:
        super().__init__()
        self.rows: dict[str, Row] = {}
        self.link_index = {key: i for i, key in enumerate(ENGINE_LINKS)}
        self.caps = np.full(len(ENGINE_LINKS), 10.0)
        self.engine = IncrementalMaxMin()
        self.rates = dict(self.solve())

    def capacities(self) -> dict:
        return dict(zip(ENGINE_LINKS, self.caps.tolist()))

    def counters(self):
        return self.engine.partial_solves, self.engine.components_resolved

    def solve(self):
        rates, changed = self.engine.solve(self.rows, self.link_index, self.caps)
        assert len(changed) == len(set(changed))
        check_allocation(self.rows.values(), self.capacities(), rates)
        self.rates = dict(rates)
        return rates

    def expect(self, kind: str, before, admitted: bool, filled: bool) -> None:
        self.solve()
        if admitted:
            assert self.counters() == before
            self.tally[f"{kind} admitted"] += 1
        elif filled:
            assert self.counters()[0] == before[0] + 1
            self.tally[f"{kind} filled"] += 1

    def add(self, fid: str, path, demand: float) -> Row:
        row = self.rows[fid] = Row(fid, tuple(ENGINE_LINKS[i] for i in path), demand)
        self.engine.touch(fid)
        return row

    @rule(fid=st.sampled_from(ENGINE_FLOWS), path=PATHS, demand=DEMANDS)
    def arrive(self, fid, path, demand):
        if fid in self.rows:
            return
        rows, before = list(self.rows.values()), self.counters()
        row = self.add(fid, path, demand)
        admitted = admits_arrival(rows, self.rates, self.capacities(), row)
        self.expect("arrival", before, admitted, fid in _active([row]))

    @rule(
        first=st.tuples(st.sampled_from(ENGINE_FLOWS), PATHS, DEMANDS),
        second=st.tuples(st.sampled_from(ENGINE_FLOWS), PATHS, DEMANDS),
    )
    def arrive_together(self, first, second):
        """Two arrivals between solves: the first may be admitted and
        its component then reached by the second."""
        for fid, path, demand in (first, second):
            if fid not in self.rows:
                self.add(fid, path, demand)
        self.solve()

    @rule(fid=st.sampled_from(ENGINE_FLOWS))
    def depart(self, fid):
        if fid not in self.rows:
            return
        before = self.counters()
        admitted, filled = departure(
            self.rows.values(), self.rates, self.capacities(), fid
        )
        del self.rows[fid]
        self.engine.touch(fid)
        self.expect("departure", before, admitted, filled)

    @rule(demand=DEMANDS, leave=st.booleans())
    def change_top(self, demand, leave):
        """The active row of largest demand — the departure most likely
        to be admitted — leaves, or is edited and then leaves (with
        others beside it, a fill)."""
        active = _active(self.rows.values())
        if active:
            fid = max(active, key=lambda fid: active[fid].demand_mbps)
            if leave:
                self.redemand(fid, demand, leave)
            else:
                self.depart(fid)

    @rule(fid=st.sampled_from(ENGINE_FLOWS), demand=DEMANDS, leave=st.booleans())
    def redemand(self, fid, demand, leave):
        """An in-place demand edit — and, with ``leave``, the row's
        removal before the same solve: its held row then no longer
        says what its rate was solved with, so it is never admitted."""
        row = self.rows.get(fid)
        if row is None:
            return
        before = self.counters()
        _, filled = departure(self.rows.values(), self.rates, self.capacities(), fid)
        row.demand_mbps = demand
        self.engine.touch(fid)
        if leave:
            del self.rows[fid]
            self.engine.touch(fid)
            self.expect("twice-touched departure", before, False, filled)
        else:
            self.solve()

    @rule(
        link=st.integers(0, len(ENGINE_LINKS) - 1),
        cap=st.sampled_from([0.5, 3.0, 10.0, 25.0, np.inf]),
    )
    def move_capacity(self, link, cap):
        self.caps[link] = cap
        self.solve()

    @rule()
    def checkpoint(self):
        self.rows, self.engine = pickle.loads(pickle.dumps((self.rows, self.engine)))


def test_admission_histories_equal_the_stateless_solve():
    AdmissionMachine.tally.clear()
    run_state_machine_as_test(
        AdmissionMachine,
        settings=settings(max_examples=80, stateful_step_count=30, deadline=None),
    )
    tally = AdmissionMachine.tally
    for kind in ("arrival", "departure"):
        assert tally[f"{kind} admitted"] > 0 and tally[f"{kind} filled"] > 0, tally
    assert tally["twice-touched departure filled"] > 0, tally
