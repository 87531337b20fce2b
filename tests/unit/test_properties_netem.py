"""Property-based tests for the network emulator and binding layer."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding, edge_flow_id
from repro.core.dag import Component, ComponentDAG
from repro.errors import RoutingError
from repro.mesh.topology import full_mesh_topology, line_topology, regional_mesh
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator

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
        for src, dst, link in emu.topology.iter_directed_links():
            capacity = link.capacity(src, dst, emu.now)
            assert emu.link_allocated(src, dst) <= capacity + _EPS
        for flow in emu.flows:
            assert -_EPS <= flow.allocated_mbps <= flow.demand_mbps + _EPS
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


class ReverseIndexMachine(RuleBasedStateMachine):
    """``_flows_by_link`` stays the index of ``flows`` through every
    mutation: the flows crossing each link, in ``_flows`` order.

    ``link_allocated``, ``link_offered`` and the migration what-if
    (``linked_flows``) all read it; a stale member or a missed entry
    would skew them silently.  A 3-region mesh gives multi-hop paths
    over the backbone ring, so reroutes after a failure move flows
    between links.
    """

    def __init__(self) -> None:
        super().__init__()
        self.emu = NetworkEmulator(regional_mesh(3, 3))

    @rule(
        fid=st.sampled_from(FLOW_IDS),
        src=st.sampled_from(REGION_NODES),
        dst=st.sampled_from(REGION_NODES),
        demand=st.sampled_from([0.0, 1.0, 4.5, 20.0]),
    )
    def add_flow(self, fid, src, dst, demand):
        if self.emu.has_flow(fid):
            return
        try:
            self.emu.add_flow(fid, src, dst, demand)
        except RoutingError:
            assert not self.emu.has_flow(fid)

    @rule(fid=st.sampled_from(FLOW_IDS))
    def remove_flow(self, fid):
        self.emu.remove_flow(fid)

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


ReverseIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestReverseIndex = ReverseIndexMachine.TestCase
