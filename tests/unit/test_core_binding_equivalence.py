"""Table-driven flow sync == the frozen per-edge loop.

``DeploymentBinding.sync_flows`` reads the clock and the restart set
once and takes placement from the binding's revision-keyed edge table;
``set_global_scale`` validates once and writes per edge.  The loops
below are what they replaced — per edge: ``netem.now``, two
``is_available``, two ``node_of``, ``has_flow`` then ``flow``, and a
re-validating ``set_demand_scale`` — kept verbatim as the oracle.  Two
identically seeded worlds are driven through the same script, one by
each implementation, over all-local / k3s / longest-path placements, a
pod mid-restart, a crashed node (unroutable edges), a demand override
and a rebind between syncs.  ``sync_flows`` also skips its per-edge
pass when nothing that pass reads has moved, so each sync must either
make the *same emulator calls in the same order* as the frozen loop, or
— only where the frozen loop's calls changed nothing — none but the
final ``recompute``; after every sync both emulators hold the same
state.  Generated histories on a small mesh hold the skip to the same
contract.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding
from repro.core.dag import Component, ComponentDAG
from repro.errors import DagError, RoutingError, SchedulingError
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator
from tests.unit.test_apps_social_equivalence import (
    SOCIAL_PLACEMENTS,
    _busiest_remote_node,
    _social,
)

# -- the frozen oracle (verbatim from before the edge table) -----------------


def oracle_set_demand_scale(
    self: DeploymentBinding, src: str, dst: str, scale: float
) -> None:
    if scale < 0:
        raise DagError("demand scale must be >= 0")
    self.dag.weight(src, dst)  # validates the edge exists
    self._demand_scale[(src, dst)] = scale


def oracle_set_global_scale(self: DeploymentBinding, scale: float) -> None:
    for src, dst, _ in self.dag.edges():
        oracle_set_demand_scale(self, src, dst, scale)


def oracle_edge_demand(self: DeploymentBinding, src: str, dst: str) -> float:
    now = self.netem.now
    if not (
        self.deployment.is_available(src, now)
        and self.deployment.is_available(dst, now)
    ):
        return 0.0
    override = self._demand_override.get((src, dst))
    if override is not None:
        return override
    base = self._base_weights.get((src, dst))
    if base is None:
        base = self.dag.weight(src, dst)
    return base * self._demand_scale.get((src, dst), 1.0)


def oracle_sync_flows(self: DeploymentBinding) -> None:
    for (src, dst), flow_id in self._flow_ids.items():
        src_node = self.deployment.node_of(src)
        dst_node = self.deployment.node_of(dst)
        demand = oracle_edge_demand(self, src, dst)
        if src_node == dst_node:
            if self.netem.has_flow(flow_id):
                self.netem.remove_flow(flow_id)
            self._unroutable.discard((src, dst))
            continue
        try:
            if self.netem.has_flow(flow_id):
                flow = self.netem.flow(flow_id)
                if flow.src != src_node or flow.dst != dst_node:
                    self.netem.reroute_flow(flow_id, src_node, dst_node)
                self.netem.set_demand(flow_id, demand)
            else:
                self.netem.add_flow(flow_id, src_node, dst_node, demand)
        except RoutingError:
            self.netem.remove_flow(flow_id)
            self._unroutable.add((src, dst))
        else:
            self._unroutable.discard((src, dst))
    self.netem.recompute()


# -- recording ----------------------------------------------------------------

RECORDED = ("add_flow", "reroute_flow", "set_demand", "remove_flow", "recompute")


class CallLog:
    """Every flow-table call made on any emulator, per emulator."""

    def __init__(self, monkeypatch) -> None:
        self.calls: dict[int, list] = {}
        for name in RECORDED:
            monkeypatch.setattr(
                NetworkEmulator, name, self._logged(name, getattr(NetworkEmulator, name))
            )

    def _logged(self, name, fn):
        def wrapper(emu, *args, **kwargs):
            self.calls.setdefault(id(emu), []).append((name, args, kwargs))
            return fn(emu, *args, **kwargs)

        return wrapper

    def of(self, emu) -> list:
        return self.calls.get(id(emu), [])


def flow_table(binding) -> list:
    return [
        (
            f.flow_id, f.src, f.dst, f.links,
            f.demand_mbps.hex(), f.allocated_mbps.hex(),
        )
        for f in binding.netem.flows
    ]


# -- the script ---------------------------------------------------------------


def drive(env, binding, sync, set_scale) -> None:
    """Every situation ``sync_flows`` has a branch for, in one history."""
    engine, deployment = env.engine, binding.deployment

    def step(seconds: float = 1.0) -> None:
        engine.run_until(engine.now + seconds)

    # Load follows the request rate: a re-scale and a sync per tick.
    for scale in (1.0, 1.4, 0.0, 0.6, 0.6, 2.5):
        set_scale(scale)
        sync()
        step()
    # An override pins one edge whatever the scale says; None lifts it.
    binding.set_demand_override("nginx-frontend", "home-timeline-service", 3.25)
    set_scale(1.2)
    sync()
    step()
    binding.set_demand_override("nginx-frontend", "home-timeline-service", None)
    sync()
    # A migration: endpoints move, the pod is silent while it restarts.
    here = deployment.node_of("post-storage-service")
    there = next(
        n
        for n in ("node1", "node2", "node3", "node4")
        if n not in (here, deployment.node_of("home-timeline-service"))
    )
    deployment.rebind(
        "post-storage-service", there, time=engine.now, restart_seconds=4.0
    )
    for _ in range(6):  # through the restart window and out of it
        sync()
        step()
    # Rebinds between two syncs with no restart cost: a neighbour
    # joins the moved pod (their edge turns co-located), then the pod
    # goes home (it turns inter-node again).
    deployment.rebind(
        "home-timeline-service", there, time=engine.now, restart_seconds=0.0
    )
    sync()
    deployment.rebind(
        "post-storage-service", here, time=engine.now, restart_seconds=0.0
    )
    sync()
    step()
    # A crashed node: flows to it are torn down, its edges unroutable...
    if len(deployment.nodes_used) > 1:
        victim = _busiest_remote_node(binding)
        env.topology.set_node_up(victim, False)
        env.netem.on_topology_change()
        sync()
        step()
        set_scale(0.9)
        sync()
        # ...until the node is back and routing heals.
        env.topology.set_node_up(victim, True)
        env.netem.on_topology_change()
        sync()
        step()
    sync()


def emulator_state(binding) -> tuple:
    """Everything a sync writes, bit for bit."""
    netem = binding.netem
    return (
        flow_table(binding),
        binding.unroutable_edges,
        netem.flow_revision,
        netem.solver_stats(),
    )


def flow_calls(calls: list) -> list:
    """The calls that can change the flow table."""
    return [call for call in calls if call[0] != "recompute"]


class Recording:
    """``sync`` wrapped to note, per call, the emulator calls it made,
    the state it left and whether the flow table moved."""

    def __init__(self, binding, sync, log) -> None:
        self.binding, self.sync, self.log = binding, sync, log
        self.seen: list = []

    def __call__(self) -> None:
        netem = self.binding.netem
        start, revision = len(self.log.of(netem)), netem.flow_revision
        self.sync()
        self.seen.append(
            (
                self.log.of(netem)[start:],
                emulator_state(self.binding),
                netem.flow_revision != revision,
            )
        )


@pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
def test_sync_flows_makes_the_frozen_loops_calls(placement, monkeypatch):
    """Every sync either makes the frozen loop's calls, or — when the
    frozen loop's pass moved nothing — skips its pass; after each, the
    two emulators hold the same state."""
    _, old_env, old = _social(placement)
    _, new_env, new = _social(placement)
    log = CallLog(monkeypatch)
    old_syncs = Recording(old, lambda: oracle_sync_flows(old), log)
    new_syncs = Recording(new, new.sync_flows, log)

    drive(old_env, old, old_syncs, lambda s: oracle_set_global_scale(old, s))
    drive(new_env, new, new_syncs, new.set_global_scale)

    assert len(new_syncs.seen) == len(old_syncs.seen)
    skipped = []
    for i, (was, now) in enumerate(zip(old_syncs.seen, new_syncs.seen)):
        (old_calls, old_state, moved), (new_calls, new_state, _) = was, now
        assert new_state == old_state, f"sync {i}"
        if flow_calls(new_calls):
            assert new_calls == old_calls, f"sync {i}"
        else:
            assert not moved, f"sync {i} skipped a pass that moved the flows"
            assert new_calls == [("recompute", (), {})]
            skipped.append(i)
    # The repeated 0.6 scale is a sync with nothing to do.
    assert skipped and len(skipped) < len(new_syncs.seen)
    assert new._demand_scale == old._demand_scale
    names = {name for calls, _, _ in new_syncs.seen for name, _, _ in calls}
    if placement == "all-local":
        # Everything starts on one node: flows appear only once the
        # rebinds pull services apart.
        assert {"add_flow", "remove_flow"} <= names
    else:
        assert {"add_flow", "reroute_flow", "set_demand", "remove_flow"} <= names
        unroutable = [state[1] for _, state, _ in old_syncs.seen]
        assert any(unroutable)
    assert new.unroutable_edges == old.unroutable_edges == set()


def test_first_sync_makes_the_frozen_calls_and_a_repeat_makes_none(monkeypatch):
    """A binding's first sync is a full pass; syncing again with nothing
    moved re-asserts no demand — only the final ``recompute`` runs."""
    _, _, old = _social("k3s")
    _, _, new = _social("k3s")
    old = DeploymentBinding(old.dag, old.deployment, old.netem)
    new = DeploymentBinding(new.dag, new.deployment, new.netem)
    log = CallLog(monkeypatch)
    for binding in (old, new):
        binding.set_global_scale(1.3)
    oracle_sync_flows(old)
    new.sync_flows()
    first = log.of(new.netem)
    assert first == log.of(old.netem)
    assert {"add_flow", "set_demand"} & {name for name, _, _ in first}
    assert emulator_state(new) == emulator_state(old)

    new.set_global_scale(1.3)  # the same scale again: nothing moves
    del log.of(new.netem)[:]
    new.sync_flows()
    assert log.of(new.netem) == [("recompute", (), {})]


def test_edge_demand_keeps_its_meaning():
    """The public per-edge query still answers what the sync writes."""
    _, env, binding = _social("k3s")
    binding.set_global_scale(1.7)
    binding.set_demand_override("nginx-frontend", "user-timeline-service", 2.0)
    here = binding.deployment.node_of("text-service")
    binding.deployment.rebind(
        "text-service",
        "node3" if here == "node4" else "node4",
        time=env.engine.now,
        restart_seconds=5.0,
    )
    binding.sync_flows()
    for src, dst, _ in binding.dag.edges():
        assert binding.edge_demand(src, dst) == oracle_edge_demand(binding, src, dst)
        flow_id = binding._flow_ids[(src, dst)]
        if env.netem.has_flow(flow_id):
            assert env.netem.flow(flow_id).demand_mbps == binding.edge_demand(src, dst)
    assert binding.edge_demand("compose-post-service", "text-service") == 0.0


def test_negative_global_scale_is_refused_before_any_write():
    _, _, binding = _social("all-local")
    binding.set_global_scale(1.5)
    before = dict(binding._demand_scale)
    with pytest.raises(DagError):
        binding.set_global_scale(-0.1)
    assert binding._demand_scale == before


def test_undeployed_component_fails_the_sync_where_it_did():
    """``node_of`` raised at the first edge touching the missing pod,
    after the edges before it were synced; so does the table miss."""
    _, old_env, old = _social("k3s")
    _, new_env, new = _social("k3s")
    for binding in (old, new):
        binding.deployment.unbind("user-mention-service")
        binding.set_global_scale(1.3)
    with pytest.raises(SchedulingError) as old_error:
        oracle_sync_flows(old)
    with pytest.raises(SchedulingError) as new_error:
        new.sync_flows()
    assert str(new_error.value) == str(old_error.value)
    assert flow_table(new) == flow_table(old)


# -- generated histories ------------------------------------------------------

NODES = ("node1", "node2", "node3", "node4")
HOME = {"a": "node1", "b": "node2", "c": "node2", "d": "node3", "e": "node4"}
EDGES = (
    ("a", "b", 4.0), ("b", "c", 3.0), ("a", "c", 2.0),
    ("c", "d", 5.0), ("d", "e", 1.0), ("b", "e", 2.5),
)


def small_world() -> DeploymentBinding:
    """Five services over a four-node full mesh, the emulator ticking."""
    dag = ComponentDAG("app")
    for name in HOME:
        dag.add_component(Component(name, cpu=1, memory_mb=10))
    for src, dst, weight in EDGES:
        dag.add_dependency(src, dst, weight)
    deployment = Deployment("app")
    for name, node in HOME.items():
        deployment.bind(name, node)
    netem = NetworkEmulator(full_mesh_topology(4, capacity_mbps=10.0))
    netem.start()
    return DeploymentBinding(dag, deployment, netem)


def apply(binding: DeploymentBinding, op: tuple, frozen: bool) -> None:
    """One history step, through the frozen loop or the production path."""
    kind = op[0]
    netem, deployment = binding.netem, binding.deployment
    if kind == "scale":
        if frozen:
            oracle_set_global_scale(binding, op[1])
        else:
            binding.set_global_scale(op[1])
    elif kind == "edge_scale":
        src, dst, _ = EDGES[op[1]]
        if frozen:
            oracle_set_demand_scale(binding, src, dst, op[2])
        else:
            binding.set_demand_scale(src, dst, op[2])
    elif kind == "override":
        binding.set_demand_override(*EDGES[op[1]][:2], op[2])
    elif kind == "rebind":
        if deployment.node_of(op[1]) != op[2]:
            deployment.rebind(op[1], op[2], time=netem.now, restart_seconds=op[3])
    elif kind == "probe":  # another tenant's flow comes or goes
        if netem.has_flow("probe"):
            netem.remove_flow("probe")
        elif op[1] != op[2]:
            try:
                netem.add_flow("probe", op[1], op[2], 1.0, tag="probe")
            except RoutingError:
                pass
    elif kind == "poke":  # someone else re-demands one of our flows
        flow_id = binding._flow_ids[EDGES[op[1]][:2]]
        if netem.has_flow(flow_id):
            netem.set_demand(flow_id, op[2])
    elif kind == "crash":
        netem.topology.set_node_up(op[1], False)
        netem.on_topology_change()
    elif kind == "reboot":
        for node in NODES:
            netem.topology.set_node_up(node, True)
        netem.on_topology_change()
    elif kind == "tick":
        netem.engine.run_until(netem.now + op[1])
    elif frozen:
        oracle_sync_flows(binding)
    else:
        binding.sync_flows()


edge_ids = st.integers(0, len(EDGES) - 1)
history_ops = st.one_of(
    st.tuples(st.just("scale"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("edge_scale"), edge_ids, st.sampled_from([0.0, 1.0, 3.0])),
    st.tuples(st.just("override"), edge_ids, st.sampled_from([None, 0.0, 2.0])),
    st.tuples(
        st.just("rebind"),
        st.sampled_from(sorted(HOME)),
        st.sampled_from(NODES),
        st.sampled_from([0.0, 2.0]),
    ),
    st.tuples(st.just("probe"), st.sampled_from(NODES), st.sampled_from(NODES)),
    st.tuples(st.just("poke"), edge_ids, st.sampled_from([0.0, 7.0])),
    st.tuples(st.just("crash"), st.sampled_from(NODES[1:])),
    st.just(("reboot",)),
    st.tuples(st.just("tick"), st.sampled_from([0.5, 1.0, 3.0])),
)
#: Steps of zero to three changes, each followed by a sync.
histories = st.lists(st.lists(history_ops, max_size=3), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(histories)
# Each key part alone: the restart window ends, the mesh heals, someone
# else re-demands one of our flows — nothing else moved.
@example([[("rebind", "a", "node3", 2.0)], [("tick", 3.0)]])
@example([[("crash", "node2")], [("reboot",)]])
@example([[], [("poke", 0, 7.0)]])
def test_every_sync_leaves_the_frozen_loops_state(history):
    old, new = small_world(), small_world()
    for step in history:
        for op in [*step, ("sync",)]:
            apply(old, op, frozen=True)
            apply(new, op, frozen=False)
        assert emulator_state(new) == emulator_state(old), step
