"""Table-driven flow sync == the frozen per-edge loop.

``DeploymentBinding.sync_flows`` reads the clock and the restart set
once and takes placement from the binding's revision-keyed edge table;
``set_global_scale`` validates once and writes per edge.  The loops
below are what they replaced — per edge: ``netem.now``, two
``is_available``, two ``node_of``, ``has_flow`` then ``flow``, and a
re-validating ``set_demand_scale`` — kept verbatim as the oracle.  Two
identically seeded worlds are driven through the same script, one by
each implementation, and must make the *same emulator calls in the same
order* and end with the same flow table, over all-local / k3s /
longest-path placements, a pod mid-restart, a crashed node
(unroutable edges), a demand override and a rebind between syncs.
"""

import pytest

from repro.core.binding import DeploymentBinding
from repro.errors import DagError, RoutingError, SchedulingError
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


@pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
def test_sync_flows_makes_the_frozen_loops_calls(placement, monkeypatch):
    _, old_env, old = _social(placement)
    _, new_env, new = _social(placement)
    log = CallLog(monkeypatch)
    saw_unroutable = []

    def old_sync():
        oracle_sync_flows(old)
        saw_unroutable.append(bool(old._unroutable))

    drive(old_env, old, old_sync, lambda s: oracle_set_global_scale(old, s))
    drive(new_env, new, new.sync_flows, new.set_global_scale)

    assert log.of(new.netem) == log.of(old.netem)
    assert flow_table(new) == flow_table(old)
    assert new.unroutable_edges == old.unroutable_edges == set()
    assert new._demand_scale == old._demand_scale
    assert new_env.netem.solver_stats() == old_env.netem.solver_stats()
    names = [name for name, _, _ in log.of(new.netem)]
    if placement == "all-local":
        # Everything starts on one node: flows appear only once the
        # rebinds pull services apart.
        assert "add_flow" in names and "remove_flow" in names
    else:
        assert {"add_flow", "reroute_flow", "set_demand", "remove_flow"} <= set(names)
        assert any(saw_unroutable) and not saw_unroutable[-1]


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
