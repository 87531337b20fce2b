"""A NaN demand is rejected at every boundary it can enter through.

``demand < 0`` lets NaN through — so does ``scale < 0`` and ``rps < 0``
wherever a load scale enters — and a NaN demand is not a value any
water-filling kernel survives: the plan kernel's slack never shrinks, so
it never terminates (``set_demand(fid, nan)`` hung the next
``run_until``), and the batched kernel returns NaN for every flow of the
component.  Each test runs under an alarm, so a regression shows up as a
failure rather than a hung suite.  ``inf`` stays a legal demand for the
stateless solver, but not for the emulator: one infinite flow there
turns its queues' loss fraction NaN.  So the binding refuses an infinite
scale or override where it is set, not at the next ``sync_flows``.
"""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps.social import SocialNetworkApp
from repro.apps.workload import ExponentialArrivals, FixedRate
from repro.cluster.orchestrator import Orchestrator
from repro.core.binding import DeploymentBinding
from repro.core.dag import Component, ComponentDAG
from repro.cluster.deployment import Deployment
from repro.errors import (
    ConfigError,
    DagError,
    MigrationError,
    SchedulingError,
    SimulationError,
)
from repro.experiments.common import build_env
from repro.faults import HeartbeatConfig
from repro.mesh.topology import full_mesh_topology, line_topology
from repro.net.fairness import (
    _BATCH_MIN_FLOWS,
    FlowDemand,
    IncrementalMaxMin,
    max_min_allocation,
)
from repro.net.netem import NetworkEmulator

NAN, INF = float("nan"), float("inf")
LINK = ("a", "b")


@contextmanager
def time_limit(seconds: float = 10.0):
    """Fail, rather than hang, when the body outlives ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def mesh_emulator() -> NetworkEmulator:
    emu = NetworkEmulator(full_mesh_topology(4, capacity_mbps=10.0))
    for i, (src, dst) in enumerate(
        [("node1", "node2"), ("node1", "node2"), ("node2", "node3"),
         ("node3", "node4"), ("node1", "node4"), ("node2", "node4")]
    ):
        emu.add_flow(f"f{i}", src, dst, 4.0 + i)
    emu.start()
    return emu


def test_add_flow_rejects_nan_and_the_emulator_keeps_running():
    with time_limit():
        emu = mesh_emulator()
        with pytest.raises(SimulationError):
            emu.add_flow("bad", "node1", "node3", NAN)
        assert not emu.has_flow("bad")
        emu.engine.run_until(3.0)
        assert all(np.isfinite(f.allocated_mbps) for f in emu.flows)


def test_set_demand_rejects_nan_and_the_emulator_keeps_running():
    with time_limit():
        emu = mesh_emulator()
        emu.engine.run_until(1.0)
        with pytest.raises(SimulationError):
            emu.set_demand("f0", NAN)
        assert emu.flow("f0").demand_mbps == 4.0
        emu.engine.run_until(3.0)
        assert all(np.isfinite(f.allocated_mbps) for f in emu.flows)


def test_negative_demands_are_still_rejected():
    emu = mesh_emulator()
    with pytest.raises(SimulationError):
        emu.add_flow("bad", "node1", "node3", -1.0)
    with pytest.raises(SimulationError):
        emu.set_demand("f0", -0.5)


def chain_binding(colocated: bool = False) -> DeploymentBinding:
    """Edges ``a -> b`` (5 Mbps) and ``b -> c`` (2 Mbps); ``b`` shares
    ``a``'s node when ``colocated``."""
    dag = ComponentDAG("app")
    for name in "abc":
        dag.add_component(Component(name, cpu=1, memory_mb=10))
    dag.add_dependency("a", "b", 5.0)
    dag.add_dependency("b", "c", 2.0)
    deployment = Deployment("app")
    deployment.bind("a", "node1")
    deployment.bind("b", "node1" if colocated else "node2")
    deployment.bind("c", "node3")
    netem = NetworkEmulator(full_mesh_topology(3, capacity_mbps=10.0))
    return DeploymentBinding(dag, deployment, netem)


def test_binding_override_rejects_nan():
    binding = chain_binding()
    netem = binding.netem
    with time_limit():
        for bad in (NAN, INF):  # the emulator refuses infinite demand too
            with pytest.raises(DagError):
                binding.set_demand_override("a", "b", bad)
        binding.set_demand_override("a", "b", None)  # clearing stays legal
        binding.sync_flows()
        netem.recompute()


@pytest.mark.parametrize("colocated", [False, True], ids=["crossing", "colocated"])
def test_binding_scales_reject_nan_and_keep_what_they_had(colocated):
    """A refused scale is not stored: the next sync runs on the old
    scales, and a co-located edge's demand stays a number."""
    binding = chain_binding(colocated)
    binding.set_demand_scale("b", "c", 0.5)
    scales = dict(binding._demand_scale)
    with time_limit():
        for bad in (NAN, INF):  # the emulator refuses infinite demand too
            with pytest.raises(DagError):
                binding.set_demand_scale("a", "b", bad)
            with pytest.raises(DagError):
                binding.set_global_scale(bad)
        assert binding._demand_scale == scales
        assert binding.edge_demand("a", "b") == 5.0
        assert binding.edge_demand("b", "c") == 1.0
        binding.sync_flows()
        binding.netem.recompute()
        assert all(np.isfinite(f.allocated_mbps) for f in binding.netem.flows)


def test_request_rates_reject_nan():
    for make in (
        lambda: SocialNetworkApp(annotate_rps=NAN),
        lambda: FixedRate(NAN),
        lambda: ExponentialArrivals(NAN),
    ):
        with pytest.raises(ConfigError):
            make()
    app = SocialNetworkApp(annotate_rps=50.0)
    app.set_rps(20.0)
    with pytest.raises(ConfigError):
        app.set_rps(NAN)
    assert app.current_rps == 20.0


def test_restart_windows_reject_nan():
    """``restart_seconds < 0`` let NaN through, and a NaN window stored
    by ``Deployment.rebind`` kept the pod unavailable forever while
    ``restarting()`` never listed it: ``sync_flows`` kept its edges at
    full demand while ``edge_demand`` and ``goodput`` reported it down."""
    with pytest.raises(SchedulingError):
        build_env(full_mesh_topology(3), restart_seconds=NAN)
    env = build_env(full_mesh_topology(3), restart_seconds=5.0)
    orchestrator = env.orchestrator
    with pytest.raises(SchedulingError):
        Orchestrator(env.cluster, engine=env.engine, restart_seconds=NAN)
    deployment = orchestrator.deploy(
        chain_binding().dag.to_pods(), {"a": "node1", "b": "node2", "c": "node3"}
    )
    with pytest.raises(MigrationError):
        orchestrator.migrate("app", "a", "node2", restart_override_s=NAN)
    assert deployment.node_of("a") == "node1"
    assert deployment.is_available("a", env.engine.now)
    record = orchestrator.migrate("app", "a", "node2", restart_override_s=0.0)
    assert record.to_node == "node2"


def test_heartbeat_config_rejects_nan():
    for demand in (NAN, INF):
        with pytest.raises(SimulationError):
            HeartbeatConfig(demand_mbps=demand).validate()
    HeartbeatConfig(demand_mbps=0.0).validate()


@pytest.mark.parametrize("others", [2, _BATCH_MIN_FLOWS], ids=["plan", "batched"])
def test_stateless_solver_fails_loudly_on_nan(others):
    """Direct solver callers have no emulator in front of them."""
    flows = [FlowDemand("f", (LINK,), NAN)] + [
        FlowDemand(f"g{i}", (LINK,), 3.0) for i in range(others)
    ]
    with time_limit():
        with pytest.raises(ValueError, match="NaN"):
            max_min_allocation(flows, {LINK: 10.0})


@pytest.mark.parametrize("others", [2, _BATCH_MIN_FLOWS], ids=["plan", "batched"])
def test_incremental_solver_fails_loudly_on_nan(others):
    table = {f"g{i}": FlowDemand(f"g{i}", (LINK,), 3.0) for i in range(others)}
    engine = IncrementalMaxMin()
    caps = np.array([10.0])
    with time_limit():
        engine.solve(table, {LINK: 0}, caps)
        table["f"] = FlowDemand("f", (LINK,), NAN)
        engine.touch("f", (LINK,))
        with pytest.raises(ValueError, match="NaN"):
            engine.solve(table, {LINK: 0}, caps)


def test_stateless_solver_keeps_infinite_demand_legal():
    flows = [FlowDemand("f", (LINK,), INF), FlowDemand("g", (LINK,), 3.0)]
    with time_limit():
        assert max_min_allocation(flows, {LINK: 10.0}) == {"f": 7.0, "g": 3.0}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_demand_on_an_unlimited_link_ends_the_batched_fill():
    """A flow of infinite demand alone on a ``+inf`` link takes an
    infinite rate.  Its satisfaction test (``inf >= inf``) used to hold
    again in every later round, counting the retired row once more each
    time, and with one more component still filling round after round
    the batched fill never ended.  Its rate was then reached inside a
    round, as ``inf - inf`` (NaN) in the link headroom and the flow
    slack, which NumPy warns about; the fill now settles the row before
    the first round.  Every other flow gets what the plan kernel gives
    it."""
    flows = [FlowDemand("f", (LINK,), INF)] + [
        FlowDemand(f"g{i}", (("c", "d"),), 1.0 + i) for i in range(_BATCH_MIN_FLOWS)
    ]
    capacities = {LINK: INF, ("c", "d"): 1e6}
    with time_limit():
        rates = max_min_allocation(flows, capacities)
    assert rates["f"] == INF
    assert rates == {**{f"g{i}": 1.0 + i for i in range(_BATCH_MIN_FLOWS)}, "f": INF}


@pytest.mark.parametrize("demand", [INF, NAN], ids=["inf", "nan"])
def test_emulator_rejects_non_finite_demands_and_keeps_running(demand):
    """One ``inf`` flow on a 10 Mbps line used to read
    ``path_loss_fraction`` NaN (``inf / inf`` in the queue update) and
    ``offered_mbit_by_tag()`` ``{'app': inf}`` after 2.5 s."""
    with time_limit():
        emu = NetworkEmulator(line_topology([10.0]))
        with pytest.raises(SimulationError):
            emu.add_flow("bad", "node1", "node2", demand)
        assert not emu.has_flow("bad")
        emu.add_flow("f", "node1", "node2", 4.0)
        emu.start()
        emu.engine.run_until(1.0)
        with pytest.raises(SimulationError):
            emu.set_demand("f", demand)
        assert emu.flow("f").demand_mbps == 4.0
        emu.engine.run_until(2.5)
        assert np.isfinite(emu.path_loss_fraction("node1", "node2"))
        assert all(np.isfinite(v) for v in emu.offered_mbit_by_tag().values())
