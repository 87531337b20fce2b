"""Compile-then-add latency sampling == the frozen per-step loop.

The app latency models resolve, once per sample call, what every step
of a request chain adds (restart stalls, hop overhead, transfer time
from a per-call edge-cost table) and draw the call's jitter in one
batch.  The loops below are the per-request, per-step implementations
the models shipped before that, kept verbatim as the oracle: the
production path must return the same floats bit for bit *and* leave
the generator in the same state, over healthy, throttled, restarting
and partitioned deployments.

Beyond the hand-placed worlds, Hypothesis generates histories on a
four-node ring — rebinds, throttles, crashes and reboots, rate changes
including zero, engine steps — and holds every sample and request call
along them to the same oracle.

The count gates at the bottom are the clock-free regression fences: one
sample call may ask the emulator for a path delay at most once per
distinct inter-node ``(src_node, dst_node)`` pair its chains cross, and
— placement coming from the binding's revision-keyed edge table — may
not ask the deployment where a pod is, or whether it is serving, at
all while nobody is restarting; a request type's chain is compiled once
per placement, and never pickled.
"""

import pickle
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.camera import CameraPipelineApp
from repro.apps.social import (
    REQUEST_CHAINS,
    SERVICES,
    SocialNetworkApp,
    _KB_TO_MBIT,
)
from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding, EdgeCosts, edge_flow_id
from repro.errors import ConfigError, RoutingError, SchedulingError
from repro.experiments.common import (
    build_env,
    deploy_app,
    run_timeline,
    set_node_egress_limit,
)
from repro.mesh.topology import line_topology
from repro.net.netem import NetworkEmulator

# -- the frozen oracle (verbatim from before the per-call table) -------------


def oracle_edge_transfer_time_s(
    binding: DeploymentBinding, src: str, dst: str, payload_mbit: float
) -> float:
    self = binding
    if payload_mbit <= 0:
        return 0.0
    src_node = self.deployment.node_of(src)
    dst_node = self.deployment.node_of(dst)
    if src_node == dst_node:
        return 0.0
    flow_id = edge_flow_id(self.dag.app, src, dst)
    rate = 0.0
    if self.netem.has_flow(flow_id):
        flow = self.netem.flow(flow_id)
        if flow.demand_mbps > 0:
            rate = flow.allocated_mbps
    try:
        if rate <= 0:
            # No live flow (or one silenced by a restart window): the
            # payload would ride whatever the path has spare.  Restart
            # stalls themselves are charged by the caller, not here.
            rate = self.netem.path_available_bandwidth(src_node, dst_node)
        rate = max(rate, 0.01)  # a starved edge still trickles
        return payload_mbit / rate + self.netem.path_delay_s(
            src_node, dst_node
        )
    except RoutingError:
        # No route at all: the payload never arrives.
        return float("inf")


def oracle_request_latency_s(
    self: SocialNetworkApp,
    request_type: str,
    binding: DeploymentBinding,
    rng: Optional[np.random.Generator] = None,
) -> float:
    if request_type not in REQUEST_CHAINS:
        raise ConfigError(f"unknown request type {request_type!r}")
    deployment = binding.deployment
    netem = binding.netem
    now = netem.now
    latency_s = 0.0
    stalled: set[str] = set()
    for step in REQUEST_CHAINS[request_type]:
        jitter = 1.0
        if rng is not None and self.jitter_rel_std > 0:
            jitter = max(0.1, rng.normal(1.0, self.jitter_rel_std))
        latency_s += step.service_ms * jitter / 1000.0
        for service in (step.src, step.dst):
            if service in stalled:
                continue
            if not deployment.is_available(service, now):
                stalled.add(service)
                latency_s += max(
                    0.0, deployment.unavailable_until(service) - now
                )
        if deployment.node_of(step.src) != deployment.node_of(step.dst):
            latency_s += self.inter_node_overhead_ms / 1000.0
        payload_mbit = step.payload_kb * _KB_TO_MBIT
        latency_s += oracle_edge_transfer_time_s(
            binding, step.src, step.dst, payload_mbit
        )
    return latency_s


def oracle_sample_latencies_s(
    self: SocialNetworkApp,
    binding: DeploymentBinding,
    n: int,
    rng: np.random.Generator,
) -> list[float]:
    types = list(self.mix)
    weights = np.array([self.mix[t] for t in types])
    draws = rng.choice(len(types), size=n, p=weights / weights.sum())
    return [
        oracle_request_latency_s(self, types[i], binding, rng) for i in draws
    ]


def oracle_camera_sample_latency_s(
    self: CameraPipelineApp,
    binding: DeploymentBinding,
    rng: Optional[np.random.Generator] = None,
) -> float:
    profile = self.profile
    deployment = binding.deployment
    netem = binding.netem
    now = netem.now

    latency_s = 0.0
    for stage_ms in self._stage_times_ms():
        jitter = 1.0
        if rng is not None and profile.jitter_rel_std > 0:
            jitter = max(0.1, rng.normal(1.0, profile.jitter_rel_std))
        latency_s += stage_ms * jitter / 1000.0

    for src, dst, payload_field in self._CHAIN:
        for stage in (src, dst):
            if not deployment.is_available(stage, now):
                latency_s += max(
                    0.0, deployment.unavailable_until(stage) - now
                )
        payload_mbit = getattr(profile, payload_field)
        if deployment.node_of(src) != deployment.node_of(dst):
            latency_s += profile.per_hop_overhead_ms / 1000.0
        latency_s += oracle_edge_transfer_time_s(
            binding, src, dst, payload_mbit
        )
    return latency_s


def oracle_camera_sample_latencies_s(
    self: CameraPipelineApp,
    binding: DeploymentBinding,
    n: int,
    rng: Optional[np.random.Generator] = None,
) -> list[float]:
    return [oracle_camera_sample_latency_s(self, binding, rng) for _ in range(n)]


# -- worlds -------------------------------------------------------------------

WARMUP_S = 25.0


def _bind_all_local(env, app):
    """Every component on node1, bypassing the scheduler's resource fit."""
    dag = app.build_dag()
    deployment = Deployment(app.name)
    for component in dag.components:
        deployment.bind(component.name, "node1")
    binding = DeploymentBinding(dag, deployment, env.netem)
    binding.sync_flows()
    return binding


def _world(app, placement: str, *, seed: int = 7, throttle: bool = False):
    """``app`` on the seeded CityLab subset, run long enough for the
    traces to move and (when throttled) the queues to fill."""
    env = build_env(
        seed=seed,
        trace_duration_s=300.0,
        buffer_mbit=400.0,
        restart_seconds=8.0,
    )
    if placement == "all-local":
        binding = _bind_all_local(env, app)
    else:
        binding = deploy_app(
            env, app, placement, start_controller=False
        ).binding
    if throttle:
        for node in sorted(binding.deployment.nodes_used):
            set_node_egress_limit(env, node, 3.0)
    run_timeline(
        env, WARMUP_S, on_tick=lambda t: app.update_demands(binding, t)
    )
    return env, binding


def _social(placement: str, **kwargs):
    app = SocialNetworkApp(annotate_rps=50.0)
    env, binding = _world(app, placement, **kwargs)
    return app, env, binding


def _restart(env, binding, component: str) -> None:
    """Migrate ``component`` to another node; it is mid-restart now."""
    here = binding.deployment.node_of(component)
    there = next(
        n for n in ("node1", "node2", "node3", "node4") if n != here
    )
    binding.deployment.rebind(
        component, there, time=env.netem.now, restart_seconds=10.0
    )
    binding.sync_flows()


def _crash(env, binding, node: str) -> None:
    env.topology.set_node_up(node, False)
    env.netem.on_topology_change()
    binding.sync_flows()


def _busiest_remote_node(binding) -> str:
    """A worker other than the frontend's that hosts chain services."""
    deployment = binding.deployment
    home = deployment.node_of("nginx-frontend")
    hosted = [
        deployment.node_of(name)
        for name, _, _ in SERVICES
        if deployment.node_of(name) != home
    ]
    assert hosted, "placement is all-local; nothing to crash"
    return max(sorted(set(hosted)), key=hosted.count)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def assert_same_samples(app, binding, n, seed) -> list[float]:
    """``app.sample_latencies_s`` == its frozen loop: floats and stream."""
    oracle = {
        SocialNetworkApp: oracle_sample_latencies_s,
        CameraPipelineApp: oracle_camera_sample_latencies_s,
    }[type(app)]
    rng_old = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    expected = oracle(app, binding, n, rng_old)
    got = app.sample_latencies_s(binding, n, rng_new)
    assert bits(got) == bits(expected)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return got


SOCIAL_PLACEMENTS = ("all-local", "k3s", "bass-longest-path")
SAMPLE_SIZES = (1, 6, 50)


# -- social network -----------------------------------------------------------


class TestSocialEquivalence:
    @pytest.mark.parametrize("throttle", [False, True], ids=["open", "throttled"])
    @pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
    def test_sample_latencies_bit_equal(self, placement, throttle):
        app, env, binding = _social(placement, throttle=throttle)
        for n in SAMPLE_SIZES:
            got = assert_same_samples(app, binding, n, seed=100 + n)
            assert len(got) == n and all(np.isfinite(got))

    def test_throttle_actually_bites(self):
        """The throttled world is not the open one in disguise."""
        app, _, open_binding = _social("k3s")
        slow_app, _, slow_binding = _social("k3s", throttle=True)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        assert sum(slow_app.sample_latencies_s(slow_binding, 50, rng_b)) > sum(
            app.sample_latencies_s(open_binding, 50, rng_a)
        )

    @pytest.mark.parametrize("placement", ("k3s", "bass-longest-path"))
    def test_service_mid_restart(self, placement):
        """The stall is charged once per request, at the chain's first
        touch of the service, and silenced flows ride the path's spare."""
        app, env, binding = _social(placement)
        _restart(env, binding, "post-storage-service")
        assert not binding.deployment.is_available(
            "post-storage-service", env.netem.now
        )
        for n in SAMPLE_SIZES:
            assert_same_samples(app, binding, n, seed=200 + n)
        # Steps 2-4 of this chain touch post-storage; only step 2, the
        # first, carries the 10 s stall.
        table = app._fixed_addends("read_home_timeline", EdgeCosts(binding))
        assert [addends.count(10.0) for addends in table] == [0, 0, 1, 0, 0]

    @pytest.mark.parametrize("placement", ("k3s", "bass-longest-path"))
    def test_crashed_node_is_unroutable(self, placement):
        app, env, binding = _social(placement)
        _crash(env, binding, _busiest_remote_node(binding))
        assert binding.unroutable_edges
        got = assert_same_samples(app, binding, 50, seed=300)
        assert float("inf") in got
        for n in (1, 6):
            assert_same_samples(app, binding, n, seed=300 + n)

    @pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
    def test_no_jitter(self, placement):
        app, env, binding = _social(placement)
        app.jitter_rel_std = 0.0
        for n in SAMPLE_SIZES:
            assert_same_samples(app, binding, n, seed=400 + n)

    @pytest.mark.parametrize("request_type", sorted(REQUEST_CHAINS))
    @pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
    def test_request_latency_bit_equal(self, placement, request_type):
        app, env, binding = _social(placement, throttle=True)
        _restart(env, binding, "home-timeline-service")
        # rng=None: no jitter, no draws.
        assert bits([app.request_latency_s(request_type, binding)]) == bits(
            [oracle_request_latency_s(app, request_type, binding)]
        )
        rng_old, rng_new = np.random.default_rng(5), np.random.default_rng(5)
        assert bits(
            [app.request_latency_s(request_type, binding, rng_new)]
        ) == bits(
            [oracle_request_latency_s(app, request_type, binding, rng_old)]
        )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_custom_mix_draws_like_choice(self):
        """A lopsided, two-type mix: the precomputed CDF still makes the
        draws ``Generator.choice`` makes."""
        app = SocialNetworkApp(
            annotate_rps=50.0,
            mix={"compose_post": 0.7, "read_user_timeline": 0.3},
        )
        _, binding = _world(app, "k3s")
        for n in SAMPLE_SIZES:
            assert_same_samples(app, binding, n, seed=500 + n)

    def test_request_type_outside_the_mix_has_no_dag_edges(self):
        """Its steps are not edges of the deployed DAG, so they miss the
        binding's edge table and carry no flow: placement is resolved
        directly and the payload rides the path's spare bandwidth."""
        app = SocialNetworkApp(
            annotate_rps=50.0,
            mix={"compose_post": 0.7, "read_user_timeline": 0.3},
        )
        _, binding = _world(app, "k3s", throttle=True)
        assert ("nginx-frontend", "home-timeline-service") not in (
            binding.crossings()
        )
        rng_old, rng_new = np.random.default_rng(6), np.random.default_rng(6)
        assert bits(
            [app.request_latency_s("read_home_timeline", binding, rng_new)]
        ) == bits(
            [oracle_request_latency_s(app, "read_home_timeline", binding, rng_old)]
        )

    def test_empty_sample_draws_nothing(self):
        app, env, binding = _social("all-local")
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        assert app.sample_latencies_s(binding, 0, rng) == []
        assert rng.bit_generator.state == before

    def test_edge_transfer_time_matches_oracle(self):
        """The one-shot binding query is the table's answer too."""
        app, env, binding = _social("k3s", throttle=True)
        _restart(env, binding, "post-storage-service")
        costs = EdgeCosts(binding)
        for chain in REQUEST_CHAINS.values():
            for step in chain:
                for payload in (step.payload_kb * _KB_TO_MBIT, 0.0, -1.0):
                    expected = oracle_edge_transfer_time_s(
                        binding, step.src, step.dst, payload
                    )
                    assert bits(
                        [
                            binding.edge_transfer_time_s(
                                step.src, step.dst, payload
                            ),
                            costs.transfer_time_s(step.src, step.dst, payload),
                        ]
                    ) == bits([expected, expected])


# -- generated histories ------------------------------------------------------

RING = ("node1", "node2", "node3", "node4")
SERVICE_NAMES = tuple(name for name, _, _ in SERVICES)
SEEDS = st.integers(0, 2**32 - 1)

#: One step of a history; see :func:`_apply`.
OPERATIONS = st.one_of(
    st.tuples(
        st.just("rebind"),
        st.sampled_from(SERVICE_NAMES),
        st.integers(1, 3),
        st.sampled_from([2.0, 8.0, 30.0]),
    ),
    st.tuples(st.just("throttle"), st.sampled_from(RING), st.sampled_from([1.0, 3.0])),
    st.tuples(st.just("unthrottle"), st.sampled_from(RING)),
    st.tuples(st.just("crash"), st.sampled_from(RING)),
    st.tuples(st.just("reboot"), st.sampled_from(RING)),
    st.tuples(st.just("rps"), st.sampled_from([0.0, 10.0, 50.0, 120.0])),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("sample"), st.sampled_from([0, 1, 6, 50]), SEEDS, st.booleans()),
    st.tuples(
        st.just("request"),
        st.sampled_from(sorted(REQUEST_CHAINS)),
        st.one_of(st.none(), SEEDS),
        st.booleans(),
    ),
)

#: Every kind of step once, in an order that makes each one bite: a
#: restart window, a standing queue, a partition (node2 and node4 down
#: cut node3 off), silenced flows, and a reboot that heals it.
EVERY_KIND = [
    ("sample", 6, 1, True),
    ("rebind", "post-storage-service", 1, 30.0),
    ("sample", 50, 2, True),
    ("throttle", "node1", 1.0),
    ("step", 6),
    ("request", "compose_post", 3, True),
    ("crash", "node2"),
    ("crash", "node4"),
    ("sample", 50, 4, False),
    ("rps", 0.0),
    ("request", "read_home_timeline", None, True),
    ("reboot", "node2"),
    ("unthrottle", "node1"),
    ("step", 3),
    ("sample", 1, 5, True),
    ("sample", 0, 6, True),
]


def _ring_world(placement):
    """The social network on a four-node ring of 20 Mbps links, one
    node per service as ``placement`` lists them, armed on its engine."""
    topology = line_topology([20.0, 20.0, 20.0])
    topology.add_link("node4", "node1", capacity_mbps=20.0)
    netem = NetworkEmulator(topology, buffer_mbit=400.0)
    app = SocialNetworkApp(annotate_rps=50.0)
    deployment = Deployment(app.name)
    for service, node in zip(SERVICE_NAMES, placement):
        deployment.bind(service, node)
    binding = DeploymentBinding(app.build_dag(), deployment, netem)
    app.update_demands(binding, 0.0)
    netem.start()
    return app, binding


def _apply(app, binding, operation) -> None:
    """Run one step of a history; sample and request steps are checked
    against the oracle (floats and generator state)."""
    kind, *args = operation
    netem, deployment = binding.netem, binding.deployment
    topology = netem.topology
    if kind == "rebind":
        service, offset, restart_s = args
        here = RING.index(deployment.node_of(service))
        deployment.rebind(
            service,
            RING[(here + offset) % len(RING)],
            time=netem.now,
            restart_seconds=restart_s,
        )
        binding.sync_flows()
    elif kind in ("throttle", "unthrottle"):
        node = args[0]
        limit = args[1] if kind == "throttle" else None
        for peer in topology.neighbors(node):
            topology.link(node, peer).set_rate_limit(limit, src=node, dst=peer)
    elif kind in ("crash", "reboot"):
        topology.set_node_up(args[0], kind == "reboot")
        netem.on_topology_change()
        binding.sync_flows()
    elif kind == "rps":
        app.set_rps(args[0])
        app.update_demands(binding, netem.now)
    elif kind == "step":
        for _ in range(args[0]):
            app.update_demands(binding, netem.now)
            netem.engine.run_until(netem.now + 1.0)
    elif kind == "sample":
        n, seed, jitter = args
        app.jitter_rel_std = 0.10 if jitter else 0.0
        got = assert_same_samples(app, binding, n, seed)
        assert len(got) == n
    else:
        request_type, seed, jitter = args
        app.jitter_rel_std = 0.10 if jitter else 0.0
        if seed is None:
            got = app.request_latency_s(request_type, binding)
            expected = oracle_request_latency_s(app, request_type, binding)
        else:
            rng_old = np.random.default_rng(seed)
            rng_new = np.random.default_rng(seed)
            got = app.request_latency_s(request_type, binding, rng_new)
            expected = oracle_request_latency_s(
                app, request_type, binding, rng_old
            )
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert bits([got]) == bits([expected])


class TestGeneratedHistories:
    @given(
        placement=st.lists(
            st.sampled_from(RING), min_size=len(SERVICES), max_size=len(SERVICES)
        ),
        history=st.lists(OPERATIONS, min_size=1, max_size=14),
    )
    @example(
        placement=[RING[i % len(RING)] for i in range(len(SERVICES))],
        history=EVERY_KIND,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_call_along_a_history_matches_the_oracle(
        self, placement, history
    ):
        app, binding = _ring_world(placement)
        for operation in history:
            _apply(app, binding, operation)

    def test_the_every_kind_history_reaches_each_case(self):
        """The pinned history is not vacuous: it samples inside a
        restart window, behind a standing queue, across a partition
        (``inf``) and with every flow silenced."""
        app, binding = _ring_world([RING[i % len(RING)] for i in range(len(SERVICES))])
        netem = binding.netem
        seen = set()
        for operation in EVERY_KIND:
            _apply(app, binding, operation)
            if binding.deployment.restarting(netem.now):
                seen.add("restart")
            if any(
                netem.queue_delay_s(src, dst) > 0
                for src, dst, _ in netem.topology.iter_directed_links()
            ):
                seen.add("queue")
            if float("inf") in app.sample_latencies_s(
                binding, 6, np.random.default_rng(0)
            ):
                seen.add("inf")
            if app.current_rps == 0 and netem.flows:
                assert all(f.demand_mbps == 0 for f in netem.flows)
                seen.add("silenced")
        assert seen == {"restart", "queue", "inf", "silenced"}


# -- camera pipeline ----------------------------------------------------------

CAMERA_SIZES = (1, 20)


def _camera(placement: str, **kwargs):
    app = CameraPipelineApp(sampler_cpu=2.0, detector_cpu=4.0)
    env, binding = _world(app, placement, **kwargs)
    return app, env, binding


class TestCameraEquivalence:
    @pytest.mark.parametrize("throttle", [False, True], ids=["open", "throttled"])
    @pytest.mark.parametrize("placement", ("all-local", "k3s", "bass-bfs"))
    def test_sample_latencies_bit_equal(self, placement, throttle):
        app, env, binding = _camera(placement, throttle=throttle)
        for n in CAMERA_SIZES:
            assert_same_samples(app, binding, n, seed=600 + n)

    def test_stage_mid_restart_and_single_frame(self):
        app, env, binding = _camera("k3s")
        _restart(env, binding, "object-detector")
        for n in CAMERA_SIZES:
            assert_same_samples(app, binding, n, seed=700 + n)
        rng_old, rng_new = np.random.default_rng(8), np.random.default_rng(8)
        assert bits([app.sample_latency_s(binding, rng_new)]) == bits(
            [oracle_camera_sample_latency_s(app, binding, rng_old)]
        )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert bits([app.sample_latency_s(binding)]) == bits(
            [oracle_camera_sample_latency_s(app, binding)]
        )

    def test_crashed_node_is_unroutable(self):
        app, env, binding = _camera("k3s")
        deployment = binding.deployment
        victim = next(
            deployment.node_of(stage)
            for stage in ("frame-sampler", "object-detector", "image-listener")
            if deployment.node_of(stage) != deployment.node_of("camera-stream")
        )
        _crash(env, binding, victim)
        got = assert_same_samples(app, binding, 20, seed=800)
        assert got == [float("inf")] * 20

    def test_no_jitter_and_no_rng(self):
        app, env, binding = _camera("k3s", throttle=True)
        assert bits(app.sample_latencies_s(binding, 20)) == bits(
            oracle_camera_sample_latencies_s(app, binding, 20)
        )


# -- count gate ---------------------------------------------------------------


class CallCounter:
    """Counts calls to ``NAMES`` methods of the ``TARGET`` class."""

    TARGET: type
    NAMES: tuple[str, ...]

    def __init__(self, monkeypatch) -> None:
        self.calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            monkeypatch.setattr(
                self.TARGET, name, self._counted(name, getattr(self.TARGET, name))
            )

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class QueryCounter(CallCounter):
    """The emulator's scalar path/queue/capacity queries."""

    TARGET = NetworkEmulator
    NAMES = ("path_delay_s", "queue_delay_s", "capacity")


class DeploymentCounter(CallCounter):
    """The per-pod placement and availability lookups."""

    TARGET = Deployment
    NAMES = ("node_of", "is_available", "unavailable_until", "colocated")


def _inter_node_pairs(binding, request_types) -> set[tuple[str, str]]:
    node_of = binding.deployment.node_of
    return {
        (node_of(step.src), node_of(step.dst))
        for request_type in request_types
        for step in REQUEST_CHAINS[request_type]
        if node_of(step.src) != node_of(step.dst)
    }


class TestEmulatorQueryBudget:
    @pytest.mark.parametrize("placement", ("k3s", "bass-longest-path"))
    def test_one_path_delay_per_node_pair(self, placement, monkeypatch):
        self.check_budget(placement, False, monkeypatch)

    @pytest.mark.parametrize("placement", ("k3s", "bass-longest-path"))
    def test_capacity_is_read_under_a_standing_queue(self, placement, monkeypatch):
        """Egress throttled to 3 Mbps: queues stand, and only their hops
        are asked for a capacity."""
        self.check_budget(placement, True, monkeypatch)

    @staticmethod
    def check_budget(placement, throttle, monkeypatch):
        app, env, binding = _social(placement, throttle=throttle)
        # The types this seed draws, from an identical generator.
        types = list(app.mix)
        drawn = {
            types[i]
            for i in np.random.default_rng(42).choice(
                len(types), size=50, p=list(app.mix.values())
            )
        }
        pairs = _inter_node_pairs(binding, drawn)
        assert pairs, "placement has no inter-node step; the gate is vacuous"
        hops = sum(
            len(env.netem.router.path_link_keys(a, b)) for a, b in pairs
        )
        inter_node_steps = sum(
            1
            for request_type in drawn
            for step in REQUEST_CHAINS[request_type]
            if not binding.deployment.colocated(step.src, step.dst)
        )
        assert inter_node_steps > len(pairs)  # there is reuse to capture
        # Hops with a standing queue, counted once per pair crossing them.
        standing = sum(
            env.netem.queue_delay_s(*hop) > 0
            for a, b in pairs
            for hop in env.netem.router.path_link_keys(a, b)
        )
        if throttle:
            assert standing > 0, "no queue stands; the throttled case is vacuous"
        else:
            assert standing < hops  # some queue is empty: there is work to skip

        counter = QueryCounter(monkeypatch)
        app.sample_latencies_s(binding, 50, np.random.default_rng(42))
        assert 0 < counter.calls["path_delay_s"] <= len(pairs)
        # The walk reads the backlog row itself; every flow is live here,
        # so no edge falls back to probing the path's spare capacity:
        # capacity is read only under a standing queue.
        assert counter.calls["queue_delay_s"] == 0
        assert counter.calls["capacity"] == standing

    def test_camera_frames_share_one_lookup(self, monkeypatch):
        app, env, binding = _camera("k3s")
        node_of = binding.deployment.node_of
        pairs = {
            (node_of(src), node_of(dst))
            for src, dst, _ in app._CHAIN
            if node_of(src) != node_of(dst)
        }
        assert pairs
        counter = QueryCounter(monkeypatch)
        app.sample_latencies_s(binding, 20, np.random.default_rng(1))
        assert 0 < counter.calls["path_delay_s"] <= len(pairs)


class TestPlacementLookupBudget:
    @pytest.mark.parametrize("placement", SOCIAL_PLACEMENTS)
    def test_no_per_step_lookups_when_nobody_is_restarting(
        self, placement, monkeypatch
    ):
        """Co-located and inter-node steps alike: the chain walk reads
        the edge table, never ``node_of`` / ``is_available``."""
        app, env, binding = _social(placement)
        assert not binding.deployment.restarting(env.netem.now)
        app.sample_latencies_s(binding, 6, np.random.default_rng(1))  # table built
        counter = DeploymentCounter(monkeypatch)
        for seed in range(5):
            app.sample_latencies_s(binding, 50, np.random.default_rng(seed))
        app.update_demands(binding, env.netem.now)
        assert counter.calls == dict.fromkeys(DeploymentCounter.NAMES, 0)

    def test_restart_window_still_costs_no_per_step_lookups(self, monkeypatch):
        app, env, binding = _social("k3s")
        _restart(env, binding, "post-storage-service")
        counter = DeploymentCounter(monkeypatch)
        got = app.sample_latencies_s(binding, 50, np.random.default_rng(2))
        binding.sync_flows()
        assert min(got) > 9.0  # every chain touches the restarting pod
        assert counter.calls == dict.fromkeys(DeploymentCounter.NAMES, 0)

    def test_camera_chain_reads_the_table_too(self, monkeypatch):
        app, env, binding = _camera("k3s")
        app.sample_latencies_s(binding, 1, np.random.default_rng(1))
        counter = DeploymentCounter(monkeypatch)
        app.sample_latencies_s(binding, 20, np.random.default_rng(1))
        assert counter.calls == dict.fromkeys(DeploymentCounter.NAMES, 0)

    def test_undeployed_chain_service_still_raises_scheduling_error(self):
        """Where the per-step walk raised it: at the first step whose
        endpoint is gone — a request type that never touches the
        service is still priced."""
        app, env, binding = _social("k3s")
        binding.deployment.unbind("user-timeline-redis")
        for request_type in ("read_user_timeline", "compose_post"):
            with pytest.raises(SchedulingError) as new_error:
                app.request_latency_s(request_type, binding)
            with pytest.raises(SchedulingError) as old_error:
                oracle_request_latency_s(app, request_type, binding)
            assert str(new_error.value) == str(old_error.value)
        assert bits([app.request_latency_s("read_home_timeline", binding)]) == bits(
            [oracle_request_latency_s(app, "read_home_timeline", binding)]
        )


class TestCompiledChains:
    @staticmethod
    def count_compiles(monkeypatch) -> list[str]:
        compiled: list[str] = []
        compile_chain = SocialNetworkApp._compile

        def counted(request_type, crossings):
            compiled.append(request_type)
            return compile_chain(request_type, crossings)

        monkeypatch.setattr(SocialNetworkApp, "_compile", staticmethod(counted))
        return compiled

    def test_each_drawn_type_compiles_once_per_placement(self, monkeypatch):
        app, env, binding = _social("k3s")
        compiled = self.count_compiles(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(100):
            app.sample_latencies_s(binding, 6, rng)
            env.engine.run_until(env.netem.now + 1.0)
        assert sorted(compiled) == sorted(REQUEST_CHAINS)
        # A rebind hands out a new placement table: the next call
        # compiles again what it draws, once.
        _restart(env, binding, "post-storage-service")
        compiled.clear()
        for _ in range(3):
            app.sample_latencies_s(binding, 50, rng)
        assert sorted(compiled) == sorted(REQUEST_CHAINS)

    def test_a_failed_compile_is_not_kept(self, monkeypatch):
        app, env, binding = _social("k3s")
        binding.deployment.unbind("user-timeline-redis")
        compiled = self.count_compiles(monkeypatch)
        for _ in range(2):
            with pytest.raises(SchedulingError):
                app.request_latency_s("read_user_timeline", binding)
        assert compiled == ["read_user_timeline"] * 2

    def test_a_pickled_app_carries_no_compiled_chain(self):
        app, env, binding = _social("k3s")
        app.sample_latencies_s(binding, 50, np.random.default_rng(1))
        restored = pickle.loads(pickle.dumps(app))
        # It compiles again and samples the same floats.
        assert bits(
            restored.sample_latencies_s(binding, 50, np.random.default_rng(2))
        ) == bits(app.sample_latencies_s(binding, 50, np.random.default_rng(2)))
