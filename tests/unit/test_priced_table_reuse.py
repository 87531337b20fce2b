"""Kept latency tables == a fresh pricing, call for call.

The social sampler keeps each request type's fixed-addend table across
calls (``SocialNetworkApp._tables``), keyed on the binding's crossings
table, the emulator's ``observation_key()`` and the hop overhead, and
never keeps one priced inside a restart stall or at a path's spare
bandwidth.  Here every call's tables are held to a from-scratch
``_fixed_addends`` pricing of an identical copy of the world, taken
just before the call, along generated histories on a ring whose link
capacities follow traces stepping every half second: throttle windows,
restart stalls, migrations, crashes with reroute, probe flows, ticks
at the same instant, half-second steps and checkpoint/restore round
trips.

The pinned histories each need one part of the key or one guard: with
that part or guard gone, their tables go stale and the check fails.
"""

import collections
import pickle
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.social import REQUEST_CHAINS, SERVICES, SocialNetworkApp
from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding, EdgeCosts
from repro.errors import RoutingError
from repro.mesh.topology import line_topology
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator
from tests.unit.test_apps_social_equivalence import (
    OPERATIONS,
    RING,
    SEEDS,
    SERVICE_NAMES,
    _apply,
    bits,
)

#: Capacity samples every 0.5 s (looping every 6 s), so whole and half
#: steps alike cross a boundary: at whole seconds, where the fluid
#: ticks, above a 50 rps load's busiest link (~21 Mbps) and below
#: 120 rps's; at the half seconds between, below both.
SAMPLES_MBPS = [44.0, 15.0, 52.0, 18.0, 40.0, 16.0, 60.0, 19.0, 47.0, 17.0, 56.0, 20.0]

ROUND_ROBIN = [RING[i % len(RING)] for i in range(len(SERVICES))]

_original_tables = SocialNetworkApp._tables


def _traced_ring(placement):
    """The social network on a four-node ring of traced links, one node
    per service as ``placement`` lists them, armed on its engine."""
    topology = line_topology([40.0, 40.0, 40.0])
    topology.add_link("node4", "node1", capacity_mbps=40.0)
    for shift, link in enumerate(topology.links):
        values = SAMPLES_MBPS[2 * shift :] + SAMPLES_MBPS[: 2 * shift]
        link.set_trace(BandwidthTrace([0.5 * k for k in range(len(values))], values))
    netem = NetworkEmulator(topology, buffer_mbit=400.0)
    app = SocialNetworkApp(annotate_rps=50.0)
    deployment = Deployment(app.name)
    for service, node in zip(SERVICE_NAMES, placement):
        deployment.bind(service, node)
    binding = DeploymentBinding(app.build_dag(), deployment, netem)
    app.update_demands(binding, 0.0)
    netem.start()
    return app, binding


def _table_bits(table):
    return [bits(addends) for addends in table]


class CheckedTables:
    """Patches ``_tables`` to check each call's tables against a fresh
    pricing of a copy of the world taken just before it, in the same
    type order with one shared ``EdgeCosts`` (as an uncached call
    prices), and counts the tables handed out again.  ``calls``
    records what each call started from: the key's parts, and whether
    the fresh pricing met a restart stall or priced at spare bandwidth.
    """

    def __init__(self) -> None:
        self.counts = collections.Counter()
        self.calls: list[dict] = []

    def __call__(self, app, request_types, binding):
        twin_app, twin_binding = pickle.loads(pickle.dumps((app, binding)))
        kept = dict(app._priced[2])
        call = {
            "crossings": binding.crossings(),
            "key": binding.netem.observation_key(),
            "overhead": app.inter_node_overhead_ms,
        }
        got = _original_tables(app, request_types, binding)
        costs = EdgeCosts(twin_binding)
        for request_type in dict.fromkeys(request_types):
            fresh = twin_app._fixed_addends(request_type, costs)
            assert _table_bits(got[request_type]) == _table_bits(fresh), (
                request_type,
                binding.netem.now,
            )
            reused = got[request_type] is kept.get(request_type)
            self.counts["reused" if reused else "priced"] += 1
        self.calls.append({**call, "stalls": bool(costs.stalls), "spare": costs.spare_priced})
        return got

    def patch(self):
        checked = self

        def _tables(app, request_types, binding):
            return checked(app, request_types, binding)

        return mock.patch.object(SocialNetworkApp, "_tables", _tables)


def _run(world, operation) -> None:
    """One step of a history on ``world`` (``[app, binding]``, replaced
    in place by a restore).  Samples and requests run the production
    path only: the checked ``_tables`` is the oracle."""
    app, binding = world
    netem = binding.netem
    kind, *args = operation
    if kind == "sample":
        n, seed, jitter = args
        app.jitter_rel_std = 0.10 if jitter else 0.0
        app.sample_latencies_s(binding, n, np.random.default_rng(seed))
    elif kind == "request":
        request_type, seed, jitter = args
        app.jitter_rel_std = 0.10 if jitter else 0.0
        rng = None if seed is None else np.random.default_rng(seed)
        app.request_latency_s(request_type, binding, rng)
    elif kind == "tick":
        netem.tick()  # a second fluid step at the same instant
    elif kind == "half":
        netem.engine.run_until(netem.now + 0.5)
    elif kind == "probe":
        src, dst, demand = args
        fid = f"probe:{src}->{dst}"
        if not netem.has_flow(fid) and src != dst:
            try:
                netem.add_flow(fid, src, dst, demand, tag="probe")
            except RoutingError:
                pass  # no route: nothing to probe
    elif kind == "unprobe":
        for flow in netem.flows:
            if flow.tag == "probe":
                netem.remove_flow(flow.flow_id)
    elif kind == "restore":
        world[:] = pickle.loads(pickle.dumps((app, binding)))
    elif kind == "overhead":
        app.inter_node_overhead_ms = args[0]
    elif kind == "demand":
        # Straight to the emulator, with no solve after it (a binding
        # sync would run one).
        for flow in netem.flows:
            if flow.tag == "app":
                netem.set_demand(flow.flow_id, flow.demand_mbps * args[0])
    else:
        _apply(app, binding, operation)


#: The social equivalence suite's steps (whose sample and request steps
#: run here without its frozen oracle), plus the ones that move a
#: single part of the observation key.
REUSE_OPERATIONS = st.one_of(
    OPERATIONS,
    st.just(("tick",)),
    st.just(("half",)),
    st.tuples(
        st.just("probe"),
        st.sampled_from(RING),
        st.sampled_from(RING),
        st.sampled_from([5.0, 30.0]),
    ),
    st.just(("unprobe",)),
    st.just(("restore",)),
    st.tuples(st.just("overhead"), st.sampled_from([5.0, 7.0])),
    st.tuples(st.just("demand"), st.sampled_from([0.0, 0.5])),
    st.tuples(st.just("sample"), st.sampled_from([1, 6, 50]), SEEDS, st.booleans()),
)

#: Between ticks the capacities drop; a re-sync at the same rate
#: solves again and cuts the rates, and nothing else moves.
NEEDS_ALLOCATION = [
    ("step", 2),
    ("half",),
    ("sample", 6, 1, True),
    ("rps", 50.0),
    ("sample", 6, 2, True),
]
#: A standing queue grows at a second tick at the same instant.
NEEDS_QUEUES = [
    ("throttle", "node1", 3.0),
    ("step", 2),
    ("sample", 6, 1, True),
    ("tick",),
    ("sample", 6, 2, True),
]
#: Every flow silenced before any solve: the same rates, now unused.
NEEDS_FLOWS = [
    ("step", 1),
    ("sample", 6, 1, True),
    ("demand", 0.0),
    ("sample", 6, 2, True),
]
#: A restarting cache co-located with its caller: the stall is charged
#: without crossing a silenced flow, and shrinks a second later.
NEEDS_STALL_GUARD = [
    ("rebind", "post-storage-memcached", 3, 30.0),
    ("step", 1),
    ("sample", 50, 1, True),
    ("step", 1),
    ("sample", 50, 2, True),
]
#: Silent flows price at the path's spare bandwidth, which follows the
#: traces while no rate or queue moves.
NEEDS_FALLBACK_GUARD = [
    ("rps", 0.0),
    ("step", 1),
    ("sample", 6, 1, True),
    ("step", 1),
    ("sample", 6, 2, True),
]
#: Under a standing queue a hop's delay reads its capacity, which moves
#: half a second later with no tick in between.
NEEDS_CLOCK = [
    ("rps", 120.0),
    ("step", 3),
    ("sample", 6, 1, True),
    ("half",),
    ("sample", 6, 2, True),
]
#: Migrations, a crash with reroute, probe flows and a restore, each
#: followed by calls that reuse.
EVERY_KIND = [
    ("sample", 50, 1, True),
    ("sample", 50, 2, True),
    ("probe", "node1", "node3", 30.0),
    ("step", 1),
    ("sample", 50, 3, True),
    ("rebind", "compose-post-service", 1, 2.0),
    ("step", 3),
    ("sample", 50, 4, True),
    ("crash", "node4"),
    ("step", 1),
    ("sample", 50, 5, True),
    ("restore",),
    ("sample", 50, 6, True),
    ("sample", 50, 7, True),
    ("unprobe",),
    ("reboot", "node4"),
    ("overhead", 7.0),
    ("request", "compose_post", 8, True),
    ("demand", 0.5),
    ("sample", 50, 10, True),
    ("step", 1),
    ("sample", 50, 9, True),
]
PINNED = {
    "allocation": NEEDS_ALLOCATION,
    "queues": NEEDS_QUEUES,
    "flows": NEEDS_FLOWS,
    "stall": NEEDS_STALL_GUARD,
    "fallback": NEEDS_FALLBACK_GUARD,
    "clock": NEEDS_CLOCK,
    "every kind": EVERY_KIND,
}


def _check(placement, history) -> CheckedTables:
    checked = CheckedTables()
    world = list(_traced_ring(placement))
    with checked.patch():
        for operation in history:
            _run(world, operation)
    return checked


#: ``observation_key()`` positions.
KEY_PARTS = ("allocation", "queues", "flows", "topology", "shaping", "clock")


class TestKeptTablesEqualAFreshPricing:
    @given(
        placement=st.lists(
            st.sampled_from(RING), min_size=len(SERVICES), max_size=len(SERVICES)
        ),
        history=st.lists(REUSE_OPERATIONS, min_size=1, max_size=16),
    )
    @example(placement=ROUND_ROBIN, history=NEEDS_ALLOCATION)
    @example(placement=ROUND_ROBIN, history=NEEDS_QUEUES)
    @example(placement=ROUND_ROBIN, history=NEEDS_FLOWS)
    @example(placement=ROUND_ROBIN, history=NEEDS_STALL_GUARD)
    @example(placement=ROUND_ROBIN, history=NEEDS_FALLBACK_GUARD)
    @example(placement=ROUND_ROBIN, history=NEEDS_CLOCK)
    @example(placement=ROUND_ROBIN, history=EVERY_KIND)
    @settings(max_examples=60, deadline=None)
    def test_every_call_along_a_history(self, placement, history):
        _check(placement, history)

    def test_pinned_histories_are_not_vacuous(self):
        """Between a pinned history's last two calls only its part of the
        key moves, or, for a guard, nothing does while the guarded
        pricing happens at both."""
        for part in ("allocation", "queues", "flows", "clock"):
            before, after = _check(ROUND_ROBIN, PINNED[part]).calls[-2:]
            assert before["crossings"] is after["crossings"], part
            assert before["overhead"] == after["overhead"], part
            moved = [
                name
                for name, old, new in zip(KEY_PARTS, before["key"], after["key"])
                if old != new
            ]
            assert moved == [part]
        for guard, reads in (("stall", "stalls"), ("fallback", "spare")):
            before, after = _check(ROUND_ROBIN, PINNED[guard]).calls[-2:]
            assert before["crossings"] is after["crossings"], guard
            assert before["key"] == after["key"], guard
            assert before[reads] and after[reads], guard
        counts = _check(ROUND_ROBIN, EVERY_KIND).counts
        assert counts["reused"] > 0 and counts["priced"] > 0

    def test_a_quiet_unchanged_world_reuses_every_table(self):
        """Back-to-back calls with nothing moved price nothing again."""
        counts = _check(
            ROUND_ROBIN, [("step", 1)] + [("sample", 50, seed, True) for seed in range(4)]
        ).counts
        assert counts["priced"] == len(REQUEST_CHAINS)
        assert counts["reused"] == 3 * len(REQUEST_CHAINS)
