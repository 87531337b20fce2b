"""Quiet heartbeat rounds == the full per-node round, beat for beat.

A beat whose delivery inputs (topology version, nodes blacked out now)
equal the last full beat's re-applies that beat's outcome and visits
only the nodes that missed (``FailureDetector._quiet_beat``).  Here a
detector is held to a twin that forgets the kept outcome before every
beat, so every one of its beats runs the full round, along generated
histories on a five-node ring with a chord: crashes with and without
reboot (the observer's too), link failures and restores, partitions
and heals, probe blackouts opening and closing between beats, positive
heartbeat demand, a confirmation callback that crashes another node,
and a pickle round trip mid-history.  At every beat both sides must
agree on the miss counts, suspicion and confirmation sets, detection
latencies, beat counters, every trace event, the emulator's flow ids,
the heartbeat flow numbering and the callbacks' calls.

The pinned histories each need one part of the key or one guard: with
that part or guard gone, the kept outcome goes stale and the check
fails.
"""

import pickle
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    LinkDown,
    NodeCrash,
    Partition,
    ProbeBlackout,
)
from repro.mesh.routing import Router
from repro.mesh.topology import line_topology
from repro.net.netem import NetworkEmulator
from repro.obs.trace import Tracer
from repro.sim.derived import forget
from repro.sim.engine import Engine

NODES = ("node1", "node2", "node3", "node4", "node5")
OBSERVER = "node1"
LINKS = (
    ("node1", "node2"),
    ("node2", "node3"),
    ("node3", "node4"),
    ("node4", "node5"),
    ("node5", "node1"),
    ("node2", "node4"),
)
INTERVAL_S = 5.0
BEATS = 16


class FreshDetector(FailureDetector):
    """The reference: forgets the kept outcome before every beat, so
    each of its beats runs the full per-node round."""

    def beat(self) -> None:
        forget(self)
        super().beat()


class CrashOnConfirm:
    """``on_confirmed_dead`` hook: crash ``victim`` once ``trigger`` is
    confirmed dead (a class, not a closure, so the world pickles)."""

    def __init__(self, netem, trigger, victim, log):
        self.netem, self.trigger, self.victim, self.log = netem, trigger, victim, log

    def __call__(self, node, cause, latency):
        self.log.append(("confirmed", node, cause, latency))
        if node == self.trigger:
            self.netem.topology.set_node_up(self.victim, False)
            self.netem.on_topology_change()


class LogRecovered:
    def __init__(self, log):
        self.log = log

    def __call__(self, node):
        self.log.append(("recovered", node))


class World:
    """One emulator, injector, tracer and detector on the ring."""

    def __init__(self, events, config, hook, detector_cls):
        topology = line_topology([20.0] * 4)
        topology.add_link("node5", "node1", capacity_mbps=20.0)
        topology.add_link("node2", "node4", capacity_mbps=20.0)
        self.netem = NetworkEmulator(topology, engine=Engine(), tick_s=1.0)
        self.tracer = Tracer()
        self.injector = FaultInjector(FaultPlan(list(events)), self.netem, tracer=self.tracer)
        self.injector.install()
        self.detector = detector_cls(
            self.netem, OBSERVER, config=config, injector=self.injector, tracer=self.tracer
        )
        self.log = []
        trigger, victim = hook if hook is not None else (None, None)
        self.detector.on_confirmed_dead(CrashOnConfirm(self.netem, trigger, victim, self.log))
        self.detector.on_recovered(LogRecovered(self.log))
        self.netem.start()
        self.detector.start()

    def state(self):
        d = self.detector
        return {
            "misses": dict(d._misses),
            "suspected": set(d.suspected),
            "confirmed_dead": set(d.confirmed_dead),
            "latency": dict(d.detection_latency_s),
            "beats": (d.beats_sent, d.beats_missed),
            "events": list(self.tracer.events),
            "flows": [f.flow_id for f in self.netem.flows],
            "callbacks": list(self.log),
        }


def advance(worlds, t):
    """Run every world to ``t`` and require they end on the same
    heartbeat numbering (each emulator numbers its own flows)."""
    for world in worlds:
        world.netem.engine.run_until(t)
    ends = [world.netem._serials for world in worlds]
    assert ends[0] == ends[1], f"heartbeat numbering diverged by t={t}"


def check_history(events, thresholds, demand, hook, round_trip_at):
    suspect, confirm = thresholds
    config = HeartbeatConfig(
        interval_s=INTERVAL_S,
        suspect_after_misses=suspect,
        confirm_after_misses=confirm,
        demand_mbps=demand,
        burst_s=0.2,
    )
    kept = World(events, config, hook, FailureDetector)
    fresh = World(events, config, hook, FreshDetector)
    for k in range(1, BEATS + 1):
        t = k * INTERVAL_S
        advance([kept, fresh], t)
        assert kept.state() == fresh.state(), f"diverged at the beat at t={t}"
        if k == round_trip_at:
            kept = pickle.loads(pickle.dumps(kept))
            assert kept.detector._outcome is None
    return kept


times = st.integers(1, 150).map(lambda k: k * 0.5)
spans = st.integers(1, 60).map(lambda k: k * 0.5)
maybe_spans = st.none() | spans
node_crash = st.builds(
    NodeCrash, at_s=times, node=st.sampled_from(NODES), reboot_after_s=maybe_spans
)
link_down = st.builds(
    lambda at, link, restore: LinkDown(at_s=at, a=link[0], b=link[1], restore_after_s=restore),
    times,
    st.sampled_from(LINKS),
    maybe_spans,
)
partition = st.builds(
    Partition,
    at_s=times,
    group=st.sets(st.sampled_from(NODES), min_size=1, max_size=4).map(lambda g: tuple(sorted(g))),
    heal_after_s=maybe_spans,
)
blackout = st.builds(
    ProbeBlackout, at_s=times, node=st.sampled_from(NODES), duration_s=spans
)
histories = st.lists(st.one_of(node_crash, link_down, partition, blackout), max_size=6)
monitored = st.sampled_from(NODES[1:])


@given(
    events=histories,
    thresholds=st.sampled_from([(2, 4), (1, 2), (1, 1), (3, 3)]),
    demand=st.sampled_from([0.0, 0.0, 0.5]),
    hook=st.none() | st.tuples(monitored, monitored),
    round_trip_at=st.none() | st.integers(1, BEATS),
)
# A crash between beats: the version must be in the key.
@example(
    events=[NodeCrash(at_s=12.0, node="node3", reboot_after_s=20.0)],
    thresholds=(2, 4), demand=0.0, hook=None, round_trip_at=None,
)
# A blackout opening and closing between beats, no topology change:
# the blacked-out nodes must be in the key.
@example(
    events=[ProbeBlackout(at_s=12.0, node="node4", duration_s=25.0)],
    thresholds=(2, 4), demand=0.0, hook=None, round_trip_at=None,
)
# node5's fourth miss lands in a full beat (the chord fails at 27 s) and
# its confirmation crashes node2, already counted delivered: that
# outcome must not be kept.
@example(
    events=[NodeCrash(at_s=12.0, node="node5"), LinkDown(at_s=27.0, a="node2", b="node4")],
    thresholds=(2, 4), demand=0.0, hook=("node5", "node2"), round_trip_at=None,
)
# node3's confirmation inside a quiet beat crashes node5, later in the
# round: the rest of the round must see the crash.
@example(
    events=[NodeCrash(at_s=12.0, node="node3")],
    thresholds=(2, 4), demand=0.0, hook=("node3", "node5"), round_trip_at=None,
)
# Heartbeat flows on quiet beats: each delivered node still adds one.
@example(events=[], thresholds=(2, 4), demand=0.5, hook=None, round_trip_at=None)
# The observer crashes and reboots; a pickle round trip mid-outage.
@example(
    events=[NodeCrash(at_s=7.5, node=OBSERVER, reboot_after_s=30.0)],
    thresholds=(1, 2), demand=0.0, hook=None, round_trip_at=3,
)
@settings(max_examples=60, deadline=None)
def test_every_beat_along_a_history(events, thresholds, demand, hook, round_trip_at):
    check_history(events, thresholds, demand, hook, round_trip_at)


def test_quiet_beats_probe_no_node():
    """After one full beat, an unchanged mesh costs no route, up-check
    or blackout lookup per node — only the counters move."""
    world = World([], HeartbeatConfig(interval_s=INTERVAL_S), None, FailureDetector)
    world.netem.engine.run_until(INTERVAL_S)
    assert world.detector._outcome is not None
    with mock.patch.object(
        Router, "traceroute", autospec=True, side_effect=Router.traceroute
    ) as traceroute, mock.patch.object(
        world.injector, "in_blackout", wraps=world.injector.in_blackout
    ) as in_blackout:
        world.netem.engine.run_until(6 * INTERVAL_S)
    assert traceroute.call_count == 0
    assert in_blackout.call_count == 0
    assert world.detector.beats_sent == 6 * 4


def test_only_missing_nodes_are_visited_on_a_quiet_beat():
    world = World(
        [NodeCrash(at_s=2.0, node="node3")],
        HeartbeatConfig(interval_s=INTERVAL_S),
        None,
        FailureDetector,
    )
    world.netem.engine.run_until(INTERVAL_S)
    assert world.detector._outcome[1] == (1,)  # node3's position
    with mock.patch.object(
        world.detector, "_mark_missing", wraps=world.detector._mark_missing
    ) as mark_missing:
        world.netem.engine.run_until(2 * INTERVAL_S)
    assert [c.args[0] for c in mark_missing.call_args_list] == ["node3"]
    assert world.detector.suspected == {"node3"}
    assert (world.detector.beats_sent, world.detector.beats_missed) == (6, 2)


def test_positive_demand_never_keeps_an_outcome():
    config = HeartbeatConfig(interval_s=INTERVAL_S, demand_mbps=0.5)
    world = World([], config, None, FailureDetector)
    world.netem.engine.run_until(3 * INTERVAL_S)
    assert world.detector._outcome is None


def test_snapshot_payload_leaves_the_outcome_out():
    """Kept outcome or not, the detector pickles to the same bytes."""
    world = World([], HeartbeatConfig(interval_s=INTERVAL_S), None, FailureDetector)
    world.netem.engine.run_until(INTERVAL_S)
    kept = pickle.dumps(world.detector)
    forget(world.detector)
    assert pickle.dumps(world.detector) == kept
