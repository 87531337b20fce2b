"""Heartbeat failure detection: honest timing, no oracle."""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    NodeCrash,
    Partition,
    ProbeBlackout,
)
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator
from repro.obs.trace import Tracer
from repro.sim.engine import Engine

CONFIG = HeartbeatConfig(
    interval_s=5.0, suspect_after_misses=2, confirm_after_misses=4
)


def make_detector(events=(), *, config=CONFIG, tracer=None, nodes=4):
    netem = NetworkEmulator(
        full_mesh_topology(nodes), engine=Engine(), tick_s=1.0
    )
    injector = FaultInjector(FaultPlan(list(events)), netem, tracer=tracer)
    injector.install()
    detector = FailureDetector(
        netem, "node1", config=config, injector=injector, tracer=tracer
    )
    detector.start()
    return netem, injector, detector


class TestConfig:
    def test_confirm_before_suspect_rejected(self):
        with pytest.raises(SimulationError):
            HeartbeatConfig(
                suspect_after_misses=4, confirm_after_misses=2
            ).validate()

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            HeartbeatConfig(interval_s=0.0).validate()


class TestHealthyMesh:
    def test_no_suspicion_without_faults(self):
        netem, _, detector = make_detector()
        netem.engine.run_until(60.0)
        assert detector.suspected == set()
        assert detector.confirmed_dead == set()
        assert detector.beats_missed == 0
        # 3 monitored nodes (the observer watches everyone else),
        # one beat each per 5 s round.
        assert detector.monitored == ["node2", "node3", "node4"]
        assert detector.beats_sent == 3 * 12

    def test_heartbeat_flows_do_not_linger(self):
        netem, _, detector = make_detector(
            config=HeartbeatConfig(
                interval_s=5.0, demand_mbps=0.5, burst_s=0.2
            ),
        )
        netem.engine.run_until(31.0)
        assert detector.beats_sent > 0
        assert netem.flows == []


class TestCrashDetection:
    def test_suspect_then_confirm_with_measured_latency(self):
        # Crash at t=12; beats at 15/20 (suspect) and 25/30 (confirm).
        netem, _, detector = make_detector(
            [NodeCrash(at_s=12.0, node="node3")]
        )
        netem.engine.run_until(21.0)
        assert detector.suspected == {"node3"}
        assert detector.confirmed_dead == set()
        netem.engine.run_until(60.0)
        assert detector.confirmed_dead == {"node3"}
        # Ground truth (crash at 12) to confirmation (4th miss at 30).
        assert detector.detection_latency_s["node3"] == pytest.approx(18.0)

    def test_detection_is_heartbeat_paced(self):
        """Tighter heartbeats detect faster — the latency is real."""
        fast = HeartbeatConfig(
            interval_s=1.0, suspect_after_misses=2, confirm_after_misses=4
        )
        netem, _, detector = make_detector(
            [NodeCrash(at_s=12.0, node="node3")], config=fast
        )
        netem.engine.run_until(60.0)
        # The t=12 beat already misses (the crash fires first at equal
        # times), so the 4th miss lands at t=15: latency 3 s, not 18.
        assert detector.detection_latency_s["node3"] == pytest.approx(3.0)

    def test_reboot_marks_node_recovered(self):
        tracer = Tracer()
        netem, _, detector = make_detector(
            [NodeCrash(at_s=12.0, node="node3", reboot_after_s=30.0)],
            tracer=tracer,
        )
        netem.engine.run_until(60.0)
        assert detector.confirmed_dead == set()
        assert detector.suspected == set()
        recovered = [e for e in tracer.events if e.kind == "node.recovered"]
        assert [e.data["node"] for e in recovered] == ["node3"]

    def test_confirmed_callback_payload(self):
        tracer = Tracer()
        netem, _, detector = make_detector(
            [NodeCrash(at_s=12.0, node="node3")], tracer=tracer
        )
        calls = []
        detector.on_confirmed_dead(
            lambda node, cause, latency: calls.append((node, cause, latency))
        )
        netem.engine.run_until(60.0)
        assert len(calls) == 1
        node, cause, latency = calls[0]
        assert node == "node3"
        assert latency == pytest.approx(18.0)
        confirmed = [e for e in tracer.events if e.kind == "node.confirmed_dead"]
        assert [e.id for e in confirmed] == [cause]


class TestUnreachability:
    def test_partitioned_node_confirmed_dead(self):
        """A node the observer cannot route to is indistinguishable from
        a dead one — the detector says so."""
        netem, _, detector = make_detector(
            [Partition(at_s=12.0, group=("node4",))]
        )
        netem.engine.run_until(60.0)
        assert detector.confirmed_dead == {"node4"}
        assert netem.topology.is_node_up("node4")  # alive, unreachable

    def test_blackout_false_positive_then_resurrection(self):
        netem, _, detector = make_detector(
            [ProbeBlackout(at_s=12.0, node="node2", duration_s=25.0)]
        )
        netem.engine.run_until(36.0)
        assert "node2" in detector.confirmed_dead
        netem.engine.run_until(60.0)
        assert detector.confirmed_dead == set()
        # No ground-truth fault exists, so the latency was measured from
        # the first missed beat (15) to confirmation (30).
        assert detector.detection_latency_s["node2"] == pytest.approx(15.0)


class TestTraceCausality:
    def test_suspicion_cites_ground_truth_fault(self):
        tracer = Tracer()
        netem, _, detector = make_detector(
            [NodeCrash(at_s=12.0, node="node3")], tracer=tracer
        )
        netem.engine.run_until(60.0)
        by_kind = {e.kind: e for e in tracer.events}
        fault = by_kind["fault.injected"]
        suspected = by_kind["node.suspected"]
        confirmed = by_kind["node.confirmed_dead"]
        assert suspected.cause == fault.id
        assert confirmed.cause == suspected.id
        assert confirmed.data["detection_latency_s"] == pytest.approx(18.0)


class TestLifecycle:
    def test_stop_disarms_the_beat(self):
        netem, _, detector = make_detector()
        netem.engine.run_until(11.0)
        sent = detector.beats_sent
        detector.stop()
        netem.engine.run_until(60.0)
        assert detector.beats_sent == sent
