"""Unit tests for run-report reconstruction from traces."""

import pytest

from repro.obs.report import (
    MigrationChain,
    cause_chain,
    migration_chains,
    recovery_chains,
    render_report,
)
from repro.obs.trace import TraceEvent, Tracer, read_trace


def sample_trace():
    """A minimal but complete causal story: probe -> ... -> restart."""
    tracer = Tracer()
    tracer.emit("run.start", 0.0, seed=0)
    probe = tracer.emit(
        "probe.headroom", 30.0, app="socialnet",
        src="node2", dst="node1",
        capacity_mbps=25.0, available_mbps=1.0, required_mbps=5.0,
        headroom_ok=False,
    )
    violation = tracer.emit(
        "violation.detected", 30.0, app="socialnet", cause=probe,
        component="sfu", dependency="db", goodput=0.2, utilization=0.9,
        severity=1.5,
    )
    plan = tracer.emit(
        "epoch.plan", 30.0, app="socialnet", epoch=1, cause=violation,
        candidates=["sfu"], violations=1,
    )
    selected = tracer.emit(
        "migration.selected", 30.0, app="socialnet", cause=plan,
        component="sfu", to="node3", restart_s=8.0, **{"from": "node2"},
    )
    tracer.emit(
        "migration.deflected", 30.0, app="socialnet", cause=plan,
        component="other", preferred="node4", granted="node5",
    )
    tracer.emit(
        "restart", 30.0, app="socialnet", cause=selected,
        component="sfu", to="node3", restart_s=8.0, **{"from": "node2"},
    )
    return tracer.events


class TestCauseChain:
    def test_walks_to_root(self):
        events = sample_trace()
        by_id = {e.id: e for e in events}
        selected = next(e for e in events if e.kind == "migration.selected")
        kinds = [e.kind for e in cause_chain(by_id, selected)]
        assert kinds == [
            "migration.selected", "epoch.plan", "violation.detected",
            "probe.headroom",
        ]

    def test_broken_reference_terminates(self):
        event = TraceEvent(id=5, kind="restart", time=1.0, cause=99)
        assert cause_chain({5: event}, event) == [event]

    def test_cycle_terminates(self):
        a = TraceEvent(id=1, kind="epoch.plan", time=0.0, cause=2)
        b = TraceEvent(id=2, kind="violation.detected", time=0.0, cause=1)
        chain = cause_chain({1: a, 2: b}, a)
        assert [e.id for e in chain] == [1, 2]


class TestMigrationChains:
    def test_complete_chain_reconstructed(self):
        chains = migration_chains(sample_trace())
        assert len(chains) == 1
        chain = chains[0]
        assert chain.complete
        assert chain.probe.kind == "probe.headroom"
        assert chain.violation.data["component"] == "sfu"
        assert chain.plan.epoch == 1
        assert chain.restart.data["to"] == "node3"
        assert len(chain.deflections) == 1

    def test_missing_restart_is_incomplete(self):
        events = [e for e in sample_trace() if e.kind != "restart"]
        chains = migration_chains(events)
        assert len(chains) == 1
        assert chains[0].restart is None
        assert not chains[0].complete

    def test_no_migrations(self):
        assert migration_chains(sample_trace()[:2]) == []

    def test_empty(self):
        assert migration_chains([]) == []


class TestRenderReport:
    def test_empty_trace(self):
        assert render_report([]) == "(empty trace)"

    def test_full_report_mentions_chain(self):
        text = render_report(sample_trace())
        assert "migrations: 1" in text
        assert "restart" in text
        assert "violation" in text
        assert "probe" in text
        assert "deflected" in text
        assert "!! incomplete cause chain" not in text

    def test_incomplete_chain_is_flagged(self):
        events = [e for e in sample_trace() if e.kind != "restart"]
        assert "!! incomplete cause chain" in render_report(events)

    def test_statistics_section(self):
        text = render_report(sample_trace())
        assert "probes: 0 full, 1 headroom" in text
        assert "violations: 1 detected" in text
        assert "restart seconds: p50=8.00" in text


class TestDegradedProbes:
    """The report reads link utilization through the helper the
    instruments use, so it degrades on the inputs they degrade on."""

    def _report(self, **data):
        tracer = Tracer.with_instruments()
        tracer.emit("probe.headroom", 1.0, capacity_mbps=10.0, available_mbps=5.0)
        tracer.emit("probe.headroom", 2.0, src="a", dst="b", **data)
        histogram = tracer.instruments.registry.histogram(
            "bass_link_utilization",
            buckets=(0.1, 0.25, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0),
        )
        return render_report(tracer.events), (histogram.count, histogram.sum)

    def test_missing_available_mbps_reads_as_a_full_link(self):
        text, observed = self._report(capacity_mbps=25.0)  # was a KeyError
        assert observed == (2, 1.5)  # utilizations 0.5 and 1.0
        assert "probes: 0 full, 2 headroom" in text
        assert text.count("| 1") == 2  # one sample in each of two bins

    def test_null_capacity_is_left_out(self):
        text, observed = self._report(capacity_mbps=None)  # was a TypeError
        assert observed == (1, 0.5)
        assert "probed link-utilization histogram:" in text

    def test_a_trace_line_with_null_data_does_not_reach_the_report(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"id": 1, "kind": "placement.bound", "t": 0.0, "data": null}\n'
            '{"id": 2, "kind": "restart", "t": 1.0, "data": {"restart_s": 2.0}}\n'
        )
        with pytest.warns(UserWarning, match="trace.jsonl:1"):
            events = read_trace(path)  # the report used to die on event 1
        assert "restart seconds: p50=2.00" in render_report(events)


class TestRecoveryChains:
    def test_chain_reconstructed_from_a_plain_event_list(self):
        tracer = Tracer()
        fault = tracer.emit("fault.injected", 10.0, fault="node_crash")
        suspected = tracer.emit("node.suspected", 16.0, cause=fault)
        dead = tracer.emit("node.confirmed_dead", 22.0, cause=suspected)
        plan = tracer.emit("recovery.plan", 22.0, cause=dead, pods=["a", "b"])
        tracer.emit("restart", 22.0, cause=plan, component="a")
        tracer.emit("recovery.deflected", 22.0, cause=plan, component="b")
        tracer.emit("restart", 23.0, component="unrelated")
        (chain,) = recovery_chains(tracer.events)
        assert (chain.fault.id, chain.suspected.id, chain.confirmed.id) == (
            fault, suspected, dead
        )
        assert [e.data["component"] for e in chain.restarts] == ["a"]
        assert len(chain.deflections) == 1 and chain.complete
        stranded = tracer.emit("recovery.failed", 24.0, cause=plan)
        (chain,) = recovery_chains(tracer.events)
        assert [e.id for e in chain.failures] == [stranded]
        assert not chain.complete


class TestMigrationChainDataclass:
    def test_complete_requires_all_links(self):
        selected = TraceEvent(id=1, kind="migration.selected", time=0.0)
        assert not MigrationChain(selected=selected).complete


class TestTickProfileSection:
    def test_profile_event_renders_phase_and_solver_lines(self):
        tracer = Tracer()
        tracer.emit("run.start", 0.0, seed=0)
        tracer.emit(
            "profile.tick_phases", 300.0,
            ticks=300,
            phase_seconds={
                "capacity_scan": 0.3, "bookkeeping": 0.15, "solve": 0.9,
            },
            solver={
                "full_solves": 1, "partial_solves": 12,
                "components_resolved": 25, "components": 4,
            },
        )
        report = render_report(tracer.events)
        assert "tick profile @300.0s — 300 emulator tick(s)" in report
        assert "solve" in report
        assert "ms/tick" in report
        assert "12 partial" in report
        assert "25 component(s) re-solved of 4" in report

    def test_last_profile_event_wins(self):
        tracer = Tracer()
        for time, ticks in ((10.0, 10), (20.0, 20)):
            tracer.emit(
                "profile.tick_phases", time,
                ticks=ticks, phase_seconds={"solve": 0.1}, solver={},
            )
        report = render_report(tracer.events)
        assert "tick profile @20.0s — 20 emulator tick(s)" in report
        assert "@10.0s" not in report

    def test_no_profile_event_no_section(self):
        assert "tick profile" not in render_report(sample_trace())
