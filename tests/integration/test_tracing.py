"""End-to-end flight-recorder tests.

The tentpole guarantee: a traced run must let the report reconstruct
EVERY migration with its full cause chain — the goodput/headroom sample
that started it, the threshold breach, the epoch plan, and the restart —
and every crash recovery with its own, from the injected fault to the
restart.
"""

import pytest

from repro.cli import main
from repro.experiments.churn import churn_recovery
from repro.obs.report import migration_chains, recovery_chains, render_report
from repro.obs.trace import Tracer, read_trace, resolve_tracer


@pytest.fixture(scope="module")
def traced_fig13(tmp_path_factory):
    """One traced quick fig13 run via the real CLI path."""
    path = tmp_path_factory.mktemp("trace") / "fig13.jsonl"
    assert main(["run", "fig13", "--quick", "--trace", str(path)]) == 0
    return read_trace(path)


class TestTracedRun:
    def test_cli_restores_default_tracer(self, traced_fig13):
        assert not resolve_tracer(None).enabled

    def test_trace_covers_the_decision_pipeline(self, traced_fig13):
        kinds = {event.kind for event in traced_fig13}
        assert {
            "run.start",
            "placement.plan",
            "placement.decision",
            "placement.bound",
            "probe.max_capacity",
            "probe.headroom",
            "violation.detected",
            "epoch.plan",
            "migration.selected",
            "restart",
        } <= kinds

    def test_migrations_happened(self, traced_fig13):
        # fig13 --quick with a 30 s interval migrates several components;
        # a trace with none would make the chain assertions vacuous.
        assert len(migration_chains(traced_fig13)) >= 2

    def test_every_migration_has_a_complete_cause_chain(self, traced_fig13):
        chains = migration_chains(traced_fig13)
        for chain in chains:
            assert chain.complete, (
                f"migration of {chain.selected.data.get('component')} at "
                f"t={chain.selected.time} is missing part of its cause "
                f"chain: probe={chain.probe} violation={chain.violation} "
                f"plan={chain.plan} restart={chain.restart}"
            )
            # The chain is causally ordered: no link postdates its effect.
            assert chain.probe.time <= chain.violation.time
            assert chain.violation.time <= chain.plan.time
            assert chain.plan.time <= chain.selected.time
            assert chain.selected.time <= chain.restart.time

    def test_every_restart_traces_back_to_a_selection(self, traced_fig13):
        by_id = {event.id: event for event in traced_fig13}
        restarts = [e for e in traced_fig13 if e.kind == "restart"]
        assert restarts
        for restart in restarts:
            assert restart.cause is not None
            cause = by_id[restart.cause]
            assert cause.kind == "migration.selected"
            assert cause.data["component"] == restart.data["component"]
            assert cause.data["to"] == restart.data["to"]

    def test_selected_count_matches_restart_count(self, traced_fig13):
        selected = [e for e in traced_fig13 if e.kind == "migration.selected"]
        restarts = [e for e in traced_fig13 if e.kind == "restart"]
        aborted = [e for e in traced_fig13 if e.kind == "migration.aborted"]
        assert len(selected) == len(restarts) + len(aborted)

    def test_events_carry_time_app_epoch(self, traced_fig13):
        for event in traced_fig13:
            assert event.time >= 0.0
            if event.kind in ("violation.detected", "epoch.plan",
                              "migration.selected"):
                assert event.app is not None
                assert event.epoch is not None

    def test_report_command_renders_chains(self, traced_fig13,
                                           tmp_path, capsys):
        path = tmp_path / "again.jsonl"
        assert main(["run", "fig13", "--quick", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder report" in out
        assert "migrations:" in out
        assert "restart" in out and "violation" in out and "probe" in out
        assert "!! incomplete cause chain" not in out

    def test_untraced_run_emits_nothing(self, capsys):
        before = resolve_tracer(None)
        assert main(["run", "fig13", "--quick"]) == 0
        assert resolve_tracer(None) is before
        assert not resolve_tracer(None).enabled


def test_trace_reconstructs_the_recovery_cause_chain():
    """A real crash run: ``fault.injected -> node.suspected ->
    node.confirmed_dead -> recovery.plan -> restart``, the recovery
    metric set derived from the stream, and the rendered report."""
    tracer = Tracer.with_instruments()
    result = churn_recovery(
        duration_s=240.0, crash_at_s=60.0, seed=23, tracer=tracer
    )
    assert result.recovered_pods == 1

    chains = recovery_chains(tracer.events)
    assert len(chains) == 1
    chain = chains[0]
    assert chain.complete
    assert chain.fault.kind == "fault.injected"
    assert chain.suspected.cause == chain.fault.id
    assert chain.confirmed.cause == chain.suspected.id
    assert chain.plan.cause == chain.confirmed.id
    assert chain.restarts[0].cause == chain.plan.id

    registry = tracer.instruments.registry
    assert registry.counter("bass_recoveries_total").value == 1.0
    assert registry.counter("bass_node_failures_detected_total").value == 1.0
    latency = registry.histogram("bass_detection_latency_seconds")
    assert latency.count == 1
    assert latency.sum == pytest.approx(result.detection_latency_s)

    report = render_report(tracer.events)
    assert "recoveries: 1" in report
    assert "fault.injected" in report
    assert "detection latency" in report
