"""Orchestrator failover chaos: kill the control plane mid-run, restore
it (in-memory and through a real snapshot file), and measure what the
paper's orchestrator-as-a-flaky-box blind spot costs.

Two acceptance properties are pinned:

* **Deferred decisions drain fast** — the restored orchestrator issues
  its first re-placement within 2 fleet epochs of resuming (observed:
  the synchronous drain lands it at the resume instant, gap 0.0).
* **Restore is a no-op for results** — the ``via_restore`` run, which
  round-trips through a snapshot file mid-outage, produces the same
  deferral/recovery/goodput numbers as the uninterrupted-suspend run.

Results are written to ``BENCH_failover.json`` at the repo root (merged
per case, like ``BENCH_fleet.json``) so the trajectory is tracked
across PRs.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.failover import FailoverResult, failover_outage

from _reporting import fmt, run_once, save_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_failover.json"

DURATION_S = 240.0

#: Acceptance bound: resume → first re-placement, in fleet epochs.
MAX_RESUME_EPOCH_GAP = 2.0


def case_payload(result: FailoverResult) -> dict:
    stats = result.goodput_stats
    return {
        "duration_s": result.churn.duration_s,
        "kill_at_s": result.kill_at_s,
        "down_s": result.down_s,
        "resume_at_s": result.resume_at_s,
        "missed_epochs": result.missed_epochs,
        "deferred_recoveries": result.deferred_recoveries,
        "resume_epoch_gap": result.resume_epoch_gap,
        "recovered_pods": result.churn.recovered_pods,
        "detection_latency_s": result.churn.detection_latency_s,
        "goodput": {
            "pre_mean": stats.pre_mean,
            "dip_min": stats.dip_min,
            "post_mean": stats.post_mean,
            "time_to_recover_s": stats.time_to_recover_s,
        },
    }


def persist(results: dict[str, dict]) -> None:
    """Merge the measured cases into BENCH_failover.json (partial runs
    refresh their cells without dropping the rest)."""
    payload = {
        "schema": 1,
        "unit_note": "resume_epoch_gap and missed_epochs lower is "
        "better; goodput dip_min higher is better",
        "cases": {},
    }
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            payload["cases"] = previous.get("cases", {})
        except (json.JSONDecodeError, OSError):
            pass
    payload["cases"].update(results)
    payload["cases"] = dict(sorted(payload["cases"].items()))
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def assert_acceptance(result: FailoverResult) -> None:
    assert result.deferred_recoveries >= 1
    assert result.churn.recovered_pods >= 1
    assert result.resume_epoch_gap is not None
    assert result.resume_epoch_gap <= MAX_RESUME_EPOCH_GAP
    # The outage dented goodput; the drained recovery brought it back.
    stats = result.goodput_stats
    assert stats.dip_min < stats.pre_mean
    assert stats.recovered


@pytest.mark.benchmark(group="failover")
def test_failover_outage_recovery(benchmark):
    """The direct run: suspend → defer → resume → drain, in-process."""
    result = run_once(benchmark, failover_outage, duration_s=DURATION_S)
    persist({"direct": case_payload(result)})
    save_table(
        "failover_outage",  # failover.txt is the catalogue row's table
        [
            "kill_at_s",
            "down_s",
            "missed_epochs",
            "deferred",
            "resume_gap_epochs",
            "recovered",
            "goodput_dip",
            "recover_after_s",
        ],
        [
            [
                fmt(result.kill_at_s, 0),
                fmt(result.down_s, 0),
                result.missed_epochs,
                result.deferred_recoveries,
                fmt(result.resume_epoch_gap, 1),
                result.churn.recovered_pods,
                fmt(result.goodput_stats.dip_min, 2),
                fmt(result.goodput_stats.time_to_recover_s, 0),
            ]
        ],
        note="node2 crashes at t=70 s while the orchestrator is down "
        "60..105 s; its confirmation is deferred and drains on resume",
    )
    assert_acceptance(result)


@pytest.mark.benchmark(group="failover")
def test_failover_via_snapshot_restore_is_identical(benchmark):
    """The same outage, but round-tripped through a snapshot file
    mid-outage: the restored orchestrator must behave identically."""
    restored = run_once(
        benchmark, failover_outage, duration_s=DURATION_S, via_restore=True
    )
    persist({"via_restore": case_payload(restored)})
    assert_acceptance(restored)

    direct = failover_outage(duration_s=DURATION_S)
    assert case_payload(restored) == case_payload(direct)
    assert restored.churn.goodput == direct.churn.goodput
    assert [
        (a.time, a.component, a.from_node, a.to_node)
        for a in restored.churn.actions
    ] == [
        (a.time, a.component, a.from_node, a.to_node)
        for a in direct.churn.actions
    ]
