"""Orchestrator failover: record the outage run's accounting.

The shapes (a deferred recovery, re-placement within 2 epochs of
resume, the goodput dip and its recovery) are the ``failover`` catalogue
row's claims, checked at full scale by the test suite.  This module only
writes the measured case to ``BENCH_failover.json`` at the repo root so
the trajectory is tracked across changes.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.failover import failover_outage

from _reporting import run_once

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_failover.json"


@pytest.mark.benchmark(group="failover")
def test_failover_outage_recovery(benchmark):
    """The outage run at the row's full sizing: suspend → defer →
    resume → drain, in-process."""
    result = run_once(benchmark, failover_outage, duration_s=240.0, seed=23)
    stats = result.goodput_stats
    case = {
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
    payload = {
        "schema": 1,
        "unit_note": "resume_epoch_gap and missed_epochs lower is "
        "better; goodput dip_min higher is better",
        "cases": {"direct": case},
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
