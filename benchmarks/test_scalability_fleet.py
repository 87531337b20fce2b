"""Fleet scalability: per-round decision latency under 10x growth.

Sweeps ``tenants x regions`` from 1x1 to 10x4 over regional meshes
(dense neighbourhoods on a thin backbone ring).  The deterministic
shapes (flat probes per link-hour, no handoff in steady state, the
forced handoff cell's commits and denials) are the ``fleet`` catalogue
row's claims, checked at full scale by the test suite.  What stays here
is wall-clock:

* **Decision latency stays flat** — regions plan independently (the
  recorded per-round latency is the max over regions plus arbiter
  resolution), so sharding keeps the per-round decision cost bounded as
  the fleet grows 10x.

Every case, the forced handoff cell included, is written to
``BENCH_fleet.json`` at the repo root so the trajectory is tracked
across changes.
"""

import json
import statistics
from pathlib import Path

import pytest

from repro.experiments.fleet import FleetResult, fleet_handoff, fleet_mesh

from _reporting import fmt, run_once, save_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: (regions, tenants) — the 10x scale-up the acceptance criteria track.
GRID = [(1, 1), (2, 5), (4, 10)]
DURATION_S = 240.0

#: Decision-latency floor for the flatness ratio: per-round decisions
#: are tens of microseconds here, far below timer resolution, so the
#: 1.3x bound is asserted against max(baseline, floor).
DECISION_FLOOR_S = 0.0005


def median_decision_s(result: FleetResult) -> float:
    if not result.decision_seconds:
        return 0.0
    return statistics.median(result.decision_seconds)


def case_payload(result: FleetResult) -> dict:
    decisions = sorted(result.decision_seconds)
    p95 = decisions[int(0.95 * (len(decisions) - 1))] if decisions else 0.0
    return {
        "regions": result.regions,
        "tenants": result.tenants,
        "duration_s": result.duration_s,
        "intra_region_links": result.intra_region_links,
        "probe_events_per_hour": result.probe_events_per_hour,
        "probe_events_per_link_hour": result.probe_events_per_link_hour,
        "decision_ms": {
            "median": median_decision_s(result) * 1e3,
            "p95": p95 * 1e3,
        },
        "epochs": result.epoch_count,
        "conflicts": result.conflict_count,
        "handoffs": result.handoff_counts,
        "cross_region_migrations": result.cross_region_migrations,
        "migrations": result.total_migrations,
    }


@pytest.mark.benchmark(group="scalability_fleet")
def test_fleet_decision_flatness(benchmark):
    def run():
        return {
            (regions, tenants): fleet_mesh(
                regions=regions, tenants=tenants, duration_s=DURATION_S
            )
            for regions, tenants in GRID
        }

    results = run_once(benchmark, run)
    cases = {
        f"r{r}_t{t:02d}": case_payload(result)
        for (r, t), result in results.items()
    }
    cases["handoff_pressure"] = case_payload(fleet_handoff(duration_s=180.0, seed=11))
    payload = {
        "schema": 1,
        "unit_note": "probe_events_per_link_hour flat is better; "
        "decision_ms lower is better",
        "cases": dict(sorted(cases.items())),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    save_table(
        "scalability_fleet",
        [
            "regions",
            "tenants",
            "links",
            "probes_per_link_hour",
            "median_decision_ms",
            "conflicts",
            "handoffs",
        ],
        [
            [
                r,
                t,
                result.intra_region_links,
                fmt(result.probe_events_per_link_hour, 1),
                fmt(median_decision_s(result) * 1e3, 3),
                result.conflict_count,
                sum(result.handoff_counts.values()),
            ]
            for (r, t), result in results.items()
        ],
        note="regional meshes (3-node neighbourhoods, backbone ring); "
        "decision latency = max over regions per round + arbiter",
    )
    base = results[GRID[0]]
    for cell in GRID[1:]:
        # The per-round decision latency must not grow with fleet size
        # (floored: the absolute numbers are far below timer resolution).
        assert median_decision_s(results[cell]) <= 1.3 * max(
            median_decision_s(base), DECISION_FLOOR_S
        )
