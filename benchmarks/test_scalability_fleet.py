"""Fleet scalability: the sharded control plane under 10x growth.

Sweeps ``tenants x regions`` from 1x1 to 10x4 over regional meshes
(dense neighbourhoods on a thin backbone ring) and checks the two
regionalization guarantees:

* **Per-link probe rate stays flat** — each region's monitor probes
  only its own slice, so growing the fleet adds links *and* probes in
  proportion; probes per intra-region link per hour at 10x4 stay within
  1.3x of the single-tenant, single-region baseline.
* **Decision latency stays flat** — regions plan independently (the
  recorded per-round latency is the max over regions plus arbiter
  resolution), so sharding keeps the per-round decision cost bounded as
  the fleet grows 10x.

A forced handoff-pressure cell exercises the two-phase cross-region
protocol end to end and audits the cluster ledger after the run; the
per-round ledger check audits every epoch in between.

Results are written to ``BENCH_fleet.json`` at the repo root (merged
per case, like ``BENCH_emulator.json``) so the trajectory is tracked
across PRs.
"""

import json
import statistics
from pathlib import Path

import pytest

from repro.config import BassConfig, FleetConfig
from repro.core.controlplane import check_cluster_ledger
from repro.experiments.common import build_env
from repro.experiments.fleet import FleetResult, fleet_mesh
from repro.mesh.topology import regional_mesh, regional_specs

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


def persist(results: dict[str, dict]) -> None:
    """Merge the measured cases into BENCH_fleet.json (partial runs
    refresh their cells without dropping the rest)."""
    payload = {
        "schema": 1,
        "unit_note": "probe_events_per_link_hour flat is better; "
        "decision_ms lower is better",
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


@pytest.mark.benchmark(group="scalability_fleet")
def test_fleet_probe_and_decision_flatness(benchmark):
    def run():
        return {
            (regions, tenants): fleet_mesh(
                regions=regions, tenants=tenants, duration_s=DURATION_S
            )
            for regions, tenants in GRID
        }

    results = run_once(benchmark, run)
    persist(
        {
            f"r{r}_t{t:02d}": case_payload(result)
            for (r, t), result in results.items()
        }
    )
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
    for regions, tenants in GRID[1:]:
        cell = results[(regions, tenants)]
        # Probe traffic per link must not grow with fleet size.
        assert (
            cell.probe_events_per_link_hour
            <= 1.3 * base.probe_events_per_link_hour
        )
        # Neither must the per-round decision latency (floored: the
        # absolute numbers are far below timer resolution).
        assert median_decision_s(cell) <= 1.3 * max(
            median_decision_s(base), DECISION_FLOOR_S
        )
    # Steady state: nobody congested, so nobody crossed a region.
    for result in results.values():
        assert result.cross_region_migrations == 0
        assert result.handoff_counts == {}


@pytest.mark.benchmark(group="scalability_fleet")
def test_fleet_handoff_pressure_and_ledger(benchmark):
    """The forced cross-region cell: region 0 packed and throttled, so
    escapes must travel the two-phase handoff; the cluster ledger is
    audited after the run (and every epoch during it)."""
    tenants = 2

    def run():
        topology = regional_mesh(2, 2, cpu_cores=float(tenants))
        fleet = FleetConfig(
            region_specs=regional_specs(2, 2), handoff_rtt_s=2.0
        )
        env = build_env(topology, seed=11, with_traces=False, fleet=fleet)
        result = fleet_mesh(
            regions=2,
            tenants=tenants,
            nodes_per_region=2,
            duration_s=180.0,
            pin_region=0,
            throttle_link_mbps=0.5,
            throttle_at_s=60.0,
            config=BassConfig().with_migration(
                cooldown_s=10.0, restart_seconds=5.0
            ),
            env=env,
        )
        check_cluster_ledger(env.cluster)
        return result

    result = run_once(benchmark, run)
    persist({"handoff_pressure": case_payload(result)})
    save_table(
        "scalability_fleet_handoff",
        ["tenants", "committed", "denied", "aborted", "latency_s"],
        [
            [
                result.tenants,
                result.committed_handoffs,
                result.handoff_counts.get("denied", 0),
                result.handoff_counts.get("aborted", 0),
                fmt(
                    statistics.median(result.handoff_latencies)
                    if result.handoff_latencies
                    else 0.0,
                    1,
                ),
            ]
        ],
        note="2x2-node regions, region 0 packed full and its intra link "
        "throttled to 0.5 Mbps at t=60 s",
    )
    # Every cross-region migration travelled the handoff protocol.
    assert result.committed_handoffs >= 1
    assert result.cross_region_migrations == result.committed_handoffs
    # Racing tenants exercise the denial path.
    assert result.handoff_counts.get("denied", 0) >= 1
