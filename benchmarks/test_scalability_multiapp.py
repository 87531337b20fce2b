"""Multi-tenant control-plane scalability.

Sweeps 1 → 8 co-deployed applications over one mesh path and checks
the two fleet-level guarantees:

* **Probe traffic stays flat** — with the shared monitor, probe events
  per hour at 4 tenants stay within 1.2x of a single tenant (each link
  is probed once per epoch no matter who uses it).  The no-sharing
  baseline is reported alongside to show the duplication it avoids.
* **Migrations never race** — under a contention event that puts every
  tenant in violation at once, the arbiter admits one claim per node
  per epoch, the rest are deflected (counted as conflicts), and the
  cluster ledger stays consistent throughout.
"""

from repro.core.controlplane import check_cluster_ledger
from repro.core.registry import get_scheduler, scheduler_names
from repro.experiments.common import build_env
from repro.experiments.multi_tenant import (
    contention_sweep_spec,
    multi_tenant_mesh,
    multi_tenant_scaling_spec,
)
from repro.runner import run_sweep

import pytest

from _reporting import fmt, run_once, save_table

TENANT_COUNTS = (1, 2, 4, 8)


@pytest.mark.benchmark(group="scalability")
def test_probe_rate_flat_across_tenants(benchmark):
    def run():
        shared_cells = run_sweep(
            multi_tenant_scaling_spec(
                tenant_counts=TENANT_COUNTS, duration_s=240.0
            )
        ).results
        private_cells = run_sweep(
            multi_tenant_scaling_spec(
                tenant_counts=(1, 4), duration_s=240.0, probe_sharing=False
            )
        ).results
        shared = {r.tenants: r for r in shared_cells}
        private = {r.tenants: r for r in private_cells}
        return shared, private

    shared, private = run_once(benchmark, run)
    save_table(
        "scalability_multiapp_probes",
        ["tenants", "shared_per_hour", "private_per_hour", "migrations"],
        [
            [
                n,
                fmt(shared[n].probe_events_per_hour, 1),
                fmt(private[n].probe_events_per_hour, 1)
                if n in private
                else "-",
                shared[n].total_migrations,
            ]
            for n in TENANT_COUNTS
        ],
        note="shared fleet monitor vs per-app monitors; 30 s epochs on "
        "the CityLab subset",
    )
    # The headline guarantee: four tenants cost (essentially) the same
    # probe traffic as one.
    assert (
        shared[4].probe_events_per_hour
        <= 1.2 * shared[1].probe_events_per_hour
    )
    # Probe sharing is what buys it: private monitors duplicate probes.
    assert (
        private[4].probe_events_per_hour
        > 1.5 * private[1].probe_events_per_hour
    )


@pytest.mark.benchmark(group="scalability")
def test_arbitration_under_contention(benchmark):
    def run():
        cells = run_sweep(
            contention_sweep_spec(
                tenant_counts=TENANT_COUNTS, duration_s=180.0
            )
        ).results
        return {r.tenants: r for r in cells}

    results = run_once(benchmark, run)
    save_table(
        "scalability_multiapp_conflicts",
        ["tenants", "conflicts", "migrations", "epochs"],
        [
            [
                n,
                results[n].conflict_count,
                results[n].total_migrations,
                results[n].epoch_count,
            ]
            for n in TENANT_COUNTS
        ],
        note="3 Mbps source-node throttle at t=60 s puts every tenant in "
        "violation simultaneously",
    )
    # One tenant has nobody to conflict with; crowds do.
    assert results[1].conflict_count == 0
    assert results[4].conflict_count > 0
    # Everybody that needed to escape eventually migrated somewhere.
    assert results[4].total_migrations >= 2


def test_ledger_consistent_throughout_contention():
    """The arbiter admits no over-quota allocation: the per-epoch ledger
    check (enabled by default) never fires during the run, and the final
    state passes an explicit audit."""
    from repro.config import BassConfig

    env = build_env(with_traces=False)
    multi_tenant_mesh(
        tenants=8,
        duration_s=180.0,
        throttle_mbps=3.0,
        config=BassConfig().with_migration(cooldown_s=10.0),
        env=env,
    )
    check_cluster_ledger(env.cluster)


def test_registry_resolves_every_legacy_name():
    for name in ("k3s", "bass-bfs", "bass-longest-path", "bass-hybrid"):
        assert name in scheduler_names()
        assert callable(get_scheduler(name))
