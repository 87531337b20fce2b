"""The experiment catalogue: every runnable scenario, declared once.

:data:`CATALOG` is a plain tuple of frozen :class:`Experiment` rows and
the source of truth for what ``bass-repro`` can do.  ``run`` (batch and
single-cell/checkpoint mode), ``serve`` and ``list`` all read it, and
so do the checkpoint tests; nothing else in the tree knows an
experiment by name.  A row carries the id, the one-line description,
how to run it, and whichever optional *parts* the experiment has.  Its
capabilities are which parts are present, never a separate flag:

* ``specs`` + ``render`` — every row has these: ``specs`` builds the
  :class:`~repro.runner.SweepSpec` grids of cells the driver hands to
  ``run_sweep`` (a single-configuration figure is a one-cell grid),
  ``render`` turns the outcomes into the :class:`Table`.
* ``checkpoint`` — checkpointable (``[checkpoint]``): the label (a
  template over the row's sizing) of the ``@checkpointable`` cell of
  the row's own grids that single-cell mode builds as a
  :class:`~repro.experiments.common.RunCapsule` to stop, snapshot,
  restore and profile — so restore determinism is checked on a run
  the figures make, and its result is the one the sweep records.
* ``serve`` — servable (``[serve]``): the keyword arguments ``bass-repro
  serve`` overrides on the checkpoint cell (``{}`` serves it as is).
* ``regions`` — the default region count, present only on rows whose
  grids take ``--regions`` (``[regions]``).

``specs`` is called with ``**row.sizing(quick, regions)``: ``quick``
— the ``--quick`` sizing lives here, next to the full one — plus
``regions`` on rows that declare it.  This module is not imported by
``repro.experiments`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from ..config import BassConfig
from ..metrics.summary import p50
from ..runner import SweepOutcome, SweepSpec
from ..runner.worker import resolve_cell_function
from .common import RunCapsule
from . import (
    ablations,
    churn,
    failover,
    fleet,
    migration,
    motivation,
    multi_tenant,
    overheads,
    static_placement,
    thresholds,
)


@dataclass(frozen=True)
class Table:
    """What one experiment prints: a table and an optional closing line."""

    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    note: str = ""


@dataclass(frozen=True)
class Experiment:
    """One catalogue row; see the module docstring for the parts."""

    id: str
    description: str
    specs: Callable[..., tuple[SweepSpec, ...]]
    render: Callable[..., Table]
    checkpoint: Optional[str] = None
    serve: Optional[Mapping[str, Any]] = None
    regions: Optional[int] = None

    def sizing(self, quick: bool, regions: Optional[int] = None) -> dict:
        """What ``specs`` takes: ``quick``, plus ``regions`` on rows
        that declare a default (which ``None`` resolves to)."""
        if self.regions is None:
            return {"quick": quick}
        chosen = self.regions if regions is None else regions
        return {"quick": quick, "regions": chosen}

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The ``list`` tags, derived from which parts are present."""
        parts = {
            "regions": self.regions,
            "checkpoint": self.checkpoint,
            "serve": self.serve,
        }
        return tuple(tag for tag, part in parts.items() if part is not None)

    def checkpoint_cell(
        self, quick: bool, regions: Optional[int] = None
    ) -> tuple[SweepSpec, int]:
        """The grid holding the ``checkpoint`` cell and its index there
        (the first match: ``--regions 1`` repeats fleet's 1-region cell)."""
        sizing = self.sizing(quick, regions)
        label = self.checkpoint.format(**sizing)
        return next(
            (spec, index)
            for spec in self.specs(**sizing)
            for index, cell in enumerate(spec.cells)
            if cell.label == label
        )

    def capsule_for(
        self, quick: bool, regions: Optional[int] = None, **overrides: Any
    ) -> RunCapsule:
        """The ``checkpoint`` cell's run, built with the sweep's kwargs
        plus ``overrides`` and not yet ticked, stamped with the row id
        (restores look the row up by it)."""
        spec, index = self.checkpoint_cell(quick, regions)
        cell = resolve_cell_function(spec.cells[index].fn)
        capsule = cell.capsule(**spec.resolved_kwargs(index), **overrides)
        capsule.scenario = self.id
        return capsule


def _or(value: Optional[float], missing: str, spec: str = ".0f") -> str:
    """A table cell for an optional number: formatted (``spec=""`` is
    plain ``str``), or ``missing``."""
    return missing if value is None else format(value, spec)


# -- spec builders and row renderers ------------------------------------------
#
# ``_x_specs(quick)`` sizes the row's grids; ``_x_table(*outcomes)``
# renders them.


def _one_cell(name: str, fn, **fixed) -> tuple[SweepSpec, ...]:
    """A single-configuration figure is a one-cell grid over the
    function it already is."""
    return (SweepSpec.grid(name, fn, fixed=fixed),)


def _fig2_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig2", motivation.fig2_bandwidth_variation,
                     duration_s=600.0 if quick else 3600.0)


def _fig2_table(outcome: SweepOutcome) -> Table:
    (links,) = outcome.results
    return Table(
        ["link", "mean_mbps", "rel_std"],
        [[l.label, f"{l.mean_mbps:.2f}", f"{l.rel_std:.2f}"] for l in links],
    )


def _fig4_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        motivation.fig4_pion_bottleneck.spec(
            participant_counts=(4, 8, 10, 12, 14) if quick else
            (4, 6, 8, 10, 11, 12, 13, 14),
            settle_s=30.0 if quick else 60.0,
        ),
    )


def _fig4_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["participants", "per_client_mbps", "loss"],
        [
            [p.participants, f"{p.per_client_mbps:.2f}",
             f"{p.loss_fraction:.3f}"]
            for p in outcome.results
        ],
    )


def _fig5_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig5", motivation.fig5_socialnet_throttle,
                     total_s=200.0 if quick else 360.0,
                     throttle_start_s=60.0 if quick else 120.0)


def _fig5_table(outcome: SweepOutcome) -> Table:
    (series,) = outcome.results
    phases = zip(("before", "during", "after"), series.phase_means())
    return Table(
        ["phase", "mean_latency_s"],
        [[phase, f"{mean:.2f}"] for phase, mean in phases],
    )


def _fig8_specs(quick: bool) -> tuple[SweepSpec, ...]:
    trimmed = dict(drop_time_s=60.0, second_drop_time_s=300.0, total_s=500.0)
    return _one_cell(
        "fig8", migration.fig8_migration_timeline, **(trimmed if quick else {})
    )


def _fig8_table(outcome: SweepOutcome) -> Table:
    (timeline,) = outcome.results
    rows = [["full probe", f"{t:.0f}", ""] for t in timeline.full_probe_times]
    rows += [
        ["migration", f"{m.time:.0f}",
         f"{m.pod_name}: {m.from_node} -> {m.to_node}"]
        for m in timeline.migrations
    ]
    return Table(
        ["event", "time_s", "detail"],
        sorted(rows, key=lambda r: float(r[1])),
    )


def _fig10_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.fig10_camera_static.spec(
            duration_s=40.0 if quick else 120.0
        ),
    )


def _fig10_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scheduler", "mean_ms", "chain_hops"],
        [
            [r.scheduler, f"{r.mean_latency_ms:.0f}", r.inter_node_chain_hops]
            for r in outcome.results
        ],
    )


def _fig11_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.fig11_socialnet_p99.spec(
            rates=(100.0, 300.0) if quick else (100.0, 200.0, 300.0),
            duration_s=60.0 if quick else 150.0,
        ),
    )


def _fig11_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scheduler", "rps", "restricted", "p99_s"],
        [
            [c.scheduler, int(c.rps), c.restricted, f"{c.p99_latency_s:.2f}"]
            for c in outcome.results
        ],
    )


def _fig12_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig12_video_query_interval.spec(
            intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
            total_s=160.0 if quick else 300.0,
            restrict_for_s=100.0 if quick else 180.0,
        ),
    )


def _fig12_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["interval_s", "migrations", "mean_mbps_during"],
        [
            [_or(s.interval_s, "none", ""), len(s.migrations),
             f"{s.mean_during(40.0, 100.0):.2f}"]
            for s in outcome.results
        ],
    )


def _fig13_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig13_socialnet_migration.spec(
            intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
            total_s=160.0 if quick else 300.0,
            restrict_for_s=120.0 if quick else 180.0,
        ),
    )


def _fig13_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["interval_s", "migrations", "mean_s_during", "p99_s"],
        [
            [_or(s.interval_s, "none", ""), len(s.migrations),
             f"{s.mean_during(30.0, 130.0):.2f}", f"{s.p99():.2f}"]
            for s in outcome.results
        ],
    )


def _table1_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("table1", migration.table1_migration_iterations,
                     total_s=200.0 if quick else 260.0)


def _table1_table(outcome: SweepOutcome) -> Table:
    (result,) = outcome.results
    return Table(["iteration", "over_quota", "migrated"], result.rows)


def _fig14a_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig14a", migration.fig14a_restart_cdf,
                     total_s=140.0 if quick else 240.0,
                     restart_at_s=70.0 if quick else 120.0)


def _fig14a_table(outcome: SweepOutcome) -> Table:
    baseline, restart = outcome.results[0].means()
    return Table(
        ["series", "mean_latency_s"],
        [["steady state", f"{baseline:.3f}"],
         ["during restart", f"{restart:.3f}"]],
    )


def _fig14b_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig14b_scheduler_cdf.spec(
            duration_s=400.0 if quick else 1200.0
        ),
    )


def _fig14b_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["configuration", "median_s", "p99_s", "migrations"],
        [
            [r.label, f"{r.median():.2f}", f"{r.p99():.2f}", r.migrations]
            for r in outcome.results
        ],
    )


def _fig15b_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig15b_video_thresholds.spec(
            thresholds=(None, 0.65) if quick else (None, 0.65, 0.85),
            duration_s=300.0 if quick else 600.0,
        ),
    )


def _fig15b_table(outcome: SweepOutcome) -> Table:
    nodes = ("node1", "node2", "node3", "node4")
    return Table(
        ["threshold", "migrations", *nodes],
        [
            [_or(r.threshold, "none", ""), r.migrations]
            + [f"{r.bitrate_by_node[n]:.2f}" for n in nodes]
            for r in outcome.results
        ],
    )


def _churn_specs(quick: bool) -> tuple[SweepSpec, ...]:
    duration = 160.0 if quick else 240.0
    shared = _one_cell(
        "churn-shared", churn.churn_recovery, tenants=2, duration_s=duration
    )
    return (churn.churn_comparison.spec(duration_s=duration), *shared)


def _churn_table(comparison: SweepOutcome, shared: SweepOutcome) -> Table:
    (both,) = shared.results
    return Table(
        ["mode", "detect_s", "recover_s", "pre_goodput", "dip",
         "post_goodput", "replaced"],
        [
            [
                r.label,
                _or(r.detection_latency_s, "-"),
                _or(r.time_to_recover_s, "never"),
                f"{r.goodput_stats.pre_mean:.2f}",
                f"{r.goodput_stats.dip_min:.2f}",
                f"{r.goodput_stats.post_mean:.2f}",
                r.recovered_pods,
            ]
            for r in comparison.results
        ],
        note=f"two tenants, one crash: {both.recovered_pods} pods "
        f"re-placed, {both.conflict_count} arbiter conflicts, "
        f"detection {both.detection_latency_s:.0f}s",
    )


def _fleet_specs(quick: bool, regions: int) -> tuple[SweepSpec, ...]:
    scaling = fleet.fleet_scaling_spec(
        region_counts=(1, regions), duration_s=120.0 if quick else 240.0
    )
    handoff = _one_cell("fleet-handoff", fleet.fleet_handoff,
                        duration_s=120.0 if quick else 180.0)
    return (scaling, *handoff)


def _fleet_table(scaling: SweepOutcome, handoff: SweepOutcome) -> Table:
    (pressure,) = handoff.results
    latencies = pressure.handoff_latencies or [0.0]
    return Table(
        ["regions", "tenants", "probes_per_link_hour",
         "median_decision_ms", "conflicts", "handoffs"],
        [
            [
                result.regions,
                result.tenants,
                f"{result.probe_events_per_link_hour:.1f}",
                f"{p50(result.decision_seconds or [0.0]) * 1e3:.3f}",
                result.conflict_count,
                result.committed_handoffs,
            ]
            for result in scaling.results
        ],
        note=f"handoff pressure (region 0 packed + throttled): "
        f"{pressure.handoff_counts.get('committed', 0)} committed @ "
        f"p50 {p50(latencies):.1f}s, "
        f"{pressure.handoff_counts.get('denied', 0)} denied, "
        f"{pressure.handoff_counts.get('aborted', 0)} aborted; "
        f"{pressure.cross_region_migrations} cross-region migration(s), "
        f"{pressure.conflict_count} arbiter conflict(s)",
    )


def _failover_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("failover", failover.failover_outage,
                     duration_s=180.0 if quick else 240.0)


def _failover_table(outcome: SweepOutcome) -> Table:
    (result,) = outcome.results
    stats = result.goodput_stats
    gap = result.resume_epoch_gap
    return Table(
        ["metric", "value"],
        [
            ["orchestrator killed at", f"{result.kill_at_s:.0f}s"],
            ["outage", f"{result.down_s:.0f}s"],
            ["epochs missed", result.missed_epochs],
            ["recoveries deferred", result.deferred_recoveries],
            ["resume -> first re-placement",
             "never" if gap is None else f"{gap:.1f} epochs"],
            ["pods re-placed", result.churn.recovered_pods],
            ["goodput pre-outage", f"{stats.pre_mean:.2f}"],
            ["goodput dip", f"{stats.dip_min:.2f}"],
            ["goodput post-recovery", f"{stats.post_mean:.2f}"],
            ["goodput recovered after",
             "never" if stats.time_to_recover_s is None
             else f"{stats.time_to_recover_s:.0f}s"],
        ],
    )


def _table2_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.table2_camera_mesh.spec(
            duration_s=300.0 if quick else 1200.0
        ),
    )


def _table2_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scenario", "scheduler", "median_ms", "migrations"],
        [
            [r.scenario, r.scheduler, f"{r.median_latency_ms:.0f}",
             r.migrations]
            for r in outcome.results
        ],
    )


def _table3_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("table3", overheads.table3_scheduling_latency,
                     trials=5 if quick else 20)


def _table3_table(outcome: SweepOutcome) -> Table:
    (rows,) = outcome.results
    return Table(
        ["application", "scheduler", "avg_ms_per_component"],
        [[r.app, r.scheduler, f"{r.avg_ms:.4f}"] for r in rows],
    )


def _table4_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell(
        "table4", overheads.table4_dag_processing, trials=10 if quick else 50
    )


def _table4_table(outcome: SweepOutcome) -> Table:
    (rows,) = outcome.results
    return Table(
        ["application", "components", "avg_ms"],
        [[r.app, r.components, f"{r.avg_ms:.3f}"] for r in rows],
    )


def _fig14cd_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        thresholds.fig14cd_sweep_spec(
            heuristics=("longest_path",) if quick else ("bfs", "longest_path"),
            thresholds=(0.25, 0.65, 0.95) if quick else
            (0.25, 0.50, 0.65, 0.75, 0.95),
            headrooms=(0.20,) if quick else (0.10, 0.20, 0.30),
            duration_s=200.0 if quick else 600.0,
        ),
    )


def _fig14cd_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["heuristic", "threshold", "headroom", "uq_s", "migrations"],
        [
            [c.heuristic, c.threshold, c.headroom,
             f"{c.upper_quartile_latency_s:.2f}", c.migrations]
            for c in outcome.results
        ],
    )


def _fig16_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        thresholds.fig16_sweep_spec(
            thresholds=(0.25, 0.75) if quick else (0.25, 0.50, 0.65, 0.75),
            duration_s=200.0 if quick else 600.0,
        ),
    )


def _fig16_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["threshold", "mean_s", "migrations"],
        [
            [c.threshold, f"{c.mean_latency_s:.2f}", c.migrations]
            for c in outcome.results
        ],
    )


def _multitenant_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        multi_tenant.multi_tenant_scaling_spec(
            tenant_counts=(1, 4) if quick else (1, 2, 4, 8),
            duration_s=120.0 if quick else 240.0,
        ),
        multi_tenant.contention_sweep_spec(
            tenant_counts=(2,) if quick else (4,),
            duration_s=140.0 if quick else 180.0,
        ),
    )


def _multitenant_table(
    scaling: SweepOutcome, contention: SweepOutcome
) -> Table:
    race = contention.results[0]
    return Table(
        ["tenants", "full_probes", "headroom_probes", "probes_per_hour",
         "migrations"],
        [
            [r.tenants, r.full_probes, r.headroom_probes,
             f"{r.probe_events_per_hour:.1f}", r.total_migrations]
            for r in scaling.results
        ],
        note=f"contention: {race.conflict_count} arbiter conflicts, "
        f"{race.total_migrations} migrations across "
        f"{race.epoch_count} epochs",
    )


def _churnsweep_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        churn.churn_seed_sweep_spec(
            seeds=tuple(range(3)) if quick else tuple(range(6)),
            settle_s=60.0 if quick else 120.0,
        ),
    )


def _churnsweep_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["seed", "crash_node", "crash_at_s", "detect_s", "recover_s",
         "replaced"],
        [
            [
                cell.seed,
                result.crash_node,
                f"{result.crash_at_s:.0f}",
                _or(result.detection_latency_s, "-"),
                _or(result.time_to_recover_s, "never"),
                result.recovered_pods,
            ]
            for cell, result in zip(outcome.spec.cells, outcome.results)
        ],
    )


def _ablations_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (ablations.ablation_grid_spec(quick=quick),)


def _ablations_table(outcome: SweepOutcome) -> Table:
    rows = []
    for cell, result in zip(outcome.spec.cells, outcome.results):
        if cell.label == "headroom_probing":
            summary = (
                f"overhead {result.headroom_overhead_fraction:.4%} headroom "
                f"vs {result.flooding_overhead_fraction:.2%} flooding"
            )
        elif cell.label == "cooldown":
            summary = ", ".join(
                f"{r.migrations} migrations @ cooldown {r.cooldown_s:.0f}s"
                for r in result
            )
        elif cell.label == "stability_guards":
            summary = (
                f"{result.guarded_migrations} migrations guarded vs "
                f"{result.unguarded_migrations} unguarded"
            )
        elif cell.label == "hybrid_heuristic":
            summary = ", ".join(
                f"{r.shape}/{r.heuristic}: {r.colocated_fraction:.0%}"
                for r in result
            )
        elif cell.label == "online_profiling":
            summary = (
                f"annotation error {result.initial_error:.2f} -> "
                f"{result.profiled_error:.2f} "
                f"({result.edges_updated} edges updated)"
            )
        else:  # routing_strategy
            summary = f"{len(result)} node pairs compared"
        rows.append([cell.label, summary])
    return Table(["ablation", "summary"], rows)


# -- the table ----------------------------------------------------------------

CATALOG: tuple[Experiment, ...] = (
    Experiment("fig2", "bandwidth variation on two CityLab links",
               _fig2_specs, _fig2_table),
    Experiment("fig4", "Pion bitrate/loss vs participants on a bottleneck",
               _fig4_specs, _fig4_table),
    Experiment("fig5", "social-network latency through a 25 Mbps throttle",
               _fig5_specs, _fig5_table),
    Experiment("fig8", "worked migration timeline", _fig8_specs, _fig8_table),
    Experiment("fig10", "camera latency per scheduler, unconstrained LAN",
               _fig10_specs, _fig10_table),
    Experiment("fig11", "social-network p99 vs RPS, ± one throttled node",
               _fig11_specs, _fig11_table),
    Experiment("fig12", "video bitrate vs bandwidth-query interval",
               _fig12_specs, _fig12_table),
    Experiment("fig13", "social-network latency vs monitoring interval",
               _fig13_specs, _fig13_table, checkpoint="interval=30.0",
               serve={}),
    Experiment("table1", "migration iterations: over-quota vs migrated",
               _table1_specs, _table1_table),
    Experiment("fig14a", "restart cost on end-to-end latency",
               _fig14a_specs, _fig14a_table),
    Experiment("fig14b", "scheduler comparison CDF on the emulated mesh",
               _fig14b_specs, _fig14b_table),
    Experiment("fig14cd", "threshold x headroom sweep, fixed arrivals",
               _fig14cd_specs, _fig14cd_table),
    Experiment("fig15b", "video bitrate by node vs migration threshold",
               _fig15b_specs, _fig15b_table),
    Experiment("fig16", "threshold sweep under exponential arrivals",
               _fig16_specs, _fig16_table),
    Experiment("multitenant",
               "probe sharing and migration arbitration at scale",
               _multitenant_specs, _multitenant_table),
    Experiment("fleet",
               "regionalized control plane: sharded schedulers, handoffs",
               _fleet_specs, _fleet_table, checkpoint="regions{regions}",
               regions=2),
    Experiment("churn", "node crash: detection latency and recovery vs k3s",
               _churn_specs, _churn_table, checkpoint="recovery=True",
               # Served with migrations on: headroom probes feed the
               # rolling windows (the cell freezes them).
               serve={"config": BassConfig()}),
    Experiment("failover",
               "orchestrator kill mid-run: deferred decisions, goodput dip",
               _failover_specs, _failover_table,
               checkpoint=""),  # the row's one, unlabelled cell
    Experiment("churnsweep", "randomized crash plans across seeds",
               _churnsweep_specs, _churnsweep_table),
    Experiment("ablations", "the design-choice ablation battery",
               _ablations_specs, _ablations_table),
    Experiment("table2", "camera median latency on the emulated mesh",
               _table2_specs, _table2_table),
    Experiment("table3", "per-component scheduling latency",
               _table3_specs, _table3_table),
    Experiment("table4", "DAG processing time per application",
               _table4_specs, _table4_table),
)

#: ``id -> row``; what ``repro.cli.EXPERIMENTS`` re-exports.
EXPERIMENTS: dict[str, Experiment] = {row.id: row for row in CATALOG}

