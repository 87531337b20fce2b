"""Command-line entry point: regenerate any paper experiment.

Usage::

    bass-repro list
    bass-repro run fig10 [--quick]
    bass-repro run fig13 --quick --trace run.jsonl
    bass-repro run fig14cd --jobs 4 --cache-dir .bass-cache
    bass-repro run fig14cd --jobs 2 --no-cache --out sweep.json
    bass-repro report run.jsonl
    bass-repro run table2

``--quick`` trims horizons so a laptop regenerates an experiment in
seconds (shape-accurate, noisier numbers).  ``--trace`` arms the flight
recorder for the run and writes the decision-event log as JSONL;
``report`` renders a saved trace as a human-readable causal timeline.

Sweep-shaped experiments (marked ``[sweep]`` in ``list``) additionally
accept ``--jobs N`` (``1`` runs the cells in this process; more fan
them over N warm worker processes through the work-stealing chunk
queue — see DESIGN.md "Parallel sweeps"), ``--cache-dir PATH`` (memoize
completed cells content-addressed on disk; workers share the store
directly), ``--no-cache``, and ``--out PATH`` (write the merged results
as canonical JSON — byte-identical across ``--jobs``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class SweepSettings:
    """How a sweep-shaped experiment should execute its cells."""

    jobs: int = 1
    cache: object = None  # Optional[repro.runner.ResultCache]


def _sweep_capable(run):
    """Mark a runner as accepting ``(quick, sweep)`` and returning its
    :class:`~repro.runner.SweepOutcome` list for ``--out`` / stats."""
    run.sweep_capable = True
    return run


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    materialized = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in materialized))
        if materialized
        else len(headers[i])
        for i in range(len(headers))
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    out.extend(
        "  ".join(c.ljust(widths[i]) for i, c in enumerate(row))
        for row in materialized
    )
    return "\n".join(out)


def _run_fig2(quick: bool) -> None:
    from .experiments.motivation import fig2_bandwidth_variation

    links = fig2_bandwidth_variation(duration_s=600.0 if quick else 3600.0)
    print(
        _table(
            ["link", "mean_mbps", "rel_std"],
            [
                [l.label, f"{l.mean_mbps:.2f}", f"{l.rel_std:.2f}"]
                for l in links
            ],
        )
    )


def _run_fig4(quick: bool) -> None:
    from .experiments.motivation import fig4_pion_bottleneck

    points = fig4_pion_bottleneck(
        participant_counts=(4, 8, 10, 12, 14) if quick else
        (4, 6, 8, 10, 11, 12, 13, 14),
        settle_s=30.0 if quick else 60.0,
    )
    print(
        _table(
            ["participants", "per_client_mbps", "loss"],
            [
                [p.participants, f"{p.per_client_mbps:.2f}",
                 f"{p.loss_fraction:.3f}"]
                for p in points
            ],
        )
    )


def _run_fig5(quick: bool) -> None:
    from .experiments.motivation import fig5_socialnet_throttle

    series = fig5_socialnet_throttle(total_s=200.0 if quick else 360.0,
                                     throttle_start_s=60.0 if quick else 120.0)
    before, during, after = series.phase_means()
    print(
        _table(
            ["phase", "mean_latency_s"],
            [["before", f"{before:.2f}"], ["during", f"{during:.2f}"],
             ["after", f"{after:.2f}"]],
        )
    )


def _run_fig8(quick: bool) -> None:
    from .experiments.migration import fig8_migration_timeline

    timeline = (
        fig8_migration_timeline(drop_time_s=60.0, second_drop_time_s=300.0,
                                total_s=500.0)
        if quick
        else fig8_migration_timeline()
    )
    rows = [["full probe", f"{t:.0f}", ""] for t in timeline.full_probe_times]
    rows += [
        ["migration", f"{m.time:.0f}", f"{m.pod_name}: {m.from_node} -> "
         f"{m.to_node}"]
        for m in timeline.migrations
    ]
    print(_table(["event", "time_s", "detail"], sorted(rows, key=lambda r: float(r[1]))))


def _run_fig10(quick: bool) -> None:
    from .experiments.static_placement import fig10_camera_static

    rows = fig10_camera_static(duration_s=40.0 if quick else 120.0)
    print(
        _table(
            ["scheduler", "mean_ms", "chain_hops"],
            [
                [r.scheduler, f"{r.mean_latency_ms:.0f}",
                 r.inter_node_chain_hops]
                for r in rows
            ],
        )
    )


def _run_fig11(quick: bool) -> None:
    from .experiments.static_placement import fig11_socialnet_p99

    cells = fig11_socialnet_p99(
        rates=(100.0, 300.0) if quick else (100.0, 200.0, 300.0),
        duration_s=60.0 if quick else 150.0,
    )
    print(
        _table(
            ["scheduler", "rps", "restricted", "p99_s"],
            [
                [c.scheduler, int(c.rps), c.restricted,
                 f"{c.p99_latency_s:.2f}"]
                for c in cells
            ],
        )
    )


def _run_fig12(quick: bool) -> None:
    from .experiments.migration import fig12_video_query_interval

    series = fig12_video_query_interval(
        intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
        total_s=160.0 if quick else 300.0,
        restrict_for_s=100.0 if quick else 180.0,
    )
    print(
        _table(
            ["interval_s", "migrations", "mean_mbps_during"],
            [
                [
                    s.interval_s if s.interval_s is not None else "none",
                    len(s.migrations),
                    f"{s.mean_during(40.0, 100.0):.2f}",
                ]
                for s in series
            ],
        )
    )


def _run_fig13(quick: bool) -> None:
    from .experiments.migration import fig13_socialnet_migration

    series = fig13_socialnet_migration(
        intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
        total_s=160.0 if quick else 300.0,
        restrict_for_s=120.0 if quick else 180.0,
    )
    print(
        _table(
            ["interval_s", "migrations", "mean_s_during", "p99_s"],
            [
                [
                    s.interval_s if s.interval_s is not None else "none",
                    len(s.migrations),
                    f"{s.mean_during(30.0, 130.0):.2f}",
                    f"{s.p99():.2f}",
                ]
                for s in series
            ],
        )
    )


def _run_table1(quick: bool) -> None:
    from .experiments.migration import table1_migration_iterations

    result = table1_migration_iterations(total_s=200.0 if quick else 260.0)
    print(
        _table(
            ["iteration", "over_quota", "migrated"],
            [[i, o, m] for i, o, m in result.rows],
        )
    )


def _run_fig14a(quick: bool) -> None:
    from .experiments.migration import fig14a_restart_cdf

    result = fig14a_restart_cdf(
        total_s=140.0 if quick else 240.0,
        restart_at_s=70.0 if quick else 120.0,
    )
    baseline, restart = result.means()
    print(
        _table(
            ["series", "mean_latency_s"],
            [["steady state", f"{baseline:.3f}"],
             ["during restart", f"{restart:.3f}"]],
        )
    )


def _run_fig14b(quick: bool) -> None:
    from .experiments.migration import fig14b_scheduler_cdf

    results = fig14b_scheduler_cdf(duration_s=400.0 if quick else 1200.0)
    print(
        _table(
            ["configuration", "median_s", "p99_s", "migrations"],
            [
                [r.label, f"{r.median():.2f}", f"{r.p99():.2f}", r.migrations]
                for r in results
            ],
        )
    )


@_sweep_capable
def _run_fig14cd(quick: bool, sweep: SweepSettings):
    from .experiments.thresholds import fig14cd_sweep_spec
    from .runner import run_sweep

    spec = fig14cd_sweep_spec(
        heuristics=("longest_path",) if quick else ("bfs", "longest_path"),
        thresholds=(0.25, 0.65, 0.95) if quick else
        (0.25, 0.50, 0.65, 0.75, 0.95),
        headrooms=(0.20,) if quick else (0.10, 0.20, 0.30),
        duration_s=200.0 if quick else 600.0,
    )
    outcome = run_sweep(spec, jobs=sweep.jobs, cache=sweep.cache)
    print(
        _table(
            ["heuristic", "threshold", "headroom", "uq_s", "migrations"],
            [
                [c.heuristic, c.threshold, c.headroom,
                 f"{c.upper_quartile_latency_s:.2f}", c.migrations]
                for c in outcome.results
            ],
        )
    )
    return [outcome]


def _run_fig15b(quick: bool) -> None:
    from .experiments.migration import fig15b_video_thresholds

    results = fig15b_video_thresholds(
        thresholds=(None, 0.65) if quick else (None, 0.65, 0.85),
        duration_s=300.0 if quick else 600.0,
    )
    print(
        _table(
            ["threshold", "migrations", "node1", "node2", "node3", "node4"],
            [
                [
                    r.threshold if r.threshold is not None else "none",
                    r.migrations,
                ]
                + [f"{r.bitrate_by_node[n]:.2f}" for n in
                   ("node1", "node2", "node3", "node4")]
                for r in results
            ],
        )
    )


@_sweep_capable
def _run_fig16(quick: bool, sweep: SweepSettings):
    from .experiments.thresholds import fig16_sweep_spec
    from .runner import run_sweep

    spec = fig16_sweep_spec(
        thresholds=(0.25, 0.75) if quick else (0.25, 0.50, 0.65, 0.75),
        duration_s=200.0 if quick else 600.0,
    )
    outcome = run_sweep(spec, jobs=sweep.jobs, cache=sweep.cache)
    print(
        _table(
            ["threshold", "mean_s", "migrations"],
            [
                [c.threshold, f"{c.mean_latency_s:.2f}", c.migrations]
                for c in outcome.results
            ],
        )
    )
    return [outcome]


@_sweep_capable
def _run_multitenant(quick: bool, sweep: SweepSettings):
    from .experiments.multi_tenant import (
        contention_sweep_spec,
        multi_tenant_scaling_spec,
    )
    from .runner import run_sweep

    scaling = run_sweep(
        multi_tenant_scaling_spec(
            tenant_counts=(1, 4) if quick else (1, 2, 4, 8),
            duration_s=120.0 if quick else 240.0,
        ),
        jobs=sweep.jobs,
        cache=sweep.cache,
    )
    print(
        _table(
            ["tenants", "full_probes", "headroom_probes", "probes_per_hour",
             "migrations"],
            [
                [
                    result.tenants,
                    result.full_probes,
                    result.headroom_probes,
                    f"{result.probe_events_per_hour:.1f}",
                    result.total_migrations,
                ]
                for result in scaling.results
            ],
        )
    )
    contention_outcome = run_sweep(
        contention_sweep_spec(
            tenant_counts=(2,) if quick else (4,),
            duration_s=140.0 if quick else 180.0,
        ),
        jobs=sweep.jobs,
        cache=sweep.cache,
    )
    contention = contention_outcome.results[0]
    print(
        f"\ncontention: {contention.conflict_count} arbiter conflicts, "
        f"{contention.total_migrations} migrations across "
        f"{contention.epoch_count} epochs"
    )
    return [scaling, contention_outcome]


def _run_churn(quick: bool) -> None:
    from .experiments.churn import churn_comparison, churn_recovery

    duration = 160.0 if quick else 240.0
    results = churn_comparison(duration_s=duration)
    rows = []
    for r in results:
        rows.append(
            [
                r.label,
                f"{r.detection_latency_s:.0f}"
                if r.detection_latency_s is not None
                else "-",
                f"{r.time_to_recover_s:.0f}"
                if r.time_to_recover_s is not None
                else "never",
                f"{r.goodput_stats.pre_mean:.2f}",
                f"{r.goodput_stats.dip_min:.2f}",
                f"{r.goodput_stats.post_mean:.2f}",
                r.recovered_pods,
            ]
        )
    print(
        _table(
            ["mode", "detect_s", "recover_s", "pre_goodput", "dip",
             "post_goodput", "replaced"],
            rows,
        )
    )
    shared = churn_recovery(tenants=2, duration_s=duration)
    print(
        f"\ntwo tenants, one crash: {shared.recovered_pods} pods "
        f"re-placed, {shared.conflict_count} arbiter conflicts, "
        f"detection {shared.detection_latency_s:.0f}s"
    )


@_sweep_capable
def _run_ablations(quick: bool, sweep: SweepSettings):
    from .experiments.ablations import ablation_grid_spec
    from .runner import run_sweep

    spec = ablation_grid_spec(quick=quick)
    outcome = run_sweep(spec, jobs=sweep.jobs, cache=sweep.cache)
    rows = []
    for cell, result in zip(spec.cells, outcome.results):
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
    print(_table(["ablation", "summary"], rows))
    return [outcome]


@_sweep_capable
def _run_churnsweep(quick: bool, sweep: SweepSettings):
    from .experiments.churn import churn_seed_sweep_spec
    from .runner import run_sweep

    spec = churn_seed_sweep_spec(
        seeds=tuple(range(3)) if quick else tuple(range(6)),
        settle_s=60.0 if quick else 120.0,
    )
    outcome = run_sweep(spec, jobs=sweep.jobs, cache=sweep.cache)
    print(
        _table(
            ["seed", "crash_node", "crash_at_s", "detect_s", "recover_s",
             "replaced"],
            [
                [
                    cell.seed,
                    result.crash_node,
                    f"{result.crash_at_s:.0f}",
                    f"{result.detection_latency_s:.0f}"
                    if result.detection_latency_s is not None
                    else "-",
                    f"{result.time_to_recover_s:.0f}"
                    if result.time_to_recover_s is not None
                    else "never",
                    result.recovered_pods,
                ]
                for cell, result in zip(spec.cells, outcome.results)
            ],
        )
    )
    return [outcome]


def _regions_capable(run):
    """Mark a runner as accepting the ``--regions N`` flag."""
    run.regions_capable = True
    return run


@_regions_capable
def _run_fleet(quick: bool, regions: int = 2) -> None:
    from .experiments.fleet import fleet_handoff, fleet_mesh
    from .metrics.summary import p50

    duration = 120.0 if quick else 240.0
    rows = []
    for n_regions, tenants in ((1, 2), (regions, 2 * regions)):
        result = fleet_mesh(
            regions=n_regions, tenants=tenants, duration_s=duration
        )
        decisions = result.decision_seconds or [0.0]
        rows.append(
            [
                n_regions,
                tenants,
                f"{result.probe_events_per_link_hour:.1f}",
                f"{p50(decisions) * 1e3:.3f}",
                result.conflict_count,
                result.committed_handoffs,
            ]
        )
    print(
        _table(
            ["regions", "tenants", "probes_per_link_hour",
             "median_decision_ms", "conflicts", "handoffs"],
            rows,
        )
    )
    pressure = fleet_handoff(duration_s=120.0 if quick else 180.0)
    latencies = pressure.handoff_latencies or [0.0]
    print(
        f"\nhandoff pressure (region 0 packed + throttled): "
        f"{pressure.handoff_counts.get('committed', 0)} committed @ "
        f"p50 {p50(latencies):.1f}s, "
        f"{pressure.handoff_counts.get('denied', 0)} denied, "
        f"{pressure.handoff_counts.get('aborted', 0)} aborted; "
        f"{pressure.cross_region_migrations} cross-region migration(s), "
        f"{pressure.conflict_count} arbiter conflict(s)"
    )


def _run_failover(quick: bool) -> None:
    from .experiments.failover import failover_outage

    result = failover_outage(duration_s=180.0 if quick else 240.0)
    stats = result.goodput_stats
    print(
        _table(
            ["metric", "value"],
            [
                ["orchestrator killed at", f"{result.kill_at_s:.0f}s"],
                ["outage", f"{result.down_s:.0f}s"],
                ["epochs missed", result.missed_epochs],
                ["recoveries deferred", result.deferred_recoveries],
                [
                    "resume -> first re-placement",
                    f"{result.resume_epoch_gap:.1f} epochs"
                    if result.resume_epoch_gap is not None
                    else "never",
                ],
                ["pods re-placed", result.churn.recovered_pods],
                ["goodput pre-outage", f"{stats.pre_mean:.2f}"],
                ["goodput dip", f"{stats.dip_min:.2f}"],
                ["goodput post-recovery", f"{stats.post_mean:.2f}"],
                [
                    "goodput recovered after",
                    f"{stats.time_to_recover_s:.0f}s"
                    if stats.time_to_recover_s is not None
                    else "never",
                ],
            ],
        )
    )


def _run_table2(quick: bool) -> None:
    from .experiments.static_placement import table2_camera_mesh

    rows = table2_camera_mesh(duration_s=300.0 if quick else 1200.0)
    print(
        _table(
            ["scenario", "scheduler", "median_ms", "migrations"],
            [
                [r.scenario, r.scheduler, f"{r.median_latency_ms:.0f}",
                 r.migrations]
                for r in rows
            ],
        )
    )


def _run_table3(quick: bool) -> None:
    from .experiments.overheads import table3_scheduling_latency

    rows = table3_scheduling_latency(trials=5 if quick else 20)
    print(
        _table(
            ["application", "scheduler", "avg_ms_per_component"],
            [[r.app, r.scheduler, f"{r.avg_ms:.4f}"] for r in rows],
        )
    )


def _run_table4(quick: bool) -> None:
    from .experiments.overheads import table4_dag_processing

    rows = table4_dag_processing(trials=10 if quick else 50)
    print(
        _table(
            ["application", "components", "avg_ms"],
            [[r.app, r.components, f"{r.avg_ms:.3f}"] for r in rows],
        )
    )


EXPERIMENTS: dict[str, tuple[str, Callable[..., object]]] = {
    "fig2": ("bandwidth variation on two CityLab links", _run_fig2),
    "fig4": ("Pion bitrate/loss vs participants on a bottleneck", _run_fig4),
    "fig5": ("social-network latency through a 25 Mbps throttle", _run_fig5),
    "fig8": ("worked migration timeline", _run_fig8),
    "fig10": ("camera latency per scheduler, unconstrained LAN", _run_fig10),
    "fig11": ("social-network p99 vs RPS, ± one throttled node", _run_fig11),
    "fig12": ("video bitrate vs bandwidth-query interval", _run_fig12),
    "fig13": ("social-network latency vs monitoring interval", _run_fig13),
    "table1": ("migration iterations: over-quota vs migrated", _run_table1),
    "fig14a": ("restart cost on end-to-end latency", _run_fig14a),
    "fig14b": ("scheduler comparison CDF on the emulated mesh", _run_fig14b),
    "fig14cd": ("threshold x headroom sweep, fixed arrivals", _run_fig14cd),
    "fig15b": ("video bitrate by node vs migration threshold", _run_fig15b),
    "fig16": ("threshold sweep under exponential arrivals", _run_fig16),
    "multitenant": ("probe sharing and migration arbitration at scale",
                    _run_multitenant),
    "fleet": ("regionalized control plane: sharded schedulers, handoffs",
              _run_fleet),
    "churn": ("node crash: detection latency and recovery vs k3s", _run_churn),
    "failover": ("orchestrator kill mid-run: deferred decisions, goodput dip",
                 _run_failover),
    "churnsweep": ("randomized crash plans across seeds", _run_churnsweep),
    "ablations": ("the design-choice ablation battery", _run_ablations),
    "table2": ("camera median latency on the emulated mesh", _run_table2),
    "table3": ("per-component scheduling latency", _run_table3),
    "table4": ("DAG processing time per application", _run_table4),
}


def _report_profile(capsule) -> None:
    """Where tick time went: print the phase/solver breakdown (stderr —
    stdout stays deterministic) and, when the run is traced, publish a
    ``profile.tick_phases`` event so ``bass-repro report`` and the
    instrument gauges carry the same numbers."""
    netem = capsule.env.netem
    phases = netem.tick_phase_stats()
    solver = netem.solver_stats()
    tracer = capsule.env.tracer
    if tracer.enabled:
        tracer.emit(
            "profile.tick_phases",
            capsule.engine.now,
            ticks=phases["ticks"],
            phase_seconds=phases["seconds"],
            solver=solver,
        )
    ticks = phases["ticks"]
    print(
        f"\ntick profile — {ticks} emulator tick(s), wall clock:",
        file=sys.stderr,
    )
    for phase, seconds in sorted(phases["seconds"].items()):
        per_ms = seconds / ticks * 1000.0 if ticks else 0.0
        print(
            f"  {phase:<14s} {seconds:9.3f}s total {per_ms:8.3f} ms/tick",
            file=sys.stderr,
        )
    print(
        f"  solver: {solver['full_solves']} full solve(s), "
        f"{solver['partial_solves']} partial, "
        f"{solver['components_resolved']} component(s) re-solved of "
        f"{solver['components']}",
        file=sys.stderr,
    )
    profiler = capsule.engine.profiler
    if profiler is not None:
        print(f"\n{profiler.render()}", file=sys.stderr)


def _run_checkpoint_mode(args, parser) -> int:
    """``run`` with --checkpoint-dir / --stop-at / --restore-from /
    --profile: one checkpointable cell (see repro.snap.scenarios)
    instead of the experiment's usual sweep shape.

    The contract the CI smoke leg pins: stop at tick T, restore in a
    fresh process, run to completion — and the summary (``--out``) and
    trace shards are byte-identical to an uninterrupted run with the
    same checkpoint cadence attached.
    """
    import json
    from pathlib import Path

    from .snap import (
        SCENARIOS,
        CheckpointPolicy,
        SnapshotError,
        build_capsule,
        finish_capsule,
        latest_checkpoint,
        read_snapshot,
    )

    if args.experiment not in SCENARIOS:
        parser.error(
            f"--checkpoint-dir/--stop-at/--restore-from/--profile run a "
            f"single checkpointable cell; {args.experiment!r} is not one "
            f"(expected one of {SCENARIOS})"
        )
    if (
        args.jobs != 1
        or args.cache_dir is not None
        or args.no_cache
    ):
        parser.error(
            "--jobs/--cache-dir/--no-cache do not apply to "
            "checkpointable runs (one cell, one process)"
        )
    if args.stop_at is not None and not (
        args.checkpoint_dir or args.restore_from
    ):
        parser.error("--stop-at needs --checkpoint-dir to write into")
    if args.trace and args.trace_stream:
        parser.error("--trace and --trace-stream are mutually exclusive")

    tracer = None
    previous = None
    if args.restore_from:
        if args.trace or args.trace_stream:
            parser.error(
                "--trace/--trace-stream cannot start on a restored run: "
                "the checkpoint carries the original recorder, which "
                "resumes automatically (streamed shards keep appending "
                "to their original directory)"
            )
        source = Path(args.restore_from)
        if source.is_dir():
            found = latest_checkpoint(source)
            if found is None:
                parser.error(f"no *.bass checkpoint found in {source}")
            source = found
        try:
            meta, capsule = read_snapshot(
                source, check_fingerprint=not args.no_fingerprint_check
            )
        except SnapshotError as error:
            parser.error(str(error))
        if capsule.scenario != args.experiment:
            parser.error(
                f"{source} snapshots scenario {capsule.scenario!r}; "
                f"restore it with 'bass-repro run {capsule.scenario} "
                f"--restore-from {source}'"
            )
        print(
            f"restored {meta.scenario} from {source} at "
            f"t={meta.sim_time_s:.0f}s (epoch "
            f"{capsule.control_plane.epoch_count})"
        )
        policy = capsule.control_plane.checkpoints
        if args.checkpoint_dir:
            if policy is None:
                policy = CheckpointPolicy(
                    args.checkpoint_dir,
                    every_k_epochs=args.checkpoint_every,
                )
                policy.bind(capsule)
                capsule.control_plane.attach_checkpoints(policy)
            else:
                # The pickled cadence shapes the event heap; keep it
                # and only re-point the directory.
                policy.directory = Path(args.checkpoint_dir)
        restored_tracer = capsule.env.tracer
        if restored_tracer.enabled:
            tracer = restored_tracer
    else:
        if args.trace or args.trace_stream:
            from .obs.trace import Tracer, set_default_tracer

            sink = None
            if args.trace_stream:
                from .obs.stream import StreamingSink

                sink = StreamingSink(args.trace_stream)
            tracer = Tracer.with_instruments(sink=sink)
            previous = set_default_tracer(tracer)
        capsule = build_capsule(
            args.experiment, quick=args.quick, regions=args.regions
        )
        policy = None
        if args.checkpoint_dir:
            policy = CheckpointPolicy(
                args.checkpoint_dir, every_k_epochs=args.checkpoint_every
            )
            policy.bind(capsule)
            capsule.control_plane.attach_checkpoints(policy)

    if args.profile:
        # Idempotent; restored capsules start with zeroed phase
        # accumulators (the checkpoint drops wall-clock accounting).
        capsule.engine.enable_profiling()

    try:
        if args.stop_at is not None:
            if policy is None:
                parser.error(
                    "--stop-at needs a checkpoint policy: pass "
                    "--checkpoint-dir (the restored snapshot carries "
                    "none)"
                )
            reached = capsule.run_until(args.stop_at)
            path = policy.write(label=f"stop-t{int(reached):06d}")
            summary = None
            print(f"stopped at t={reached:.0f}s; checkpoint -> {path}")
        else:
            capsule.run_to_completion()
            summary = finish_capsule(capsule)
    finally:
        if previous is not None:
            from .obs.trace import set_default_tracer

            set_default_tracer(previous)

    if args.profile:
        # Emit before the trace is written/sealed so the report's
        # profile section sees the event.
        _report_profile(capsule)

    if tracer is not None:
        if args.trace:
            tracer.to_jsonl(args.trace)
            print(
                f"trace: {len(tracer.events)} events -> {args.trace} "
                f"(render with: bass-repro report {args.trace})"
            )
        else:
            tracer.close()

    if summary is not None:
        rendered = json.dumps(summary, indent=2, sort_keys=True)
        print(rendered)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered + "\n")
            print(f"results: {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bass-repro",
        description="Regenerate the BASS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment")
    runner.add_argument("experiment", choices=sorted(EXPERIMENTS))
    runner.add_argument(
        "--quick",
        action="store_true",
        help="shorter horizons; shape-accurate but noisier",
    )
    runner.add_argument(
        "--trace",
        metavar="PATH",
        help="record the run's decision events to a JSONL trace file",
    )
    runner.add_argument(
        "--trace-stream",
        metavar="DIR",
        help="record the run's decision events as rotating JSONL shards "
        "in DIR (bounded memory; concatenation equals --trace output)",
    )
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep-shaped experiments "
        "(results stay byte-identical to --jobs 1)",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="memoize completed sweep cells in this content-addressed "
        "cache directory (shared directly by the sweep workers)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="disable cell memoization even when --cache-dir is set",
    )
    runner.add_argument(
        "--out",
        metavar="PATH",
        help="write the sweep's merged results as canonical JSON "
        "(byte-identical across --jobs settings)",
    )
    runner.add_argument(
        "--regions",
        type=int,
        default=2,
        metavar="N",
        help="region count for the regionalized fleet experiment",
    )
    runner.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="run the experiment as a single checkpointable cell and "
        "write versioned snapshots here (periodically, and on --stop-at)",
    )
    runner.add_argument(
        "--checkpoint-every",
        type=int,
        default=5,
        metavar="K",
        help="write a checkpoint every K controller epochs "
        "(0 disables periodic writes; default 5)",
    )
    runner.add_argument(
        "--stop-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the run at this simulated time and write one "
        "checkpoint instead of a summary (requires --checkpoint-dir)",
    )
    runner.add_argument(
        "--restore-from",
        metavar="PATH",
        help="resume from a snapshot file (or the newest *.bass in a "
        "directory) and run to completion; the result is byte-identical "
        "to the uninterrupted run",
    )
    runner.add_argument(
        "--no-fingerprint-check",
        action="store_true",
        help="restore a snapshot written by different repro code "
        "(the restored run may diverge; use only for inspection)",
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="profile the tick hot path (single-cell scenarios): print "
        "per-phase timings and the engine profiler table to stderr, and "
        "record a profile.tick_phases trace event when tracing",
    )
    reporter = sub.add_parser(
        "report", help="render a saved trace as a causal run report"
    )
    reporter.add_argument(
        "trace",
        help="JSONL trace written by run --trace, or a shard directory "
        "written by run --trace-stream / serve --stream-dir",
    )
    server = sub.add_parser(
        "serve",
        help="tick a scenario live and serve /metrics, /v1/status, "
        "/v1/epoch (see DESIGN.md 'Live status plane')",
    )
    server.add_argument(
        "scenario",
        nargs="?",
        default="fig13",
        choices=("fig13", "churn"),
        help="which live scenario to tick (default: fig13)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port",
        type=int,
        default=8791,
        help="listen port (0 picks an ephemeral port)",
    )
    server.add_argument(
        "--quick", action="store_true", help="shorter simulated horizon"
    )
    server.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the scenario's simulated horizon",
    )
    server.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="X",
        help="simulated seconds advanced per wall second "
        "(0 = as fast as possible)",
    )
    server.add_argument(
        "--status-path",
        default="status.json",
        metavar="PATH",
        help="where the epoch-managed status.json is published",
    )
    server.add_argument(
        "--status-every",
        type=int,
        default=5,
        metavar="K",
        help="publish status.json every K controller epochs",
    )
    server.add_argument(
        "--stream-dir",
        metavar="DIR",
        help="stream the run's trace as rotating JSONL shards in DIR",
    )
    server.add_argument(
        "--no-linger",
        action="store_true",
        help="exit when the simulated horizon completes instead of "
        "serving until SIGINT/SIGTERM",
    )
    server.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write periodic snapshots here (plus a final one on "
        "SIGTERM); if DIR already holds a checkpoint, resume the "
        "killed run from it instead of starting fresh",
    )
    server.add_argument(
        "--checkpoint-every",
        type=int,
        default=5,
        metavar="K",
        help="checkpoint every K controller epochs (default 5)",
    )
    args = parser.parse_args(argv)

    if args.command == "serve":
        from .obs.serve import ServeOptions, serve_run

        return serve_run(
            ServeOptions(
                scenario=args.scenario,
                host=args.host,
                port=args.port,
                quick=args.quick,
                duration_s=args.duration,
                pace=args.pace,
                status_path=args.status_path,
                status_every=args.status_every,
                stream_dir=args.stream_dir,
                linger=not args.no_linger,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
            )
        )

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            sweepable = getattr(EXPERIMENTS[name][1], "sweep_capable", False)
            tag = " [sweep]" if sweepable else ""
            print(f"{name:12s} {EXPERIMENTS[name][0]}{tag}")
        return 0

    if args.command == "report":
        from .obs.report import read_trace, render_report

        print(render_report(read_trace(args.trace)))
        return 0

    if (
        args.checkpoint_dir
        or args.restore_from
        or args.stop_at is not None
        or args.profile
    ):
        return _run_checkpoint_mode(args, parser)

    description, run = EXPERIMENTS[args.experiment]
    sweep_capable = getattr(run, "sweep_capable", False)
    sweep_flags = (
        args.jobs != 1
        or args.cache_dir is not None
        or args.no_cache
        or args.out is not None
    )
    if sweep_flags and not sweep_capable:
        parser.error(
            f"--jobs/--cache-dir/--no-cache/--out apply only to "
            f"sweep-shaped experiments; {args.experiment!r} is not one "
            f"(see 'bass-repro list')"
        )
    regions_capable = getattr(run, "regions_capable", False)
    if args.regions != 2 and not regions_capable:
        parser.error(
            f"--regions applies only to the regionalized fleet "
            f"experiment; {args.experiment!r} does not take it"
        )
    if sweep_capable:
        from .runner import open_cache

        cache = (
            None if args.no_cache else open_cache(args.cache_dir)
        )
        settings = SweepSettings(jobs=args.jobs, cache=cache)
        invoke: Callable[[], object] = lambda: run(args.quick, settings)
    elif regions_capable:
        invoke = lambda: run(args.quick, regions=args.regions)
    else:
        invoke = lambda: run(args.quick)

    if args.trace and args.trace_stream:
        parser.error(
            "--trace and --trace-stream are mutually exclusive: the "
            "shard directory already concatenates to the --trace output"
        )

    print(f"== {args.experiment}: {description} ==\n")
    if args.trace or args.trace_stream:
        from .obs.trace import Tracer, set_default_tracer

        sink = None
        if args.trace_stream:
            from .obs.stream import StreamingSink

            sink = StreamingSink(args.trace_stream)
        tracer = Tracer.with_instruments(sink=sink)
        previous = set_default_tracer(tracer)
        try:
            outcomes = invoke()
        finally:
            set_default_tracer(previous)
        if args.trace:
            tracer.to_jsonl(args.trace)
            print(
                f"\ntrace: {len(tracer.events)} events -> {args.trace} "
                f"(render with: bass-repro report {args.trace})"
            )
        else:
            tracer.close()
            shards = len(sink.shard_paths())
            print(
                f"\ntrace: {len(tracer)} events -> {shards} shard(s) in "
                f"{args.trace_stream} (render with: bass-repro report "
                f"{args.trace_stream})"
            )
    else:
        outcomes = invoke()

    if sweep_capable and outcomes:
        for outcome in outcomes:
            stats = outcome.stats
            # Timing telemetry goes to stderr: stdout carries only the
            # deterministic experiment data, so two runs of the same
            # command always produce diff-identical stdout.
            print(
                f"\nsweep {outcome.spec.name}: {stats.cells} cells in "
                f"{stats.wall_s:.1f}s ({stats.cells_per_second:.2f} "
                f"cells/s, {stats.executed} executed, {stats.cached} "
                f"cached, cache hit rate {stats.cache_hit_rate:.0%})",
                file=sys.stderr,
            )
        if args.out:
            from .runner import canonical_json

            payload = canonical_json(
                {o.spec.name: o.results for o in outcomes}
            )
            with open(args.out, "w") as handle:
                handle.write(payload + "\n")
            print(f"results: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
