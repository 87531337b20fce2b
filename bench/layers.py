"""The metric catalogue and the reduction from spans + counters to values.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units, directions and bounds that ``BENCHMARK.json`` declares
(``bench/test_bench.py`` checks the two agree).  ``_s`` metrics are span
self times in seconds and ``_n`` metrics are counts; anything else is
derived here or handed over by the workload as a counter.
"""

from __future__ import annotations

from statistics import median

from .spans import SITE

#: (name, unit, better, bound): ``bound`` is the allowed relative worsening.
#: Sized from measured same-code spreads (see README, "Host speed"): two to
#: three times the inter-quartile spread of ten runs on ten seeds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.20),
    ("op_ms_p50", "ms", "lower", 0.20),
    ("op_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = (
    ("sim.engine.dispatch_s", "s", "lower", "op_ms_p50 on socialnet_mesh; nothing on city_tick"),
    ("sim.engine.events_n", "count", "lower", "op_ms_p50 on socialnet_mesh"),
    ("sim.engine.pending_max_n", "count", "lower", "op_ms_p50 on socialnet_mesh"),
    ("mesh.routing.route_s", "s", "lower", "setup_s on city_tick; wall_s on flow_churn, fleet_epochs"),
    ("mesh.routing.route_n", "count", "lower", "setup_s on city_tick; wall_s on flow_churn"),
    ("mesh.topology.graph_s", "s", "lower", "setup_s on city_tick; wall_s on flow_churn"),
    ("mesh.topology.graph_n", "count", "lower", "setup_s on city_tick; wall_s on flow_churn"),
    ("mesh.topology.build_s", "s", "lower", "setup_s on city_tick, flow_churn"),
    ("mesh.tracegen.build_s", "s", "lower", "setup_s on city_tick, socialnet_mesh"),
    ("net.netem.tick_s", "s", "lower", "op_ms_p50 on city_tick, flow_churn"),
    ("net.netem.tick_n", "count", "lower", "none (fixed by the workload size)"),
    ("net.netem.capacity_scan_s", "s", "lower", "op_ms_p50 on city_tick (overlay of tick_s)"),
    ("net.netem.bookkeeping_s", "s", "lower", "op_ms_p50 on flow_churn (overlay of flows/queues)"),
    ("net.netem.recompute_s", "s", "lower", "wall_s on fleet_epochs, socialnet_mesh"),
    ("net.netem.recompute_n", "count", "lower", "wall_s on fleet_epochs"),
    ("net.netem.fingerprint_skip_ratio", "ratio", "higher", "op_ms_p50 on socialnet_mesh, fleet_epochs"),
    ("net.netem.add_flow_s", "s", "lower", "setup_s on city_tick; op_ms_p50 on flow_churn"),
    ("net.netem.add_flow_n", "count", "lower", "setup_s on city_tick"),
    ("net.netem.mutate_s", "s", "lower", "op_ms_p50 on flow_churn; op_ms_p95 on fleet_epochs"),
    ("net.netem.mutate_n", "count", "lower", "op_ms_p50 on flow_churn"),
    ("net.netem.query_s", "s", "lower", "wall_s on socialnet_mesh"),
    ("net.netem.query_n", "count", "lower", "wall_s on socialnet_mesh"),
    ("net.fairness.incremental_s", "s", "lower", "wall_s, op_ms_p50 on city_tick, flow_churn"),
    ("net.fairness.incremental_n", "count", "lower", "op_ms_p50 on city_tick"),
    ("net.fairness.full_solves_n", "count", "lower", "op_ms_p50 on flow_churn"),
    ("net.fairness.partial_solves_n", "count", "lower", "op_ms_p50 on city_tick"),
    ("net.fairness.components_resolved_n", "count", "lower", "op_ms_p50 on city_tick"),
    ("net.fairness.resolve_ratio", "ratio", "lower", "op_ms_p50 on city_tick"),
    ("net.fairness.whatif_s", "s", "lower", "wall_s, op_ms_p95 on fleet_epochs"),
    ("net.fairness.whatif_n", "count", "lower", "wall_s on fleet_epochs"),
    ("net.queues.update_s", "s", "lower", "op_ms_p50 on city_tick"),
    ("net.flows.rebuild_s", "s", "lower", "op_ms_p50 on flow_churn only"),
    ("net.flows.rebuild_n", "count", "lower", "op_ms_p50 on flow_churn (one per rep on city_tick)"),
    ("net.flows.offered_s", "s", "lower", "op_ms_p50 on city_tick, flow_churn"),
    ("apps.social.sample_s", "s", "lower", "wall_s, op_ms_p50 on socialnet_mesh, sweep_grid"),
    ("apps.social.sample_n", "count", "lower", "none (fixed by the workload size)"),
    ("apps.update_demands_s", "s", "lower", "setup_s on socialnet_mesh; wall_s on sweep_grid"),
    ("core.netmonitor.full_probe_s", "s", "lower", "setup_s, op_ms_p95 on fleet_epochs"),
    ("core.netmonitor.full_probe_n", "count", "lower", "setup_s on fleet_epochs"),
    ("core.netmonitor.headroom_probe_s", "s", "lower", "op_ms_p50 on fleet_epochs"),
    ("core.netmonitor.headroom_probe_n", "count", "lower", "op_ms_p50 on fleet_epochs"),
    ("core.controller.observe_s", "s", "lower", "op_ms_p50 on fleet_epochs"),
    ("core.controller.plan_s", "s", "lower", "op_ms_p50 on fleet_epochs"),
    ("core.controller.act_s", "s", "lower", "wall_s, op_ms_p95 on fleet_epochs"),
    ("core.controller.iterations_n", "count", "lower", "none (fixed by the workload size)"),
    ("core.controlplane.epoch_s", "s", "lower", "op_ms_p50 on fleet_epochs; flat on socialnet_mesh"),
    ("core.controlplane.epoch_n", "count", "lower", "none (fixed by the workload size)"),
    ("core.controlplane.decision_ms_p50", "ms", "lower", "op_ms_p50 on fleet_epochs"),
    ("core.controlplane.arbiter_resolve_s", "s", "lower", "op_ms_p95 on fleet_epochs"),
    ("core.controlplane.conflicts_n", "count", "lower", "op_ms_p95 on fleet_epochs"),
    ("core.regions.handoffs_committed_n", "count", "higher", "none (simulated outcome)"),
    ("core.regions.handoffs_denied_n", "count", "lower", "op_ms_p95 on fleet_epochs"),
    ("core.migration.select_target_s", "s", "lower", "wall_s on fleet_epochs"),
    ("core.migration.select_target_n", "count", "lower", "wall_s on fleet_epochs"),
    ("core.migration.whatif_per_select", "ratio", "lower", "wall_s on fleet_epochs"),
    ("core.migration.migrations_n", "count", "lower", "none (simulated outcome)"),
    ("core.binding.sync_flows_s", "s", "lower", "wall_s on fleet_epochs"),
    ("core.binding.sync_flows_n", "count", "lower", "wall_s on fleet_epochs"),
    ("core.binding.edge_transfer_s", "s", "lower", "wall_s on socialnet_mesh"),
    ("core.placement.schedule_s", "s", "lower", "setup_s on socialnet_mesh, sweep_grid"),
    ("core.placement.schedule_n", "count", "lower", "setup_s on socialnet_mesh"),
    ("cluster.orchestrator.deploy_s", "s", "lower", "setup_s on fleet_epochs"),
    ("cluster.orchestrator.migrate_s", "s", "lower", "op_ms_p95 on fleet_epochs"),
    ("cluster.orchestrator.migrate_n", "count", "lower", "none (simulated outcome)"),
    ("faults.detector.beat_s", "s", "lower", "op_ms_p50 on fleet_epochs"),
    ("faults.detector.beat_n", "count", "lower", "none (fixed by the workload size)"),
    ("faults.recovery.recover_s", "s", "lower", "op_ms_p95 on fleet_epochs"),
    ("faults.recovery.replaced_n", "count", "higher", "none (simulated outcome)"),
    ("faults.recovery.failed_n", "count", "lower", "failed on fleet_epochs"),
    ("obs.trace.emit_s", "s", "lower", "op_ms_p50, wall_s on trace_replay"),
    ("obs.trace.emit_n", "count", "lower", "none (fixed by the workload size)"),
    ("obs.trace.emit_us", "us", "lower", "op_ms_p50 on trace_replay"),
    ("obs.trace.read_s", "s", "lower", "wall_s on trace_replay"),
    ("obs.stream.append_s", "s", "lower", "op_ms_p50 on trace_replay"),
    ("obs.stream.seal_n", "count", "lower", "none (fixed by the workload size)"),
    ("obs.stream.bytes_n", "bytes", "lower", "op_ms_p50 on trace_replay"),
    ("obs.instruments.on_event_s", "s", "lower", "op_ms_p50 on trace_replay"),
    ("obs.exposition.render_s", "s", "lower", "op_ms_p95 on trace_replay"),
    ("obs.exposition.render_n", "count", "lower", "none (fixed by the workload size)"),
    ("obs.report.render_s", "s", "lower", "wall_s on trace_replay"),
    ("runner.sweep.run_s", "s", "lower", "wall_s on sweep_grid (parent-side dispatch + wait)"),
    ("runner.sweep.serial_wall_s", "s", "lower", "wall_s on sweep_grid through cheaper cells"),
    ("runner.sweep.speedup", "ratio", "higher", "wall_s on sweep_grid"),
    ("runner.sweep.cell_exec_s", "s", "lower", "wall_s on sweep_grid"),
    ("runner.sweep.dispatch_overhead_frac", "ratio", "lower", "wall_s on sweep_grid"),
    ("runner.sweep.worker_boot_s", "s", "lower", "wall_s, setup_s on sweep_grid"),
    ("runner.sweep.reduce_s", "s", "lower", "wall_s on sweep_grid"),
    ("runner.cache.write_overhead_s", "s", "lower", "none end-to-end (cold cached sweeps)"),
    ("runner.cache.replay_ms", "ms", "lower", "none end-to-end (warm cached sweeps)"),
    ("runner.cache.hit_ratio", "ratio", "higher", "none (must stay 1 on the warm replay)"),
    ("runner.queue.chunks_n", "count", "lower", "wall_s on sweep_grid once queue is the default"),
    ("runner.queue.steals_n", "count", "lower", "wall_s on sweep_grid once queue is the default"),
    ("snap.clone_s", "s", "lower", "none end-to-end (outside the timed section)"),
    ("snap.clone_bytes_n", "bytes", "lower", "none end-to-end (checkpoint payload size)"),
    ("bench.import_s", "s", "lower", "setup_s everywhere"),
    ("bench.setup_self_s", "s", "lower", "setup_s (the benchmark's own builders)"),
    ("bench.driver_self_s", "s", "lower", "wall_s (the benchmark's own loop)"),
    ("bench.calibration_s", "s", "lower", "none (host-speed samples; excluded from traced_wall_s)"),
    ("bench.traced_setup_s", "s", "lower", "the traced set-up the _s metrics partition"),
    ("bench.traced_wall_s", "s", "lower", "the traced rep the _s metrics partition"),
    ("bench.unattributed_frac", "ratio", "lower", "must stay <= 0.10"),
    ("bench.trace_overhead_frac", "ratio", "lower", "none (cost of tracing itself)"),
    ("bench.spans_missing_n", "count", "lower", "must stay 0"),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
#: ``_s`` metrics that are *not* span self times (the program's own phase
#: clocks, separately timed sweeps, phase totals): excluded from the sum.
OVERLAYS = frozenset(
    name
    for name in PER_LAYER_NAMES
    if name in ("net.netem.capacity_scan_s", "net.netem.bookkeeping_s", "bench.import_s")
    or (name.startswith(("bench.traced_", "runner.")) and name != "runner.sweep.run_s")
)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}

#: Root span names of the two traced phases.
SETUP_ROOT = "bench.setup_self"
DRIVER_ROOT = "bench.driver_self"

#: Engine callback sites above this share of the traced rep are listed.
SITE_SHARE = 0.02


def reduce_iteration(recorder, counters: dict, slowdown: float) -> tuple[dict, dict]:
    """Per-layer values and site shares of one traced set-up + rep.

    Span self times over both phases give the ``_s``/``_n`` values, so
    they sum to ``bench.traced_setup_s + bench.traced_wall_s`` (plus the
    clone and the host-speed samples, which have spans of their own);
    the workload's ``counters`` (deterministic counts, overlays, ratios
    it alone can compute) are laid on top, every time is divided by the
    iteration's host ``slowdown``, then come the cross-layer ratios.
    """
    values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    roots = {
        span[0]: index for index, span in enumerate(recorder.spans) if span[3] < 0
    }
    for name, (seconds, count) in recorder.self_times().items():
        for key, value in ((f"{name}_s", seconds), (f"{name}_n", count)):
            if key in values:
                values[key] = value
    sites = {}
    if SETUP_ROOT in roots:
        _, start, end, _ = recorder.spans[roots[SETUP_ROOT]]
        values["bench.traced_setup_s"] = end - start
    if DRIVER_ROOT in roots:
        _, start, end, _ = recorder.spans[roots[DRIVER_ROOT]]
        in_rep = recorder.self_times(roots[DRIVER_ROOT])
        wall = end - start - in_rep.get("bench.calibration", (0.0, 0))[0]
        values["bench.traced_wall_s"] = wall
        sites = {
            name[len(SITE):]: seconds / wall
            for name, (seconds, _) in in_rep.items()
            if name.startswith(SITE)
        }
    values.update(counters)
    for name in values:
        if UNITS[name] in ("s", "ms", "us"):
            values[name] /= slowdown
    values["bench.unattributed_frac"] = sum(sites.values())
    solves = values["net.netem.tick_n"] + values["net.netem.recompute_n"]
    if solves:
        values["net.netem.fingerprint_skip_ratio"] = max(
            0.0, 1.0 - values["net.fairness.incremental_n"] / solves
        )
    if values["core.migration.select_target_n"]:
        values["core.migration.whatif_per_select"] = (
            values["net.fairness.whatif_n"] / values["core.migration.select_target_n"]
        )
    if values["obs.trace.emit_n"]:
        # Inclusive cost of one emit: its self time plus sink and instruments.
        inclusive = (
            values["obs.trace.emit_s"]
            + values["obs.stream.append_s"]
            + values["obs.instruments.on_event_s"]
        )
        values["obs.trace.emit_us"] = inclusive * 1e6 / values["obs.trace.emit_n"]
    values["bench.spans_missing_n"] = len(recorder.missing)
    big_sites = {site: share for site, share in sites.items() if share > SITE_SHARE}
    return values, big_sites


def combine(iterations: list[dict]) -> dict:
    """Median per metric over traced iterations (counts repeat exactly)."""
    return {name: median(it[name] for it in iterations) for name in PER_LAYER_NAMES}
