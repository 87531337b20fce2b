"""Migration-threshold tuning experiments: Figs 14(c)(d) and 16 (§6.3.3).

Two knobs govern the bandwidth controller: the link-utilization
threshold for migration and the headroom capacity maintained on links.
These sweeps reproduce the paper's findings:

* Fixed arrivals (Fig 14c/d): mid thresholds (50–65 %) balance
  premature migrations (25 % — restart cost paid for transient dips)
  against late ones (75–95 % — prolonged congestion).
* Exponential arrivals (Fig 16): bursts make early migration cheap
  relative to repeated congestion, so *lower* thresholds win.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..apps.social import SocialNetworkApp
from ..apps.workload import ExponentialArrivals, FixedRate
from ..config import BassConfig
from ..mesh.topology import citylab_subset
from ..runner import SweepSpec
from ..sim.rng import RngStreams
from .common import build_env, deploy_app, run_timeline


@dataclass(frozen=True)
class ThresholdCell:
    """Outcome of one (threshold, headroom) configuration."""

    heuristic: str
    threshold: float
    headroom: float
    upper_quartile_latency_s: float
    mean_latency_s: float
    p99_latency_s: float
    migrations: int


def _run_threshold_config(
    *,
    heuristic: str,
    threshold: float,
    headroom: float,
    workload,
    duration_s: float,
    seed: int,
) -> ThresholdCell:
    """One emulated-mesh run of the social network at 50 RPS nominal."""
    rng_streams = RngStreams(seed)
    topology = citylab_subset(
        with_traces=True,
        trace_duration_s=duration_s,
        rng=rng_streams.get("traces"),
    )
    env = build_env(
        topology, seed=seed, buffer_mbit=400.0, restart_seconds=8.0
    )
    app = SocialNetworkApp(annotate_rps=workload.mean_rps)
    config = BassConfig().with_migration(
        goodput_threshold=0.0,  # isolate the utilization knob (§6.3.3)
        link_utilization_threshold=threshold,
        headroom_fraction=headroom,
        cooldown_s=30.0,
    )
    scheduler = "bass-bfs" if heuristic == "bfs" else "bass-longest-path"
    handle = deploy_app(env, app, scheduler, config=config)
    rng = env.rng.get(f"thr-{heuristic}-{threshold}-{headroom}")
    rate_iter = workload.counts(duration_s)
    latencies: list[float] = []

    def tick(t: float) -> None:
        rate = next(rate_iter, workload.mean_rps)
        app.set_rps(rate)
        app.update_demands(handle.binding, t)
        latencies.extend(app.sample_latencies_s(handle.binding, 4, rng))

    run_timeline(env, duration_s, on_tick=tick)
    array = np.asarray(latencies)
    return ThresholdCell(
        heuristic=heuristic,
        threshold=threshold,
        headroom=headroom,
        upper_quartile_latency_s=float(np.percentile(array, 75)),
        mean_latency_s=float(array.mean()),
        p99_latency_s=float(np.percentile(array, 99)),
        migrations=len(handle.deployment.migrations),
    )


def _fig14cd_cell(
    *,
    heuristic: str,
    threshold: float,
    headroom: float,
    rps: float,
    duration_s: float,
    seed: int,
) -> ThresholdCell:
    """One fig 14c/d grid cell (module-level: sweep workers import it)."""
    return _run_threshold_config(
        heuristic=heuristic,
        threshold=threshold,
        headroom=headroom,
        workload=FixedRate(rps),
        duration_s=duration_s,
        seed=seed,
    )


#: Fig 16 holds headroom at 20 %.
FIG16_HEADROOM = 0.20
FIG16_SEED = 16


def _fig16_cell(
    *,
    threshold: float,
    mean_rps: float,
    duration_s: float,
    seed: int,
) -> ThresholdCell:
    """One fig 16 cell; the workload rng derives from (seed, threshold)
    exactly as the original serial loop did."""
    workload = ExponentialArrivals(
        mean_rps, rng=np.random.default_rng(seed + int(threshold * 100))
    )
    return _run_threshold_config(
        heuristic="longest_path",
        threshold=threshold,
        headroom=FIG16_HEADROOM,
        workload=workload,
        duration_s=duration_s,
        seed=seed,
    )


FIG14CD_SEED = 144


def fig14cd_sweep_spec(
    *,
    heuristics: tuple[str, ...] = ("bfs", "longest_path"),
    thresholds: tuple[float, ...] = (0.25, 0.50, 0.65, 0.75, 0.95),
    headrooms: tuple[float, ...] = (0.10, 0.20, 0.30),
    rps: float = 50.0,
    duration_s: float = 600.0,
) -> SweepSpec:
    """The fig 14c/d grid (fixed request arrivals at 50 RPS) as a sweep
    spec, cells in the canonical (heuristic, threshold, headroom)
    nested-loop order."""
    return SweepSpec.grid(
        "fig14cd",
        _fig14cd_cell,
        {
            "heuristic": heuristics,
            "threshold": thresholds,
            "headroom": headrooms,
        },
        fixed={"rps": rps, "duration_s": duration_s},
        label="{heuristic}/thr{threshold:g}/hr{headroom:g}",
        seed=FIG14CD_SEED,
    )


def fig16_sweep_spec(
    *,
    thresholds: tuple[float, ...] = (0.25, 0.50, 0.65, 0.75),
    mean_rps: float = 50.0,
    duration_s: float = 600.0,
) -> SweepSpec:
    """Fig 16's threshold sweep as a sweep spec: exponential (Poisson)
    arrivals, longest-path scheduling, headroom fixed at 20 %."""
    return SweepSpec.grid(
        "fig16",
        _fig16_cell,
        {"threshold": thresholds},
        fixed={"mean_rps": mean_rps, "duration_s": duration_s},
        label="thr{threshold:g}",
        seed=FIG16_SEED,
    )
