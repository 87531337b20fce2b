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

from ..apps.workload import ExponentialArrivals, FixedRate
from ..config import BassConfig
from ..runner import SweepSpec
from .socialnet import SocialScenario, run_social


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


def _threshold_cell(
    heuristic: str,
    threshold: float,
    headroom: float,
    workload: FixedRate | ExponentialArrivals,
    duration_s: float,
    seed: int,
) -> ThresholdCell:
    """One emulated-mesh run at the workload's per-second request
    counts, with only the utilization knob triggering (§6.3.3)."""
    run = run_social(
        SocialScenario(
            mesh="citylab-traced",
            scheduler="bass-bfs" if heuristic == "bfs" else "bass-longest-path",
            config=BassConfig().with_migration(
                goodput_threshold=0.0,
                link_utilization_threshold=threshold,
                headroom_fraction=headroom,
            ),
            controller=True,
            rps=workload.mean_rps,
            rates=tuple(workload.counts(duration_s)),
            samples=4,
            stream=f"thr-{heuristic}-{threshold}-{headroom}",
            duration_s=duration_s,
            seed=seed,
        )
    )
    latencies = run.latencies()
    return ThresholdCell(
        heuristic=heuristic,
        threshold=threshold,
        headroom=headroom,
        upper_quartile_latency_s=float(np.percentile(latencies, 75)),
        mean_latency_s=float(latencies.mean()),
        p99_latency_s=float(np.percentile(latencies, 99)),
        migrations=len(run.migrations),
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
    return _threshold_cell(
        heuristic, threshold, headroom, FixedRate(rps), duration_s, seed
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
    """One fig 16 cell; the arrival rng derives from (seed, threshold)."""
    workload = ExponentialArrivals(
        mean_rps, rng=np.random.default_rng(seed + int(threshold * 100))
    )
    return _threshold_cell(
        "longest_path", threshold, FIG16_HEADROOM, workload, duration_s, seed
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
    """The fig 14c/d grid (fixed request arrivals) as a sweep spec,
    cells in the canonical (heuristic, threshold, headroom) nested-loop
    order.  The catalogue runs it at 70 RPS; the 50 RPS default is the
    benchmark's sweep grid's."""
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
    arrivals, longest-path scheduling, headroom fixed at 20 %.  The
    catalogue runs it at a 70 RPS mean."""
    return SweepSpec.grid(
        "fig16",
        _fig16_cell,
        {"threshold": thresholds},
        fixed={"mean_rps": mean_rps, "duration_s": duration_s},
        label="thr{threshold:g}",
        seed=FIG16_SEED,
    )
