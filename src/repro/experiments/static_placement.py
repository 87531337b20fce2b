"""Static initial-placement experiments: Fig 10, Fig 11, Table 2.

* Fig 10 — camera pipeline on a 3-node LAN, no bandwidth limits:
  end-to-end latency and placements per scheduler.
* Fig 11 — social network p99 latency vs request rate on a 4-node LAN,
  with and without one node throttled to 25 Mbps.
* Table 2 — camera pipeline on the emulated CityLab mesh, with and
  without bandwidth variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.camera import CameraPipelineApp, CameraProfile
from ..config import BassConfig
from ..mesh.topology import citylab_subset, full_mesh_topology
from ..mesh.traces import BandwidthTrace
from ..runner import SweepSpec
from ..sim.rng import RngStreams
from .common import build_env, deploy_app, grid_figure, run_timeline
from .socialnet import SocialScenario, Throttle, run_social

SCHEDULERS = ("bass-bfs", "bass-longest-path", "k3s")


# -- Fig 10 ---------------------------------------------------------------------


@dataclass(frozen=True)
class Fig10Row:
    """Latency and placement of one scheduler (one box of Fig 10)."""

    scheduler: str
    mean_latency_ms: float
    median_latency_ms: float
    placement: dict[str, str]
    inter_node_chain_hops: int


def _microbenchmark_camera_app() -> CameraPipelineApp:
    """Camera profile sized for the 16-core microbenchmark nodes: the
    whole pipeline (22 cores) cannot share one node, so placement
    choices matter — as they did on the paper's c6525 machines."""
    return CameraPipelineApp(
        CameraProfile(), sampler_cpu=6.0, detector_cpu=10.0
    )


def _camera_chain_hops(placement: dict[str, str]) -> int:
    chain = ["camera-stream", "frame-sampler", "object-detector", "image-listener"]
    return sum(
        1
        for a, b in zip(chain, chain[1:])
        if placement[a] != placement[b]
    )


def _fig10_cell(*, scheduler: str, duration_s: float, seed: int) -> Fig10Row:
    """One scheduler's box of Fig 10."""
    topology = full_mesh_topology(
        3, capacity_mbps=1000.0, cpu_cores=16.0, memory_mb=131072.0
    )
    env = build_env(topology, seed=seed)
    app = _microbenchmark_camera_app()
    handle = deploy_app(
        env,
        app,
        scheduler,
        config=BassConfig(migrations_enabled=False),
        start_controller=False,
    )
    rng = env.rng.get(f"camera-{scheduler}")
    latencies: list[float] = []

    def sample(t: float) -> None:
        latencies.extend(app.sample_latencies_s(handle.binding, 5, rng))

    run_timeline(env, duration_s, on_tick=sample)
    array = np.asarray(latencies) * 1000.0
    return Fig10Row(
        scheduler=scheduler,
        mean_latency_ms=float(array.mean()),
        median_latency_ms=float(np.median(array)),
        placement=dict(handle.assignments),
        inter_node_chain_hops=_camera_chain_hops(handle.assignments),
    )


FIG10_SEED = 10


@grid_figure
def fig10_camera_static(*, duration_s: float = 120.0) -> SweepSpec:
    """Fig 10: camera latency per scheduler on an unconstrained LAN.

    The paper's means are 410 (BFS) / 428 (longest-path) / 433 (k3s) ms;
    the reproducible shape is that bandwidth-aware packing co-locates
    the heavy stream→sampler edge and crosses the network fewer times
    along the critical chain than k3s's least-allocated spreading.
    """
    return SweepSpec.grid(
        "fig10",
        _fig10_cell,
        {"scheduler": SCHEDULERS},
        fixed={"duration_s": duration_s},
        label="{scheduler}",
        seed=FIG10_SEED,
    )


# -- Fig 11 -------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig11Cell:
    """p99 latency for one (scheduler, rps, restricted?) configuration."""

    scheduler: str
    rps: float
    restricted: bool
    p99_latency_s: float
    mean_latency_s: float


#: Fig 11's restricted variant caps node2's egress, before deployment;
#: the figure compares longest-path against k3s.
FIG11_SCHEDULERS = ("bass-longest-path", "k3s")
FIG11_SEED = 11


def _fig11_cell(
    *,
    scheduler: str,
    restricted: bool,
    rps: float,
    duration_s: float,
    seed: int,
) -> Fig11Cell:
    """One (scheduler, restricted?, rps) configuration of Fig 11."""
    latencies = run_social(
        SocialScenario(
            mesh="lan4",
            scheduler=scheduler,
            rps=rps,
            throttle=Throttle(("node2",)) if restricted else None,
            samples=8,
            stream=f"lat-{scheduler}-{rps}-{restricted}",
            duration_s=duration_s,
            seed=seed,
        )
    ).latencies()
    return Fig11Cell(
        scheduler=scheduler,
        rps=rps,
        restricted=restricted,
        p99_latency_s=float(np.percentile(latencies, 99)),
        mean_latency_s=float(latencies.mean()),
    )


@grid_figure
def fig11_socialnet_p99(
    *,
    rates: tuple[float, ...] = (100.0, 200.0, 300.0),
    duration_s: float = 150.0,
) -> SweepSpec:
    """Fig 11: social-network p99 vs RPS, unrestricted and restricted.

    4-node LAN of 4-core machines (the paper's d710s).  In the
    restricted variant node2's egress is capped at 25 Mbps before
    deployment, for both schedulers — the paper throttles "one node"
    and observes k3s two orders of magnitude worse at 200–300 RPS.
    """
    return SweepSpec.grid(
        "fig11",
        _fig11_cell,
        {
            "scheduler": FIG11_SCHEDULERS,
            "restricted": (False, True),
            "rps": rates,
        },
        fixed={"duration_s": duration_s},
        label="{scheduler}/restricted={restricted}/rps{rps:g}",
        seed=FIG11_SEED,
    )


# -- Table 2 -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """Median camera latency for one (scenario, scheduler) cell."""

    scenario: str  # "no_variation" | "with_variation"
    scheduler: str
    median_latency_ms: float
    mean_latency_ms: float
    p95_latency_ms: float
    migrations: int


def _table2_cell(
    *, scenario: str, scheduler: str, duration_s: float, seed: int
) -> Table2Row:
    """One (scenario, scheduler) cell of Table 2."""
    rng = RngStreams(seed).get("traces")
    topology = citylab_subset(
        with_traces=True, trace_duration_s=duration_s, rng=rng
    )
    if scenario == "no_variation":
        for link in topology.links:
            a, b = link.id
            peak = max(
                link.capacity(a, b, float(t))
                for t in np.arange(0, duration_s, 10.0)
            )
            link.set_trace(BandwidthTrace.constant(peak))
    env = build_env(topology, seed=seed)
    app = CameraPipelineApp()  # §6.3.1 sizes: sampler 4, detector 8
    handle = deploy_app(
        env,
        app,
        scheduler,
        config=BassConfig(),  # migrations on, paper saw none trigger
        start_controller=scheduler != "k3s",
    )
    latency_rng = env.rng.get(f"cam-{scenario}-{scheduler}")
    latencies: list[float] = []

    def sample(t: float) -> None:
        latencies.extend(
            app.sample_latencies_s(handle.binding, 3, latency_rng)
        )

    run_timeline(env, duration_s, on_tick=sample)
    array = np.asarray(latencies) * 1000.0
    return Table2Row(
        scenario=scenario,
        scheduler=scheduler,
        median_latency_ms=float(np.median(array)),
        mean_latency_ms=float(array.mean()),
        p95_latency_ms=float(np.percentile(array, 95)),
        migrations=len(handle.deployment.migrations),
    )


TABLE2_SEED = 22


@grid_figure
def table2_camera_mesh(*, duration_s: float = 1200.0) -> SweepSpec:
    """Table 2: camera on the emulated CityLab mesh, ± bandwidth variation.

    "No variation" fixes every link at the maximum value observed in its
    trace (the paper's baseline); "with variation" replays the traces.
    Paper medians (ms): BFS 540/538, longest-path 551/552, k3s 577/692 —
    i.e. k3s inflates ~20 % under variation while BASS is flat.
    """
    return SweepSpec.grid(
        "table2",
        _table2_cell,
        {
            "scenario": ("no_variation", "with_variation"),
            "scheduler": SCHEDULERS,
        },
        fixed={"duration_s": duration_s},
        label="{scenario}/{scheduler}",
        seed=TABLE2_SEED,
    )
