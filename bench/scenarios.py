"""Scenario builders: meshes, flow sets, tenants, throttle waves, sweeps.

Everything a workload feeds the program is generated here from the
benchmark seed; the program only ever sees the generated inputs.  The
builders are the benchmark's own (nothing is borrowed from
``benchmarks/``) and use only the stable surface listed in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.apps.base import Application
from repro.apps.social import SocialNetworkApp
from repro.config import BassConfig, FleetConfig
from repro.core.dag import Component, ComponentDAG
from repro.experiments.common import build_env, deploy_app, run_timeline
from repro.experiments.thresholds import fig14cd_sweep_spec
from repro.faults import FailureDetector, FaultInjector, FaultPlan, NodeCrash
from repro.mesh.node import MeshNode
from repro.mesh.topology import MeshTopology, citylab_subset, regional_mesh, regional_specs
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator
from repro.runner import SweepSpec


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator ``index`` of the benchmark seed."""
    return np.random.default_rng([seed, index])


# -- city mesh (city_tick, flow_churn) ----------------------------------------


def coarse_trace(mean_mbps: float, duration_s: float, rng: np.random.Generator) -> BandwidthTrace:
    """Piecewise-constant capacity with 5-40 s segments.

    Wi-Fi links fade on tens-of-seconds timescales, not every second;
    desynchronised segment boundaries mean a few percent of links move
    per tick, which is what makes the solve *incremental*.
    """
    times = [0.0]
    while times[-1] < duration_s:
        times.append(times[-1] + float(rng.uniform(5.0, 40.0)))
    values = np.maximum(mean_mbps * rng.uniform(0.55, 1.35, size=len(times)), 0.5)
    return BandwidthTrace(times, values, loop=True)


def city_mesh(
    regions: int, per_region: int, rng: np.random.Generator, *, trace_s: float
) -> MeshTopology:
    """Regions of ring+chords neighbourhoods joined by a static gateway ring."""
    topo = MeshTopology()
    for r in range(regions):
        names = [f"r{r}n{j}" for j in range(per_region)]
        for name in names:
            topo.add_node(MeshNode(name, cpu_cores=8, memory_mb=8192))
        pairs = {(names[i], names[(i + 1) % per_region]) for i in range(per_region)}
        while len(pairs) < per_region + per_region // 2:
            a, b = sorted(int(x) for x in rng.choice(per_region, size=2, replace=False))
            pairs.add((names[a], names[b]))
        for a, b in sorted(pairs):
            if topo.has_link(a, b):
                continue
            mean = float(rng.uniform(8.0, 40.0))
            topo.add_link(a, b, capacity_mbps=mean).set_trace(coarse_trace(mean, trace_s, rng))
    for r in range(regions):
        a, b = f"r{r}n0", f"r{(r + 1) % regions}n0"
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, capacity_mbps=25.0, latency_ms=8.0)
    return topo


def region_endpoints(regions: int, per_region: int, rng: np.random.Generator) -> tuple[str, str]:
    """Two distinct nodes of one random region (an intra-region flow)."""
    r = int(rng.integers(0, regions))
    j, k = rng.choice(per_region, size=2, replace=False)
    return f"r{r}n{int(j)}", f"r{r}n{int(k)}"


def city_emulator(seed: int, *, regions: int, per_region: int, flows: int, trace_s: float):
    """A started emulator over a city mesh with ``flows`` routed flows."""
    topo = city_mesh(regions, per_region, stream(seed, 0), trace_s=trace_s)
    emu = NetworkEmulator(topo)
    rng = stream(seed, 1)
    for i in range(flows):
        src, dst = region_endpoints(regions, per_region, rng)
        emu.add_flow(f"f{i}", src, dst, float(rng.uniform(0.1, 15.0)))
    emu.start()
    return emu


# -- social network on the CityLab subset (socialnet_mesh) --------------------

#: (label, scheduler, migrations enabled) — the four Fig 14b configurations.
SOCIAL_CONFIGS = (
    ("longest-path+mig", "bass-longest-path", True),
    ("bfs+mig", "bass-bfs", True),
    ("longest-path-nomig", "bass-longest-path", False),
    ("k3s", "k3s", False),
)


@dataclass
class SocialRun:
    """One deployed Fig 14b configuration, armed and ready to step."""

    label: str
    env: object
    handle: object
    latencies: list


def social_runs(seed: int, *, rps: float, horizon_s: float, samples: int) -> list[SocialRun]:
    """Deploy the social network under each Fig 14b configuration."""
    runs = []
    for index, (label, scheduler, migrate) in enumerate(SOCIAL_CONFIGS):
        # Same traces under every configuration: only the scheduler differs.
        topology = citylab_subset(
            with_traces=True, trace_duration_s=horizon_s, rng=stream(seed, 2)
        )
        env = build_env(topology, seed=seed, buffer_mbit=400.0, restart_seconds=8.0)
        app = SocialNetworkApp(annotate_rps=rps)
        config = BassConfig(migrations_enabled=migrate).with_migration(
            goodput_threshold=0.5, link_utilization_threshold=0.65
        )
        handle = deploy_app(env, app, scheduler, config=config, start_controller=migrate)
        app.set_rps(rps)
        app.update_demands(handle.binding, 0.0)
        latencies: list[float] = []
        rng = stream(seed, 10 + index)

        def sample(t, app=app, binding=handle.binding, rng=rng, out=latencies):
            out.extend(app.sample_latencies_s(binding, samples, rng))

        run_timeline(env, 0.0, on_tick=sample)  # arms emulator + observer
        runs.append(SocialRun(label, env, handle, latencies))
    return runs


# -- regionalised fleet (fleet_epochs, trace_replay's recorded stream) --------

SOURCE = "source"
SINK = "sink"


class StreamPair(Application):
    """A two-component tenant: a pinned source streaming to a movable sink."""

    def __init__(self, name: str, source_node: str, demand_mbps: float) -> None:
        self.name = name
        self.source_node = source_node
        self.demand_mbps = demand_mbps

    def build_dag(self) -> ComponentDAG:
        dag = ComponentDAG(self.name)
        dag.add_component(Component(SOURCE, cpu=1.0, memory_mb=256, pinned_node=self.source_node))
        dag.add_component(Component(SINK, cpu=1.0, memory_mb=256))
        dag.add_dependency(SOURCE, SINK, self.demand_mbps)
        return dag.validate()


@dataclass
class Fleet:
    """A built fleet: substrate, tenants and the chaos machinery."""

    env: object
    handles: list
    crashes: list
    injector: object
    detector: object


def fleet(
    seed: int,
    *,
    regions: int,
    per_region: int,
    tenants: int,
    horizon_s: float,
    wave_s: float = 60.0,
    wave_width: int = 4,
    crash_every_s: float = 300.0,
    reboot_after_s: float = 120.0,
    tracer=None,
) -> Fleet:
    """Stream-pair tenants on a regional mesh under a rolling throttle wave.

    Every ``wave_s`` the next ``wave_width`` regions' ``r{k}n1 -> r{k}n2``
    links drop to 1 Mbps and the wave two steps back is lifted, so some
    region is always planning migrations; one non-gateway node crashes
    every ``crash_every_s`` (rebooting ``reboot_after_s`` later) with
    crash recovery wired in.
    """
    topology = regional_mesh(regions, per_region, cpu_cores=64.0)
    config = FleetConfig(region_specs=regional_specs(regions, per_region))
    env = build_env(topology=topology, seed=seed, with_traces=False, fleet=config, tracer=tracer)
    rng = stream(seed, 3)
    handles = []
    for index in range(tenants):
        home = index % regions
        app = StreamPair(f"tenant{index:03d}", f"r{home}n1", float(rng.uniform(1.5, 2.5)))
        handles.append(
            deploy_app(env, app, "bass-longest-path", force_assignments={SINK: f"r{home}n2"})
        )
    wave = 0
    at = wave_s
    while at < horizon_s:
        for offset in range(wave_width):
            k = (wave * wave_width + offset) % regions
            src, dst = f"r{k}n1", f"r{k}n2"
            link = topology.link(src, dst)
            env.engine.schedule_at(at, partial(link.set_rate_limit, 1.0, src=src, dst=dst))
            if at + 2 * wave_s < horizon_s:
                env.engine.schedule_at(
                    at + 2 * wave_s, partial(link.set_rate_limit, None, src=src, dst=dst)
                )
        wave += 1
        at += wave_s
    crashes = []
    at = crash_every_s / 2
    while at + reboot_after_s + 10.0 < horizon_s:
        node = f"r{int(rng.integers(0, regions))}n{int(rng.integers(2, per_region + 1))}"
        crashes.append(NodeCrash(at, node, reboot_after_s=reboot_after_s))
        at += crash_every_s
    injector = FaultInjector(
        FaultPlan(crashes), env.netem, tracer=env.tracer, control_plane=env.control_plane
    )
    injector.install()
    detector = FailureDetector(env.netem, "r0n1", injector=injector, tracer=env.tracer)
    detector.start()
    env.control_plane.enable_recovery(detector)
    run_timeline(env, 0.0)  # arms the emulator tick
    return Fleet(env, handles, crashes, injector, detector)


# -- threshold sweep grid (sweep_grid) ----------------------------------------


def sweep_spec(seed: int, *, horizons: tuple[float, ...], thresholds: tuple[float, ...]) -> SweepSpec:
    """Fig 14c/d cells concatenated at several horizons (heterogeneous costs).

    Every cell gets its own trace seed: with one seed for the whole grid
    the few most expensive cells (and with them ``op_ms_p95``) were
    whatever that one trace made of the long, migration-heavy cells.
    """
    cells = []
    for horizon in horizons:
        cells.extend(
            fig14cd_sweep_spec(
                thresholds=thresholds, headrooms=(0.10, 0.30), duration_s=horizon
            ).cells
        )
    cells = [replace(cell, seed=seed * 1000 + index) for index, cell in enumerate(cells)]
    return SweepSpec(name="bench-grid", cells=tuple(cells))
