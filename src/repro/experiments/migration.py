"""Dynamic component-migration experiments:
Fig 8, Fig 12, Fig 13, Table 1, Fig 14(a)(b), Fig 15(b).

These exercise the full monitoring → trigger → migrate loop under
controlled throttles (microbenchmarks) and under the CityLab-style
trace replay (emulated mesh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..apps.social import SocialNetworkApp
from ..apps.video import Participant, VideoConferenceApp
from ..cluster.deployment import MigrationRecord
from ..config import BassConfig
from ..core.dag import Component, ComponentDAG
from ..mesh.node import MeshNode
from ..mesh.topology import MeshTopology, citylab_subset, full_mesh_topology
from ..runner import SweepSpec
from ..sim.rng import RngStreams
from .common import (
    RunCapsule,
    build_env,
    checkpointable,
    deploy_app,
    grid_figure,
    run_timeline,
    set_node_egress_limit,
)


# -- Fig 8: migration timeline ------------------------------------------------


@dataclass
class Fig8Timeline:
    """Everything the Fig 8 plot shows, as event/series data."""

    times: list[float] = field(default_factory=list)
    goodput: list[float] = field(default_factory=list)
    capacity_34: list[float] = field(default_factory=list)
    capacity_13: list[float] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)
    full_probe_times: list[float] = field(default_factory=list)


def _pair_app_dag() -> ComponentDAG:
    """A producer→consumer pair requiring 8 Mbps (the Fig 8 subject).

    The producer is pinned to node3 (it stands in for a data source at
    that site); the consumer is free to move.
    """
    dag = ComponentDAG("pair")
    dag.add_component(
        Component("producer", cpu=1.0, memory_mb=256, pinned_node="node3")
    )
    dag.add_component(Component("consumer", cpu=1.0, memory_mb=256))
    dag.add_dependency("producer", "consumer", 8.0)
    return dag.validate()


class _PairApp:
    """Minimal Application wrapper around the fixed pair DAG."""

    name = "pair"

    def build_dag(self) -> ComponentDAG:
        return _pair_app_dag()

    def update_demands(self, binding, t) -> None:  # noqa: ANN001
        pass

    def on_deployed(self, binding) -> None:  # noqa: ANN001
        pass


def fig8_migration_timeline(
    *,
    drop_time_s: float = 540.0,
    second_drop_time_s: float = 1119.0,
    total_s: float = 1500.0,
    drop_to_mbps: float = 3.5,
    seed: int = 8,
) -> Fig8Timeline:
    """Fig 8: the worked migration example.

    A component pair needing 8 Mbps starts on node3/node4 over a
    25 Mbps link (threshold 50 % goodput, headroom ~20 %, probes every
    30 s).  At ``drop_time_s`` the node3→node4 link capacity collapses;
    the controller's headroom probe notices, a full probe refreshes the
    cached capacity, and the consumer migrates node4 → node1.  Later the
    node1↔node3 link degrades (and node3→node4 recovers), driving the
    consumer back to node4.
    """
    topology = MeshTopology()
    # node3 has room only for the pinned producer: consolidation onto
    # node3 (which would short-circuit the example) is infeasible, so
    # the consumer must live across a wireless link, as in Fig 8.
    topology.add_node(MeshNode("node1", cpu_cores=8, memory_mb=8192))
    topology.add_node(MeshNode("node3", cpu_cores=1, memory_mb=512))
    topology.add_node(MeshNode("node4", cpu_cores=8, memory_mb=8192))
    topology.add_link("node3", "node4", capacity_mbps=25.0)
    topology.add_link("node1", "node3", capacity_mbps=25.0)
    topology.add_link("node1", "node4", capacity_mbps=25.0)
    env = build_env(topology, seed=seed)
    config = BassConfig().with_migration(
        goodput_threshold=0.5, headroom_fraction=0.2, cooldown_s=30.0
    )
    app = _PairApp()
    handle = deploy_app(
        env,
        app,
        "bass-longest-path",
        config=config,
        force_assignments={"consumer": "node4"},
    )
    timeline = Fig8Timeline()

    def sample(t: float) -> None:
        timeline.times.append(t)
        timeline.goodput.append(handle.binding.goodput("producer", "consumer"))
        timeline.capacity_34.append(env.netem.capacity("node3", "node4"))
        timeline.capacity_13.append(env.netem.capacity("node1", "node3"))

    def first_drop() -> None:
        topology.link("node3", "node4").set_rate_limit(drop_to_mbps)

    def second_drop() -> None:
        topology.link("node3", "node4").set_rate_limit(None)
        topology.link("node1", "node3").set_rate_limit(drop_to_mbps)

    run_timeline(
        env,
        total_s,
        on_tick=sample,
        tick_s=5.0,
        events=[(drop_time_s, first_drop), (second_drop_time_s, second_drop)],
    )
    timeline.migrations = list(handle.deployment.migrations)
    timeline.full_probe_times = [
        probe.time
        for probe in handle.monitor.probe_log
        if probe.kind == "full" and probe.time > 0
    ]
    return timeline


# -- Fig 12: video conferencing under different query intervals ------------------


@dataclass(frozen=True)
class Fig12Series:
    """Mean client bitrate over time for one query-interval setting."""

    interval_s: Optional[float]  # None = no migration
    times: np.ndarray
    bitrate_mbps: np.ndarray
    migrations: list[MigrationRecord]

    def mean_during(self, start: float, end: float) -> float:
        mask = (self.times >= start) & (self.times < end)
        return float(self.bitrate_mbps[mask].mean())


def _fig12_cell(
    *,
    interval: Optional[float],
    participants: int,
    restrict_at_s: float,
    restrict_for_s: float,
    restrict_to_mbps: float,
    total_s: float,
    stream_mbps: float,
    seed: int,
) -> Fig12Series:
    """One bandwidth-query interval of Fig 12 (None: no migration)."""
    topology = full_mesh_topology(3, capacity_mbps=1000.0)
    env = build_env(topology, seed=seed, restart_seconds=20.0)
    people = [
        Participant(f"p{i}", "node3", publishes=(i == 0))
        for i in range(participants)
    ]
    app = VideoConferenceApp(people, stream_mbps=stream_mbps)
    config = BassConfig(migrations_enabled=interval is not None)
    if interval is not None:
        config = config.with_probe(headroom_interval_s=interval)
        config = config.with_migration(cooldown_s=0.0)
    handle = deploy_app(
        env,
        app,
        "bass-longest-path",
        config=config,
        force_assignments={"sfu": "node2"},
    )
    times: list[float] = []
    bitrates: list[float] = []

    def sample(t: float) -> None:
        receivers = [
            p for p in app.participants if app.subscribed_streams(p) > 0
        ]
        times.append(t)
        bitrates.append(
            float(
                np.mean(
                    [
                        app.client_bitrate_mbps(p, handle.binding)
                        for p in receivers
                    ]
                )
            )
        )

    run_timeline(
        env,
        total_s,
        on_tick=sample,
        events=[
            (
                restrict_at_s,
                lambda: set_node_egress_limit(env, "node2", restrict_to_mbps),
            ),
            (
                restrict_at_s + restrict_for_s,
                lambda: set_node_egress_limit(env, "node2", None),
            ),
        ],
    )
    return Fig12Series(
        interval_s=interval,
        times=np.asarray(times),
        bitrate_mbps=np.asarray(bitrates),
        migrations=list(handle.deployment.migrations),
    )


@grid_figure
def fig12_video_query_interval(
    intervals: tuple[Optional[float], ...] = (30.0, 60.0, 90.0, None),
    *,
    participants: int = 9,
    restrict_at_s: float = 10.0,
    restrict_for_s: float = 180.0,
    restrict_to_mbps: float = 10.0,
    total_s: float = 300.0,
    stream_mbps: float = 3.0,
    seed: int = 12,
) -> SweepSpec:
    """Fig 12: how fast each bandwidth-query interval recovers bitrate.

    Setup per §6.2.3: 3-node LAN, Pion on node2, 9 participants on
    node3 (one publishes, the rest receive).  10 s in, node2's egress is
    throttled for 3 minutes.  BASS with a 30 s interval migrates the SFU
    to an unaffected node (briefly zeroing bitrate while WebRTC
    reconnects); without migration the clients sit at the degraded rate
    for the whole window.
    """
    return SweepSpec.grid(
        "fig12",
        _fig12_cell,
        {"interval": intervals},
        fixed={
            "participants": participants,
            "restrict_at_s": restrict_at_s,
            "restrict_for_s": restrict_for_s,
            "restrict_to_mbps": restrict_to_mbps,
            "total_s": total_s,
            "stream_mbps": stream_mbps,
        },
        label="interval={interval}",
        seed=seed,
    )


# -- Fig 13 + Table 1: social network under throttling, with migrations ----------


@dataclass(frozen=True)
class Fig13Series:
    """Per-second mean latency for one monitoring-interval setting."""

    interval_s: Optional[float]  # None = no migration
    times: np.ndarray
    latency_s: np.ndarray
    migrations: list[MigrationRecord]
    table1_rows: list[tuple[int, int, int]]

    def mean_during(self, start: float, end: float) -> float:
        mask = (self.times >= start) & (self.times < end)
        return float(self.latency_s[mask].mean())

    def p99(self) -> float:
        return float(np.percentile(self.latency_s, 99))


@dataclass
class Fig13Cell:
    """One wired fig13 interval setting: what :func:`_fig13_cell` builds.

    The batch sweep drives it to the horizon, while ``bass-repro serve``
    ticks it live under the status plane, both sampling through
    :meth:`sample`.
    """

    env: object
    app: SocialNetworkApp
    handle: object
    rng: object
    interval: Optional[float]
    restrict_to_mbps: float
    times: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)

    def throttle(self) -> None:
        set_node_egress_limit(self.env, "node2", self.restrict_to_mbps)
        set_node_egress_limit(self.env, "node3", self.restrict_to_mbps)

    def unthrottle(self) -> None:
        set_node_egress_limit(self.env, "node2", None)
        set_node_egress_limit(self.env, "node3", None)

    def sample_latency_s(self, samples: int = 8) -> float:
        return float(
            np.mean(
                self.app.sample_latencies_s(
                    self.handle.binding, samples, self.rng
                )
            )
        )

    def sample(self, now: float) -> None:
        """The per-tick observer: mean request latency at ``now``.  A
        bound method (not a closure) so a checkpointed run pickles it,
        and a restored run keeps appending to the same lists."""
        self.times.append(now)
        self.latency_s.append(self.sample_latency_s())

    def result(self, duration_s: float) -> Fig13Series:
        """The series, once the clock has run."""
        return Fig13Series(
            interval_s=self.interval,
            times=np.asarray(self.times),
            latency_s=np.asarray(self.latency_s),
            migrations=list(self.handle.deployment.migrations),
            table1_rows=self.handle.controller.table1_rows(),
        )


@checkpointable
def _fig13_cell(
    *,
    interval: Optional[float],
    rps: float,
    restrict_at_s: float,
    restrict_for_s: float,
    restrict_to_mbps: float,
    total_s: float,
    seed: int,
) -> RunCapsule:
    """One monitoring interval of Fig 13 (None: no migration).

    Heterogeneous nodes sized so the application (12 cores) spans two
    nodes and the top-ranked node (node2, which the packer fills with
    the hottest services) is among the throttled ones — leaving slack
    on unthrottled node1 for migrations to use.
    """
    topology = MeshTopology()
    for name, cores in (("node1", 6.0), ("node2", 8.0), ("node3", 6.0)):
        topology.add_node(
            MeshNode(name, cpu_cores=cores, memory_mb=131072.0)
        )
    names = topology.node_names
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            topology.add_link(a, b, capacity_mbps=1000.0, latency_ms=0.5)
    env = build_env(
        topology, seed=seed, buffer_mbit=200.0, restart_seconds=8.0
    )
    app = SocialNetworkApp(annotate_rps=rps)
    config = BassConfig(migrations_enabled=interval is not None)
    if interval is not None:
        config = config.with_probe(headroom_interval_s=interval)
        config = config.with_migration(cooldown_s=0.0)
    handle = deploy_app(env, app, "bass-longest-path", config=config)
    app.set_rps(rps)
    app.update_demands(handle.binding, 0.0)
    cell = Fig13Cell(
        env=env,
        app=app,
        handle=handle,
        rng=env.rng.get(f"fig13-{interval}"),
        interval=interval,
        restrict_to_mbps=restrict_to_mbps,
    )
    return RunCapsule(
        env=env,
        prepared=cell,
        duration_s=total_s,
        on_tick=cell.sample,
        events=(
            (restrict_at_s, cell.throttle),
            (restrict_at_s + restrict_for_s, cell.unthrottle),
        ),
    )


@grid_figure
def fig13_socialnet_migration(
    intervals: tuple[Optional[float], ...] = (30.0, 60.0, 90.0, None),
    *,
    rps: float = 400.0,
    restrict_at_s: float = 10.0,
    restrict_for_s: float = 180.0,
    restrict_to_mbps: float = 25.0,
    total_s: float = 300.0,
    seed: int = 13,
) -> SweepSpec:
    """Fig 13 / Table 1: migrations vs monitoring interval under throttle.

    3-node LAN at 400 RPS, longest-path initial placement; 10 s in,
    nodes 2 and 3 have their egress throttled for 3 minutes.  The paper
    finds no-migration up to ~50 % worse than migrating, the 30 s
    interval best for the tail, and Table 1's cascade-free candidate
    counts.
    """
    return SweepSpec.grid(
        "fig13",
        _fig13_cell,
        {"interval": intervals},
        fixed={
            "rps": rps,
            "restrict_at_s": restrict_at_s,
            "restrict_for_s": restrict_for_s,
            "restrict_to_mbps": restrict_to_mbps,
            "total_s": total_s,
        },
        label="interval={interval}",
        seed=seed,
    )


# -- Fig 14(a): restart cost -------------------------------------------------------


@dataclass(frozen=True)
class Fig14aResult:
    """Latency CDF data with and without a component restart."""

    baseline_latency_s: np.ndarray
    restart_latency_s: np.ndarray

    def means(self) -> tuple[float, float]:
        return (
            float(self.baseline_latency_s.mean()),
            float(self.restart_latency_s.mean()),
        )


def fig14a_restart_cdf(
    *,
    rps: float = 50.0,
    total_s: float = 240.0,
    restart_at_s: float = 120.0,
    restart_seconds: float = 8.0,
    seed: int = 14,
) -> Fig14aResult:
    """Fig 14a: the latency cost of restarting one component.

    Social network at 50 RPS on the CityLab mesh (static links — we
    isolate the restart effect).  Halfway through, the post-storage
    service is force-migrated; requests that touch it stall until it is
    back, inflating the mean from ~0.5 s to several seconds while the
    restart lasts.
    """
    topology = citylab_subset(with_traces=False)
    env = build_env(topology, seed=seed, restart_seconds=restart_seconds)
    app = SocialNetworkApp(annotate_rps=rps)
    handle = deploy_app(
        env,
        app,
        "bass-longest-path",
        config=BassConfig(migrations_enabled=False),
        start_controller=False,
    )
    app.set_rps(rps)
    app.update_demands(handle.binding, 0.0)
    rng = env.rng.get("fig14a")
    baseline: list[float] = []
    during_restart: list[float] = []
    restart_end = restart_at_s + restart_seconds

    def sample(t: float) -> None:
        samples = app.sample_latencies_s(handle.binding, 6, rng)
        if restart_at_s <= t < restart_end + 2.0:
            during_restart.extend(samples)
        elif t < restart_at_s:
            # Post-restart samples are excluded: the forced migration
            # leaves a different placement, and Fig 14a isolates the
            # restart window itself.
            baseline.extend(samples)

    def force_restart() -> None:
        deployment = handle.deployment
        current = deployment.node_of("post-storage-service")
        target = next(
            name
            for name in env.cluster.node_names
            if name != current
            and env.cluster.node(name).can_fit(
                handle.dag.component("post-storage-service").resources
            )
        )
        env.orchestrator.migrate(
            app.name, "post-storage-service", target, reason="fig14a forced"
        )
        handle.binding.sync_flows()

    run_timeline(
        env, total_s, on_tick=sample, events=[(restart_at_s, force_restart)]
    )
    return Fig14aResult(
        baseline_latency_s=np.asarray(baseline),
        restart_latency_s=np.asarray(during_restart),
    )


# -- Fig 14(b): scheduler comparison CDF on the emulated mesh ----------------------


@dataclass(frozen=True)
class Fig14bResult:
    """Latency distribution for one scheduler configuration."""

    label: str
    latency_s: np.ndarray
    migrations: int

    def p99(self) -> float:
        return float(np.percentile(self.latency_s, 99))

    def median(self) -> float:
        return float(np.median(self.latency_s))


#: Fig 14b's four set-ups: label -> (scheduler, migrations enabled).
FIG14B_CONFIGURATIONS = {
    "longest-path+mig": ("bass-longest-path", True),
    "bfs+mig": ("bass-bfs", True),
    "longest-path-nomig": ("bass-longest-path", False),
    "k3s": ("k3s", False),
}


def _fig14b_cell(
    *,
    label: str,
    rps: float,
    duration_s: float,
    seed: int,
    restart_seconds: float,
) -> Fig14bResult:
    """One of :data:`FIG14B_CONFIGURATIONS` on the trace-replay mesh."""
    scheduler, migrate = FIG14B_CONFIGURATIONS[label]
    rng_streams = RngStreams(seed)
    topology = citylab_subset(
        with_traces=True,
        trace_duration_s=duration_s,
        rng=rng_streams.get("traces"),
    )
    env = build_env(
        topology,
        seed=seed,
        buffer_mbit=400.0,
        restart_seconds=restart_seconds,
    )
    app = SocialNetworkApp(annotate_rps=rps)
    config = BassConfig(migrations_enabled=migrate).with_migration(
        goodput_threshold=0.5, link_utilization_threshold=0.65
    )
    handle = deploy_app(
        env,
        app,
        scheduler,
        config=config,
        start_controller=migrate,
    )
    app.set_rps(rps)
    app.update_demands(handle.binding, 0.0)
    rng = env.rng.get(f"fig14b-{label}")
    latencies: list[float] = []

    def sample(t: float) -> None:
        latencies.extend(app.sample_latencies_s(handle.binding, 6, rng))

    run_timeline(env, duration_s, on_tick=sample)
    return Fig14bResult(
        label=label,
        latency_s=np.asarray(latencies),
        migrations=len(handle.deployment.migrations),
    )


@grid_figure
def fig14b_scheduler_cdf(
    *,
    rps: float = 70.0,
    duration_s: float = 1200.0,
    seed: int = 140,
    restart_seconds: float = 8.0,
) -> SweepSpec:
    """Fig 14b: end-to-end latency CDFs of the four configurations.

    CityLab trace replay.  Paper ordering (at its 50 RPS, payload
    profile unknown): longest-path with migration best (p99 28 s), then
    BFS with migration, then longest-path without migration, then k3s
    (p99 66 s).  Our traffic profile reaches the same regime — the
    bandwidth-aware placement stressed enough that right-timed
    migrations visibly rescue the tail — at 70 RPS (see EXPERIMENTS.md
    for the calibration note).
    """
    return SweepSpec.grid(
        "fig14b",
        _fig14b_cell,
        {"label": tuple(FIG14B_CONFIGURATIONS)},
        fixed={
            "rps": rps,
            "duration_s": duration_s,
            "restart_seconds": restart_seconds,
        },
        label="{label}",
        seed=seed,
    )


# -- Fig 15(b): video bitrates per node under migration thresholds ------------------


@dataclass(frozen=True)
class Fig15bResult:
    """Mean per-client bitrate by node for one threshold setting."""

    threshold: Optional[float]  # None = no migration
    bitrate_by_node: dict[str, float]
    migrations: int


def _fig15b_cell(
    *,
    threshold: Optional[float],
    per_node_clients: int,
    duration_s: float,
    stream_mbps: float,
    seed: int,
) -> Fig15bResult:
    """One migration threshold of Fig 15b (None: no migration)."""
    worker_nodes = ["node1", "node2", "node3", "node4"]
    rng_streams = RngStreams(seed)
    topology = citylab_subset(
        with_traces=True,
        trace_duration_s=duration_s,
        rng=rng_streams.get("traces"),
    )
    env = build_env(topology, seed=seed, restart_seconds=20.0)
    app = VideoConferenceApp.conference_at_nodes(
        worker_nodes, per_node_clients, stream_mbps=stream_mbps
    )
    config = BassConfig(migrations_enabled=threshold is not None)
    if threshold is not None:
        # Persistent saturation makes every placement look somewhat
        # violating; a long minimum residency keeps the SFU from
        # chasing marginal wins (each restart costs 20 s of blank
        # streams, which only amortizes over minutes — §6.3.2).
        config = config.with_migration(
            link_utilization_threshold=threshold,
            min_residency_s=240.0,
        )
    handle = deploy_app(
        env,
        app,
        "bass-longest-path",
        config=config,
        force_assignments={"sfu": "node3"},
    )
    sums: dict[str, float] = {n: 0.0 for n in worker_nodes}
    count = 0

    def sample(t: float) -> None:
        nonlocal count
        by_node = app.mean_bitrate_by_node(handle.binding)
        for node, value in by_node.items():
            sums[node] += value
        count += 1

    run_timeline(env, duration_s, on_tick=sample)
    return Fig15bResult(
        threshold=threshold,
        bitrate_by_node={
            node: total / max(count, 1) for node, total in sums.items()
        },
        migrations=len(handle.deployment.migrations),
    )


@grid_figure
def fig15b_video_thresholds(
    thresholds: tuple[Optional[float], ...] = (None, 0.65, 0.85),
    *,
    per_node_clients: int = 3,
    duration_s: float = 600.0,
    stream_mbps: float = 2.5,
    seed: int = 15,
) -> SweepSpec:
    """Fig 15b: can migrating the SFU rescue poorly-connected clients?

    3 publishing clients at each of the 4 CityLab workers; the SFU
    starts on node3.  With migration at 65 % link utilization the SFU
    moves to better-connected node1 when node3's links saturate, roughly
    doubling node2's clients' bitrate (paper: 240 → 480 Kbps) and
    improving node1's; nodes 3/4 see no improvement.
    """
    return SweepSpec.grid(
        "fig15b",
        _fig15b_cell,
        {"threshold": thresholds},
        fixed={
            "per_node_clients": per_node_clients,
            "duration_s": duration_s,
            "stream_mbps": stream_mbps,
        },
        label="thr={threshold}",
        seed=seed,
    )


# -- Table 1: migration iterations --------------------------------------------


@dataclass(frozen=True)
class Table1Result:
    """Per-iteration (over-quota, migrated) counts, plus the migrations."""

    rows: list[tuple[int, int, int]]
    migrations: list[MigrationRecord]


def table1_migration_iterations(
    *,
    rps: float = 200.0,
    throttle_mbps: float = 25.0,
    total_s: float = 260.0,
    seed: int = 21,
) -> Table1Result:
    """Table 1: components over quota vs migrated, per 30 s iteration.

    The social network runs on the 3-node cluster; the node carrying the
    second-most components has its egress throttled to 25 Mbps (the
    paper throttles "node 3").  Each controller iteration identifies the
    components exceeding their link-utilization quota, then migrates
    only a cascade-free subset — the paper's counts are (6→2), (1→1),
    (1→1), after which the violations clear.
    """
    topology = MeshTopology()
    for name, cores in (("node1", 6.0), ("node2", 8.0), ("node3", 6.0)):
        topology.add_node(MeshNode(name, cpu_cores=cores, memory_mb=131072.0))
    names = topology.node_names
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            topology.add_link(a, b, capacity_mbps=1000.0, latency_ms=0.5)
    env = build_env(topology, seed=seed, buffer_mbit=200.0, restart_seconds=8.0)
    app = SocialNetworkApp(annotate_rps=rps)
    config = BassConfig().with_migration(cooldown_s=0.0)
    handle = deploy_app(env, app, "bass-longest-path", config=config)
    app.set_rps(rps)
    app.update_demands(handle.binding, 0.0)

    # Throttle the node whose egress carries the most inter-node demand
    # (the paper's "node 3"): that is where a 25 Mbps cap bites.
    egress: dict[str, float] = {n: 0.0 for n in env.cluster.node_names}
    for src, dst, _ in handle.binding.inter_node_edges():
        egress[handle.deployment.node_of(src)] += handle.binding.edge_demand(
            src, dst
        )
    victim = max(egress, key=lambda n: egress[n])

    run_timeline(
        env,
        total_s,
        events=[(10.0, lambda: set_node_egress_limit(env, victim, throttle_mbps))],
    )
    return Table1Result(
        rows=handle.controller.table1_rows(),
        migrations=list(handle.deployment.migrations),
    )
