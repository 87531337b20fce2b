"""Motivation experiments (§2): Figs 2, 4, and 5.

* Fig 2 — bandwidth variation on two CityLab links (10 s rolling mean).
* Fig 4 — Pion per-client bitrate and packet loss vs participant count
  over a 30 Mbps bottleneck, scheduled by bandwidth-oblivious k3s.
* Fig 5 — social-network average latency before/during/after a 25 Mbps
  throttle, deployed by k3s with no migration support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.social import SocialNetworkApp
from ..apps.video import Participant, VideoConferenceApp
from ..config import BassConfig
from ..mesh.topology import full_mesh_topology
from ..mesh.tracegen import (
    citylab_stable_link_trace,
    citylab_variable_link_trace,
)
from ..runner import SweepSpec
from .common import (
    build_env,
    deploy_app,
    grid_figure,
    run_timeline,
    set_node_egress_limit,
)


# -- Fig 2 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Link:
    """Rolling-mean series and summary stats for one link."""

    label: str
    mean_mbps: float
    rel_std: float
    times: np.ndarray
    rolling_mbps: np.ndarray


def fig2_bandwidth_variation(
    *, duration_s: float = 3600.0, seed: int = 2
) -> list[Fig2Link]:
    """Generate the two CityLab-style traces and their 10 s rolling means.

    Paper values: stable link mean 19.9 Mbps (std 10 % of mean),
    variable link mean 7.62 Mbps (std 27 % of mean).
    """
    rng_stable = np.random.default_rng(seed)
    rng_variable = np.random.default_rng(seed + 1)
    results = []
    for label, trace in (
        ("stable", citylab_stable_link_trace(duration_s, rng=rng_stable)),
        ("variable", citylab_variable_link_trace(duration_s, rng=rng_variable)),
    ):
        smoothed = trace.rolling_mean(10.0)
        stats = trace.stats()
        results.append(
            Fig2Link(
                label=label,
                mean_mbps=stats.mean_mbps,
                rel_std=stats.rel_std,
                times=smoothed.times,
                rolling_mbps=smoothed.values,
            )
        )
    return results


# -- Fig 4 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Point:
    """One participant-count configuration's outcome."""

    participants: int
    per_client_mbps: float
    loss_fraction: float


def _fig4_cell(
    *,
    participants: int,
    bottleneck_mbps: float,
    stream_mbps: float,
    settle_s: float,
) -> Fig4Point:
    """One participant count of Fig 4 (seeded by the count itself)."""
    topology = full_mesh_topology(3, capacity_mbps=1000.0)
    env = build_env(topology, seed=participants)
    app = VideoConferenceApp(
        [
            Participant(f"p{i}", "node3", publishes=(i == 0))
            for i in range(participants)
        ],
        stream_mbps=stream_mbps,
    )
    handle = deploy_app(
        env,
        app,
        "k3s",
        config=BassConfig(migrations_enabled=False),
        start_controller=False,
        force_assignments={"sfu": "node2"},
    )
    set_node_egress_limit(env, "node2", bottleneck_mbps)
    bitrates: list[float] = []
    losses: list[float] = []

    def sample(t: float) -> None:
        if t < settle_s / 2:
            return  # let queues reach steady state
        rates = [
            app.client_bitrate_mbps(p, handle.binding)
            for p in app.participants
            if app.subscribed_streams(p) > 0
        ]
        bitrates.append(float(np.mean(rates)))
        losses.append(
            float(
                np.mean(
                    [
                        app.client_loss_fraction(p, handle.binding)
                        for p in app.participants
                    ]
                )
            )
        )

    run_timeline(env, settle_s, on_tick=sample)
    return Fig4Point(
        participants=participants,
        per_client_mbps=float(np.mean(bitrates)),
        loss_fraction=float(np.mean(losses)),
    )


@grid_figure
def fig4_pion_bottleneck(
    participant_counts: tuple[int, ...] = (4, 6, 8, 10, 11, 12, 13, 14),
    *,
    bottleneck_mbps: float = 30.0,
    stream_mbps: float = 3.0,
    settle_s: float = 60.0,
) -> SweepSpec:
    """Fig 4: per-client bitrate and loss vs participant count.

    Setup mirrors Fig 3: a 3-node LAN, the Pion SFU on node2, all
    participants on node3, one of them publishing; node2's egress is
    capped at 30 Mbps.  Past ``bottleneck/stream`` receivers the fair
    share per client drops below the stream rate and the queue starts
    dropping packets.
    """
    return SweepSpec.grid(
        "fig4",
        _fig4_cell,
        {"participants": participant_counts},
        fixed={
            "bottleneck_mbps": bottleneck_mbps,
            "stream_mbps": stream_mbps,
            "settle_s": settle_s,
        },
        label="p{participants}",
    )


# -- Fig 5 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5Series:
    """Per-second average latency with the throttle window marked."""

    times: np.ndarray
    latency_s: np.ndarray
    throttle_start_s: float
    throttle_end_s: float

    def phase_means(self) -> tuple[float, float, float]:
        """(before, during, after) mean latency."""
        before = self.latency_s[self.times < self.throttle_start_s]
        during = self.latency_s[
            (self.times >= self.throttle_start_s)
            & (self.times < self.throttle_end_s)
        ]
        after = self.latency_s[self.times >= self.throttle_end_s]
        return (
            float(before.mean()),
            float(during.mean()),
            float(after.mean()),
        )


def fig5_socialnet_throttle(
    *,
    rps: float = 400.0,
    throttle_mbps: float = 25.0,
    throttle_start_s: float = 120.0,
    throttle_duration_s: float = 120.0,
    total_s: float = 360.0,
    seed: int = 5,
) -> Fig5Series:
    """Fig 5: k3s-deployed social network through a 25 Mbps throttle.

    The throttle hits the egress of the node hosting the post-storage
    service (the hottest server-side component), reproducing the
    "bandwidth becomes insufficient" condition.  No migrations — k3s is
    bandwidth-oblivious.
    """
    topology = full_mesh_topology(3, capacity_mbps=1000.0)
    env = build_env(topology, seed=seed, buffer_mbit=200.0)
    app = SocialNetworkApp(annotate_rps=rps)
    handle = deploy_app(
        env,
        app,
        "k3s",
        config=BassConfig(migrations_enabled=False),
        start_controller=False,
    )
    app.set_rps(rps)
    app.update_demands(handle.binding, 0.0)
    rng = env.rng.get("latency")
    hot_node = handle.deployment.node_of("post-storage-service")

    times: list[float] = []
    latencies: list[float] = []

    def sample(t: float) -> None:
        samples = app.sample_latencies_s(handle.binding, 10, rng)
        times.append(t)
        latencies.append(float(np.mean(samples)))

    throttle_end = throttle_start_s + throttle_duration_s
    run_timeline(
        env,
        total_s,
        on_tick=sample,
        events=[
            (
                throttle_start_s,
                lambda: set_node_egress_limit(env, hot_node, throttle_mbps),
            ),
            (throttle_end, lambda: set_node_egress_limit(env, hot_node, None)),
        ],
    )
    return Fig5Series(
        times=np.asarray(times),
        latency_s=np.asarray(latencies),
        throttle_start_s=throttle_start_s,
        throttle_end_s=throttle_end,
    )
