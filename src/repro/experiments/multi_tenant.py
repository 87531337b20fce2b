"""Multi-tenant control-plane scenarios.

The paper's mesh hosts several applications at once (§6 co-deploys the
social network, the video conference, and the camera pipeline), which
raises two scaling questions the single-app experiments cannot answer:

* Does probe traffic grow with the number of tenants?  With the shared
  fleet monitor it must not: links are probed once per controller epoch
  no matter how many applications use them, so probe events per hour
  stay flat as tenants are added.
* Do concurrent migrations race?  When one congestion event puts every
  tenant in violation simultaneously, each controller independently
  picks the *same* escape node.  The fleet arbiter serializes those
  choices inside an epoch — first (most-severe) tenant claims the node,
  the rest are deflected to the next-best target or wait an epoch.

Tenants here are deliberately tiny: a :class:`StreamPairApp` is one
``source → sink`` edge with a constant bandwidth annotation, the
minimal workload that exercises probing, violation detection, and
migration.  All tenants share one path so probe deduplication and
target contention are maximal — the worst case for the control plane.

All scenarios run on the default one-region control plane and accept
``fleet=FleetConfig(regions=N)`` to shard it.  The many-region scenarios
proper — backbone meshes, forced cross-region handoffs — live in
:mod:`repro.experiments.fleet` and reuse :class:`StreamPairApp` and
:func:`fleet_probe_stats` from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.base import Application
from ..config import BassConfig, FleetConfig
from ..core.controller import ControllerIteration
from ..core.dag import Component, ComponentDAG
from ..runner import SweepSpec
from .common import (
    AppHandle,
    ExperimentEnv,
    build_env,
    deploy_app,
    run_timeline,
    set_node_egress_limit,
)

SOURCE = "source"
SINK = "sink"


class StreamPairApp(Application):
    """A two-component tenant: pinned ``source`` streaming to ``sink``.

    Args:
        name: tenant identifier (also the deployment/app name).
        demand_mbps: the edge's bandwidth annotation and constant demand.
        source_node: where the source is pinned (a camera, a sensor —
            the paper's workloads all have immovable producers).
    """

    def __init__(
        self,
        name: str,
        *,
        demand_mbps: float = 2.0,
        source_node: str = "node1",
    ) -> None:
        self.name = name
        self.demand_mbps = demand_mbps
        self.source_node = source_node

    def build_dag(self) -> ComponentDAG:
        dag = ComponentDAG(self.name)
        dag.add_component(
            Component(
                SOURCE, cpu=1.0, memory_mb=256, pinned_node=self.source_node
            )
        )
        dag.add_component(Component(SINK, cpu=1.0, memory_mb=256))
        dag.add_dependency(SOURCE, SINK, self.demand_mbps)
        return dag.validate()


@dataclass
class MultiTenantResult:
    """Fleet-level accounting of one multi-tenant run."""

    tenants: int
    duration_s: float
    #: Probe events across every monitor in the env (one shared view
    #: per region; per-app monitors with sharing disabled).
    full_probes: int
    headroom_probes: int
    headroom_cache_hits: int
    probe_events_per_hour: float
    #: Fleet-epoch and arbiter accounting.
    epoch_count: int
    conflict_count: int
    migrations_by_app: dict[str, int] = field(default_factory=dict)
    iterations_by_app: dict[str, list[ControllerIteration]] = field(
        default_factory=dict
    )

    @property
    def total_migrations(self) -> int:
        return sum(self.migrations_by_app.values())


def fleet_probe_stats(
    handles: list[AppHandle], duration_s: float
) -> tuple[int, int, int, float]:
    """(full, headroom, cache hits, events/hour) over distinct monitors."""
    monitors = list({id(h.monitor): h.monitor for h in handles}.values())
    full = sum(m.full_probe_count for m in monitors)
    headroom = sum(m.headroom_probe_count for m in monitors)
    hits = sum(m.headroom_cache_hits for m in monitors)
    events = sum(len(m.probe_log) for m in monitors)
    per_hour = events * 3600.0 / duration_s if duration_s > 0 else 0.0
    return full, headroom, hits, per_hour


def multi_tenant_mesh(
    *,
    tenants: int = 4,
    duration_s: float = 240.0,
    seed: int = 11,
    demand_mbps: float = 2.0,
    source_node: str = "node1",
    sink_node: str = "node2",
    throttle_mbps: Optional[float] = None,
    throttle_at_s: float = 60.0,
    fleet: Optional[FleetConfig] = None,
    config: Optional[BassConfig] = None,
    env: Optional[ExperimentEnv] = None,
) -> MultiTenantResult:
    """Run ``tenants`` identical stream pairs over one mesh path.

    Every tenant's source is pinned at ``source_node`` and its sink is
    initially forced to ``sink_node``, so all tenants stress the same
    links — the worst case for probe duplication and, once
    ``throttle_mbps`` kicks in at ``throttle_at_s``, for migration
    races (every controller wants the same escape node).

    Args:
        tenants: number of co-deployed stream pairs.
        duration_s: run horizon (epochs every 30 s by default).
        seed: master seed (static links; seeds workload jitter only).
        demand_mbps: per-tenant demand on the shared path.
        throttle_mbps: tc-style egress limit imposed on ``source_node``
            at ``throttle_at_s``; None runs an uncongested mesh.
        fleet: control-plane knobs (e.g. disable probe sharing to
            measure the duplicated-probe baseline).
        config: per-tenant BASS config, shared by all tenants.
        env: reuse a pre-built substrate (tests use this to co-deploy
            tenants onto an already-populated mesh).
    """
    if env is None:
        env = build_env(seed=seed, with_traces=False, fleet=fleet)
    handles = []
    for index in range(tenants):
        app = StreamPairApp(
            f"tenant{index:02d}",
            demand_mbps=demand_mbps,
            source_node=source_node,
        )
        handles.append(
            deploy_app(
                env,
                app,
                "bass-longest-path",
                config=config,
                force_assignments={SINK: sink_node},
            )
        )
    events = []
    if throttle_mbps is not None:
        events.append(
            (
                throttle_at_s,
                lambda: set_node_egress_limit(
                    env, source_node, throttle_mbps
                ),
            )
        )
    run_timeline(env, duration_s, events=events)

    full, headroom, hits, per_hour = fleet_probe_stats(handles, duration_s)
    arbiter = env.control_plane.arbiter
    return MultiTenantResult(
        tenants=tenants,
        duration_s=duration_s,
        full_probes=full,
        headroom_probes=headroom,
        headroom_cache_hits=hits,
        probe_events_per_hour=per_hour,
        epoch_count=arbiter.epoch_count,
        conflict_count=arbiter.conflict_count,
        migrations_by_app={
            h.app.name: len(h.deployment.migrations) for h in handles
        },
        iterations_by_app={
            h.app.name: h.controller.iterations for h in handles
        },
    )


def multi_tenant_contention(
    *,
    tenants: int = 4,
    duration_s: float = 180.0,
    seed: int = 11,
    fleet: Optional[FleetConfig] = None,
) -> MultiTenantResult:
    """The migration-race scenario: one throttle, every tenant reacts.

    A 3 Mbps egress throttle at the shared source node at t=60 s puts
    all tenants' edges below the goodput threshold at once.  Each
    controller's preferred escape is co-location at the source node;
    the arbiter admits one tenant per epoch onto it and deflects the
    rest, so ``conflict_count`` counts the serialized races.
    """
    config = BassConfig().with_migration(
        cooldown_s=10.0, restart_seconds=5.0
    )
    return multi_tenant_mesh(
        tenants=tenants,
        duration_s=duration_s,
        seed=seed,
        throttle_mbps=3.0,
        throttle_at_s=60.0,
        fleet=fleet,
        config=config,
    )


# -- sweeps -------------------------------------------------------------------


def _mesh_cell(
    *,
    tenants: int,
    duration_s: float,
    seed: int = 11,
    probe_sharing: bool = True,
) -> MultiTenantResult:
    """One tenant-scaling cell (uncongested mesh, probe accounting)."""
    fleet = None if probe_sharing else FleetConfig(probe_sharing=False)
    return multi_tenant_mesh(
        tenants=tenants, duration_s=duration_s, seed=seed, fleet=fleet
    )


def multi_tenant_scaling_spec(
    *,
    tenant_counts: tuple[int, ...] = (1, 2, 4, 8),
    duration_s: float = 240.0,
    seed: int = 11,
    probe_sharing: bool = True,
) -> SweepSpec:
    """Probe-traffic scaling across tenant counts as a sweep spec."""
    return SweepSpec.grid(
        "multitenant-scaling",
        _mesh_cell,
        {"tenants": tenant_counts},
        fixed={
            "duration_s": duration_s,
            "seed": seed,
            "probe_sharing": probe_sharing,
        },
        label="tenants{tenants}",
    )


def contention_sweep_spec(
    *,
    tenant_counts: tuple[int, ...] = (2, 4, 8),
    duration_s: float = 180.0,
    seed: int = 11,
) -> SweepSpec:
    """Migration-race severity across tenant counts as a sweep spec."""
    return SweepSpec.grid(
        "multitenant-contention",
        multi_tenant_contention,
        {"tenants": tenant_counts},
        fixed={"duration_s": duration_s, "seed": seed},
        label="tenants{tenants}",
    )
