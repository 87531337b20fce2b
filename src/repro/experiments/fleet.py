"""Regionalized fleet scenarios: sharded schedulers over one mesh.

The single-loop control plane (``experiments.multi_tenant``) answers
how far one scheduler scales; this module answers what happens when the
mesh outgrows it.  A :func:`~repro.mesh.topology.regional_mesh` of
dense neighbourhoods joined by a thin backbone is split into regions,
each running its own observe/plan/act loop over a region-scoped monitor
view, with the fleet arbiter resolving claim batches eventually
consistently and brokering cross-region migrations through the
two-phase handoff protocol.

Two scenario shapes:

* :func:`fleet_mesh` — steady-state scaling: tenants spread round-robin
  across regions, no congestion.  The claim to verify is flatness —
  per-link probe rate and per-round decision latency must not grow as
  ``tenants x regions`` scales up (each region only probes and plans
  over its own slice).
* :func:`fleet_handoff` — forced cross-region pressure: every tenant is
  homed in region 0, the region's only intra-region link is throttled,
  and its ledger is packed full, so the only escape is a handoff into
  region 1.  Exercises request → release → admit → commit end to end,
  plus denial when two tenants race for the same remote node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..config import BassConfig, FleetConfig
from ..core.controller import ControllerIteration
from ..mesh.topology import regional_mesh, regional_specs
from ..runner import SweepSpec
from .common import (
    AppHandle,
    ExperimentEnv,
    RunCapsule,
    build_env,
    checkpointable,
    deploy_app,
)
from .multi_tenant import SINK, StreamPairApp, fleet_probe_stats


@dataclass
class FleetResult:
    """Fleet-level accounting of one many-region run."""

    regions: int
    tenants: int
    duration_s: float
    full_probes: int
    headroom_probes: int
    probe_events_per_hour: float
    #: Links inside some region's jurisdiction (the probed set; backbone
    #: links between regions are never flooded by a region's monitor).
    intra_region_links: int
    epoch_count: int
    #: Per-fleet-round decision latency: max over regions of plan+act
    #: wall time (regions run in parallel) plus arbiter resolution.
    decision_seconds: list[float]
    conflict_count: int
    #: Handoff records by phase (terminal phases after the run settles).
    handoff_counts: dict[str, int] = field(default_factory=dict)
    handoff_latencies: list[float] = field(default_factory=list)
    migrations_by_app: dict[str, int] = field(default_factory=dict)
    #: Migrations whose source and target lie in different regions —
    #: every one must have travelled through the handoff protocol.
    cross_region_migrations: int = 0
    tenants_by_region: dict[str, int] = field(default_factory=dict)
    iterations_by_app: dict[str, list[ControllerIteration]] = field(
        default_factory=dict
    )

    @property
    def total_migrations(self) -> int:
        return sum(self.migrations_by_app.values())

    @property
    def probe_events_per_link_hour(self) -> float:
        """Per-link probe rate — the quantity that must stay flat as the
        fleet grows (total probes scale with links, not with tenants)."""
        if self.intra_region_links == 0:
            return 0.0
        return self.probe_events_per_hour / self.intra_region_links

    @property
    def committed_handoffs(self) -> int:
        return self.handoff_counts.get("committed", 0)


@dataclass
class PreparedFleet:
    """A built fleet substrate: what :func:`fleet_mesh` wires."""

    env: ExperimentEnv
    handles: list[AppHandle]
    regions: int
    tenants: int

    def result(self, duration_s: float) -> FleetResult:
        """Assemble the fleet accounting after the clock has run."""
        env = self.env
        handles = self.handles
        cp = env.control_plane
        full, headroom, per_hour = fleet_probe_stats(handles, duration_s)
        arbiter = cp.arbiter
        region_map = cp.region_map
        intra_links = sum(
            1
            for link in env.topology.links
            if region_map.region_of(link.id[0])
            == region_map.region_of(link.id[1])
        )
        cross = 0
        for handle in handles:
            for record in handle.deployment.migrations:
                if region_map.region_of(
                    record.from_node
                ) != region_map.region_of(record.to_node):
                    cross += 1
        tenants_by_region: dict[str, int] = {}
        for handle in handles:
            home = cp.home_region(handle.app.name)
            tenants_by_region[home] = tenants_by_region.get(home, 0) + 1
        return FleetResult(
            regions=self.regions,
            tenants=self.tenants,
            duration_s=duration_s,
            full_probes=full,
            headroom_probes=headroom,
            probe_events_per_hour=per_hour,
            intra_region_links=intra_links,
            epoch_count=arbiter.epoch_count,
            decision_seconds=list(cp.epoch_decision_seconds),
            conflict_count=arbiter.conflict_count,
            handoff_counts=arbiter.handoff_counts(),
            handoff_latencies=[
                request.latency_s
                for request in arbiter.handoffs
                if request.latency_s is not None
            ],
            migrations_by_app={
                h.app.name: len(h.deployment.migrations) for h in handles
            },
            cross_region_migrations=cross,
            tenants_by_region=tenants_by_region,
            iterations_by_app={
                h.app.name: h.controller.iterations for h in handles
            },
        )


@checkpointable
def fleet_mesh(
    *,
    regions: int = 2,
    tenants: int = 4,
    nodes_per_region: int = 3,
    duration_s: float = 240.0,
    seed: int = 11,
    demand_mbps: float = 2.0,
    node_cpu_cores: float = 8.0,
    pin_region: Optional[int] = None,
    throttle_link_mbps: Optional[float] = None,
    throttle_at_s: float = 60.0,
    config: Optional[BassConfig] = None,
    env: Optional[ExperimentEnv] = None,
) -> RunCapsule:
    """Run a many-region fleet of stream-pair tenants.

    Tenants are dealt round-robin across regions (tenant ``i`` lives in
    region ``i % regions``): its source is pinned at the region gateway
    ``r{k}n1`` and its sink starts on ``r{k}n2`` (on the gateway itself
    in single-node regions), so every tenant's traffic is intra-region
    until congestion pushes it out.

    Args:
        regions: number of regions (each a dense full-mesh
            neighbourhood; gateways joined by a backbone ring).
        tenants: total tenants across the fleet.
        pin_region: home *every* tenant in this region instead of
            round-robin (the handoff-pressure scenarios).
        throttle_link_mbps: tc-style limit imposed at ``throttle_at_s``
            on the home region's ``r{k}n1 -> r{k}n2`` link — congestion
            that cannot be escaped over the same link, so the planner
            must look at other nodes (and, with the region packed full,
            other regions).
        env: reuse a pre-built substrate (its region layout is used).
    """
    if env is None:
        topology = regional_mesh(
            regions, nodes_per_region, cpu_cores=node_cpu_cores
        )
        fleet = FleetConfig(
            region_specs=regional_specs(regions, nodes_per_region)
        )
        env = build_env(
            topology=topology, seed=seed, with_traces=False, fleet=fleet
        )
    handles: list[AppHandle] = []
    for index in range(tenants):
        home = pin_region if pin_region is not None else index % regions
        source = f"r{home}n1"
        sink = f"r{home}n2" if nodes_per_region >= 2 else source
        app = StreamPairApp(
            f"tenant{index:02d}",
            demand_mbps=demand_mbps,
            source_node=source,
        )
        handles.append(
            deploy_app(
                env,
                app,
                "bass-longest-path",
                config=config,
                force_assignments={SINK: sink},
            )
        )
    events = []
    if throttle_link_mbps is not None:
        throttled = sorted(
            {
                (f"r{k}n1", f"r{k}n2")
                for k in (
                    {pin_region}
                    if pin_region is not None
                    else {i % regions for i in range(tenants)}
                )
            }
        )
        for src, dst in throttled:
            if nodes_per_region < 2:
                continue
            link = env.topology.link(src, dst)
            events.append(
                (
                    throttle_at_s,
                    partial(
                        link.set_rate_limit,
                        throttle_link_mbps,
                        src=src,
                        dst=dst,
                    ),
                )
            )
    return RunCapsule(
        env=env,
        prepared=PreparedFleet(
            env=env, handles=handles, regions=regions, tenants=tenants
        ),
        duration_s=duration_s,
        events=tuple(events),
    )


#: Stream pairs homed in region 0 by the handoff-pressure scenario.
HANDOFF_TENANTS = 2


def fleet_handoff(*, duration_s: float = 180.0, seed: int) -> FleetResult:
    """The cross-region pressure scenario: region 0 must hand off.

    Two-node regions with just enough CPU for the tenants homed there:
    :data:`HANDOFF_TENANTS` stream pairs pack region 0 completely
    (sources fill the gateway, sinks fill the second node).  At t=60 s
    the region's only intra-region link is throttled below the tenants'
    demand — every sink is in violation, no region-0 node can fit an
    escape, and the planner escalates across the boundary.  Region 1 is
    idle and has room, so handoffs release, admit, and commit there; two
    tenants racing for the same remote node exercise the denial path.
    """
    config = BassConfig().with_migration(cooldown_s=10.0)
    return fleet_mesh(
        regions=2,
        tenants=HANDOFF_TENANTS,
        nodes_per_region=2,
        duration_s=duration_s,
        seed=seed,
        demand_mbps=2.0,
        node_cpu_cores=float(HANDOFF_TENANTS),
        pin_region=0,
        throttle_link_mbps=0.5,
        throttle_at_s=60.0,
        config=config,
    )


#: The scaling row's fleet grows by this many tenants per region.
TENANTS_PER_REGION = 2
#: The scaling row's seed.
FLEET_SCALING_SEED = 11


@checkpointable
def _fleet_scaling_cell(
    *, regions: int, duration_s: float, seed: int
) -> RunCapsule:
    """One region count of the scaling row: the fleet grows with it."""
    return fleet_mesh.capsule(
        regions=regions,
        tenants=TENANTS_PER_REGION * regions,
        duration_s=duration_s,
        seed=seed,
    )


def fleet_scaling_spec(
    *,
    region_counts: tuple[int, ...] = (1, 2),
    duration_s: float = 240.0,
) -> SweepSpec:
    """Steady-state scaling as a grid over region counts — probe rate
    per link and decision latency must stay flat across its cells."""
    return SweepSpec.grid(
        "fleet-scaling",
        _fleet_scaling_cell,
        {"regions": region_counts},
        fixed={"duration_s": duration_s},
        label="regions{regions}",
        seed=FLEET_SCALING_SEED,
    )
