"""Node-churn recovery scenarios (beyond the paper's tables).

The paper's evaluation throttles links; community meshes also lose
whole nodes — a power cut, a reboot, a router wedged until someone
walks over.  This scenario crashes a worker mid-run and measures the
full recovery pipeline end to end:

1. the :class:`~repro.faults.injector.FaultInjector` kills the node and
   the mesh tears down flows crossing it;
2. the :class:`~repro.faults.detector.FailureDetector` notices purely
   from missing heartbeats (measured detection latency, no oracle);
3. the control plane's :class:`~repro.faults.recovery.RecoveryCoordinator`
   evicts the lost pods and re-places them on surviving nodes through
   the same migration machinery the paper's controller uses.

The baseline is a k3s-style deployment that never re-places: the pod
stays bound to the dead node and its edge's goodput flatlines at zero.
Goodput-threshold migrations are disabled in both modes so the only
re-placement path under test is crash recovery itself.

With ``tenants > 1`` every tenant loses its sink at once, so one
recovery round re-places pods for multiple applications under the
fleet arbiter — the crash-time analogue of the multi-tenant migration
races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import BassConfig
from ..faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    NodeCrash,
    RecoveryAction,
    seeded_churn,
)
from ..mesh.topology import citylab_subset
from ..metrics.summary import RecoveryStats, recovery_timeline_stats
from ..obs.trace import TracerBase
from ..runner import SweepSpec
from ..sim.rng import RngStreams
from .common import (
    AppHandle,
    ExperimentEnv,
    RunCapsule,
    build_env,
    checkpointable,
    deploy_app,
    grid_figure,
)
from .multi_tenant import SINK, StreamPairApp

#: The control-plane node collecting heartbeats.
OBSERVER = "node0"


@dataclass
class ChurnResult:
    """One churn run: a node crash and whatever recovery followed."""

    label: str
    crash_node: str
    crash_at_s: float
    duration_s: float
    recovery_enabled: bool
    #: Sampled fleet-mean goodput timeline (0.0 while traffic is lost).
    times: list[float] = field(repr=False)
    goodput: list[float] = field(repr=False)
    #: Measured heartbeat detection latency (None: never confirmed).
    detection_latency_s: Optional[float]
    confirmed_at_s: Optional[float]
    #: Per-pod recovery outcomes (empty without recovery / detection).
    actions: list[RecoveryAction]
    conflict_count: int
    epoch_interval_s: float
    goodput_stats: RecoveryStats

    @property
    def recovered_pods(self) -> int:
        return sum(1 for a in self.actions if a.succeeded)

    @property
    def stranded_pods(self) -> int:
        return sum(1 for a in self.actions if not a.succeeded)

    @property
    def time_to_recover_s(self) -> Optional[float]:
        """Crash to sustained ≥90 % of pre-crash goodput (None: never)."""
        return self.goodput_stats.time_to_recover_s

    @property
    def replacement_delay_s(self) -> Optional[float]:
        """Crash to the first successful re-placement (None: none)."""
        succeeded = [a.time for a in self.actions if a.succeeded]
        if not succeeded:
            return None
        return min(succeeded) - self.crash_at_s


def _fleet_goodput(
    env: ExperimentEnv, handles: list[AppHandle], now: float
) -> float:
    """Mean delivered goodput across every tenant edge.

    Honest about outages: an edge whose endpoint sits on a down node, or
    whose component is mid-restart, delivers nothing — unlike the
    controller's view, where restart silence is the migration's own cost.
    """
    down = env.topology.down_nodes
    values = []
    for handle in handles:
        deployment = handle.deployment
        for src, dst, _ in handle.dag.edges():
            if (
                deployment.node_of(src) in down
                or deployment.node_of(dst) in down
                or not deployment.is_available(src, now)
                or not deployment.is_available(dst, now)
            ):
                values.append(0.0)
                continue
            values.append(handle.binding.goodput(src, dst))
    return sum(values) / len(values) if values else 1.0


@dataclass
class PreparedChurn:
    """A fully-wired churn run: what :func:`churn_recovery` builds.

    The batch sweep drives it to the horizon, while the live status
    plane (``bass-repro serve``) ticks it incrementally, both sampling
    through :meth:`sample`.
    """

    env: ExperimentEnv
    handles: list[AppHandle]
    detector: FailureDetector
    injector: FaultInjector
    recovery_enabled: bool
    crash_node: str
    crash_at_s: float
    epoch_interval_s: float
    #: The result's label (None: ``bass`` / ``k3s`` by recovery mode).
    label: Optional[str] = None
    times: list[float] = field(default_factory=list)
    goodput: list[float] = field(default_factory=list)

    def sample(self, now: float) -> None:
        """The per-tick observer: fleet-mean goodput at ``now``."""
        self.times.append(now)
        self.goodput.append(_fleet_goodput(self.env, self.handles, now))

    def result(self, duration_s: float) -> ChurnResult:
        """Assemble the :class:`ChurnResult` once the clock has run."""
        env = self.env
        latency = self.detector.detection_latency_s.get(self.crash_node)
        coordinator = env.control_plane.recovery
        return ChurnResult(
            label=(
                self.label
                if self.label is not None
                else ("bass" if self.recovery_enabled else "k3s")
            ),
            crash_node=self.crash_node,
            crash_at_s=self.crash_at_s,
            duration_s=duration_s,
            recovery_enabled=self.recovery_enabled,
            times=self.times,
            goodput=self.goodput,
            detection_latency_s=latency,
            confirmed_at_s=(
                self.crash_at_s + latency if latency is not None else None
            ),
            actions=(
                list(coordinator.actions) if coordinator is not None else []
            ),
            conflict_count=env.control_plane.arbiter.conflict_count,
            epoch_interval_s=self.epoch_interval_s,
            goodput_stats=recovery_timeline_stats(
                self.times, self.goodput, fault_at_s=self.crash_at_s
            ),
        )


@checkpointable
def churn_recovery(
    *,
    tenants: int = 1,
    duration_s: float = 240.0,
    seed: int,
    crash_node: str = "node2",
    crash_at_s: float = 60.0,
    reboot_after_s: Optional[float] = None,
    demand_mbps: float = 2.0,
    source_node: str = "node1",
    recovery: bool = True,
    label: Optional[str] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
    config: Optional[BassConfig] = None,
    tracer: Optional[TracerBase] = None,
    env: Optional[ExperimentEnv] = None,
    extra_faults: tuple = (),
) -> RunCapsule:
    """Crash ``crash_node`` mid-run and measure detection + recovery.

    Every tenant is a pinned-source stream pair whose sink starts on
    ``crash_node``, so the crash severs all of them at once.  With
    ``recovery=True`` the failure detector's confirmation triggers
    fleet-arbitrated re-placement (BASS); with ``recovery=False`` the
    pods stay bound to the dead node forever (the k3s baseline).

    Args:
        tenants: co-deployed stream pairs (>1 exercises the arbiter).
        crash_at_s: when the node dies.
        reboot_after_s: bring the node back after this long (None: stays
            dead).  Recovery has already moved the pods by then; the
            detector just reports the node alive again.
        recovery: wire detector confirmations into crash recovery.
        heartbeat: detection timing; defaults to 5 s beats, suspect
            after 2 misses, confirm after 4.
        config: per-tenant BASS config.  Defaults disable goodput
            migrations so crash recovery is the only re-placement path.
        env: reuse a pre-built substrate (tests pre-populate the mesh).
        extra_faults: events appended to the crash plan (e.g. an
            :class:`~repro.faults.plan.OrchestratorKill`); the failover
            experiment layers its outage on this substrate.
    """
    if config is None:
        config = BassConfig(migrations_enabled=False)
    config = config.validate()
    if env is None:
        env = build_env(seed=seed, with_traces=False, tracer=tracer)
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
                "bass-longest-path" if recovery else "k3s",
                config=config,
                force_assignments={SINK: crash_node},
            )
        )

    plan = FaultPlan(
        [NodeCrash(crash_at_s, crash_node, reboot_after_s=reboot_after_s)]
        + list(extra_faults)
    )
    injector = FaultInjector(
        plan,
        env.netem,
        tracer=env.tracer,
        control_plane=env.control_plane,
    )
    injector.install()
    detector = FailureDetector(
        env.netem,
        OBSERVER,
        config=heartbeat,
        injector=injector,
        tracer=env.tracer,
    )
    detector.start()
    if recovery:
        env.control_plane.enable_recovery(detector)

    prepared = PreparedChurn(
        env=env,
        handles=handles,
        detector=detector,
        injector=injector,
        recovery_enabled=recovery,
        crash_node=crash_node,
        crash_at_s=crash_at_s,
        epoch_interval_s=config.probe.headroom_interval_s,
        label=label,
    )
    return RunCapsule(
        env=env,
        prepared=prepared,
        duration_s=duration_s,
        on_tick=prepared.sample,
    )


def _churn_seed_cell(*, seed: int, settle_s: float = 120.0) -> ChurnResult:
    """One randomized-churn cell: draw a crash plan from ``seed``, run
    recovery, and give the mesh ``settle_s`` after the crash.

    The crash plan is drawn from the same seeded RNG streams the run
    itself uses, so the cell is fully determined by its ``seed`` — the
    property the seeded sweep (and its cache entries) relies on.
    """
    topology = citylab_subset(with_traces=False)
    movable = [n for n in topology.worker_names if n != "node1"]
    plan = seeded_churn(
        topology,
        RngStreams(seed),
        duration_s=settle_s,
        crash_count=1,
        candidates=movable,  # node1 hosts the pinned source
    )
    crash = plan.events[0]
    return churn_recovery(
        seed=seed,
        duration_s=crash.at_s + settle_s,
        crash_node=crash.node,
        crash_at_s=crash.at_s,
    )


#: Seeds the paper-scale churn sweep replays (one crash plan per seed).
DEFAULT_CHURN_SEEDS = (0, 1, 2, 3, 4, 5)


def churn_seed_sweep_spec(
    *, seeds: tuple[int, ...] = DEFAULT_CHURN_SEEDS, settle_s: float = 120.0
) -> SweepSpec:
    """The randomized-churn seed sweep as a sweep spec."""
    return SweepSpec.grid(
        "churn-seeds",
        _churn_seed_cell,
        {"seed": seeds},
        fixed={"settle_s": settle_s},
        label="seed{seed}",
    )


@grid_figure
def churn_comparison(
    *,
    duration_s: float = 240.0,
    seed: int = 23,
    crash_node: str = "node2",
    crash_at_s: float = 60.0,
    tenants: int = 1,
) -> SweepSpec:
    """BASS-with-recovery, then the never-re-placing k3s baseline.

    Identical seed, topology, workload, and crash; the only difference
    is whether detector confirmations drive re-placement (each run
    labels itself ``bass`` / ``k3s``).
    """
    return SweepSpec.grid(
        "churn-comparison",
        churn_recovery,
        {"recovery": (True, False)},
        fixed={
            "tenants": tenants,
            "duration_s": duration_s,
            "crash_node": crash_node,
            "crash_at_s": crash_at_s,
        },
        label="recovery={recovery}",
        seed=seed,
    )
