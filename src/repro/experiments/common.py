"""Shared experiment harness.

Assembles the full stack — topology, engine, network emulator, cluster
ledger, orchestrator — and wires an application through scheduling,
deployment, flow binding, monitoring, and (optionally) the bandwidth
controller.  Every scenario module builds on these helpers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..apps.base import Application
from ..cluster.orchestrator import ClusterState, Orchestrator
from ..config import BassConfig, FleetConfig
from ..core.binding import DeploymentBinding
from ..core.controller import BandwidthController
from ..core.controlplane import ControlPlane
from ..core.dag import ComponentDAG
from ..core.netmonitor import NetMonitor
from ..core.registry import get_scheduler
from ..mesh.topology import MeshTopology, citylab_subset
from ..net.netem import NetworkEmulator
from ..obs.trace import NULL_TRACER, TracerBase, resolve_tracer
from ..runner import SweepSpec, run_sweep
from ..sim.engine import Engine
from ..sim.rng import RngStreams


@dataclass
class ExperimentEnv:
    """The assembled substrate for one experiment run."""

    topology: MeshTopology
    engine: Engine
    netem: NetworkEmulator
    cluster: ClusterState
    orchestrator: Orchestrator
    rng: RngStreams
    #: The mesh's one control plane: region map, shared monitor, epoch
    #: loop, arbiter.
    control_plane: ControlPlane
    #: Flight recorder shared by every layer of this env (the no-op
    #: tracer unless one was passed to or resolved by :func:`build_env`).
    tracer: TracerBase = NULL_TRACER


@dataclass
class AppHandle:
    """One deployed application and its BASS machinery."""

    app: Application
    dag: ComponentDAG
    binding: DeploymentBinding
    controller: BandwidthController
    assignments: dict[str, str] = field(default_factory=dict)

    @property
    def deployment(self):
        return self.binding.deployment

    @property
    def monitor(self) -> NetMonitor:
        """The controller's current monitor: the control plane re-points
        it when the tenant's home region moves."""
        return self.controller.monitor


def build_env(
    topology: Optional[MeshTopology] = None,
    *,
    seed: int = 0,
    with_traces: bool = True,
    trace_duration_s: float = 1200.0,
    buffer_mbit: float = 25.0,
    tick_s: float = 1.0,
    restart_seconds: float = 20.0,
    fleet: Optional[FleetConfig] = None,
    tracer: Optional[TracerBase] = None,
) -> ExperimentEnv:
    """Assemble an experiment substrate.

    Args:
        topology: mesh to run on; defaults to the 5-node CityLab subset.
        seed: master seed for all randomness (traces, workloads, jitter).
        with_traces: only used when building the default topology.
        trace_duration_s: length of generated traces.
        buffer_mbit: per-link queue buffer (raise for bufferbloat-heavy
            scenarios like the social-network mesh runs).
        tick_s: fluid-model step.
        restart_seconds: migration restart cost.
        fleet: control-plane knobs (probe sharing, regions); defaults
            share probes across tenants in one region spanning the mesh.
        tracer: flight recorder wired through every layer; defaults to
            the process default (``repro.obs.trace.set_default_tracer``,
            installed by ``bass-repro run --trace``), which is the no-op
            tracer unless one was installed.
    """
    rng = RngStreams(seed)
    tracer = resolve_tracer(tracer)
    if topology is None:
        topology = citylab_subset(
            with_traces=with_traces,
            trace_duration_s=trace_duration_s,
            rng=rng.get("traces"),
        )
    engine = Engine()
    netem = NetworkEmulator(
        topology, engine=engine, tick_s=tick_s, buffer_mbit=buffer_mbit
    )
    cluster = ClusterState.from_topology(topology)
    orchestrator = Orchestrator(
        cluster,
        engine=engine,
        restart_seconds=restart_seconds,
        tracer=tracer,
    )
    control_plane = ControlPlane(
        netem, orchestrator, config=fleet, tracer=tracer
    )
    if tracer.enabled:
        tracer.emit(
            "run.start",
            engine.now,
            seed=seed,
            nodes=len(topology.nodes),
            restart_seconds=restart_seconds,
        )
    return ExperimentEnv(
        topology=topology,
        engine=engine,
        netem=netem,
        cluster=cluster,
        orchestrator=orchestrator,
        rng=rng,
        control_plane=control_plane,
        tracer=tracer,
    )


def schedule_with(
    scheduler_name: str,
    dag: ComponentDAG,
    env: ExperimentEnv,
) -> dict[str, str]:
    """Run the named scheduler over a DAG; commits resource allocations.

    Resolution goes through the scheduler registry
    (:mod:`repro.core.registry`), so strategies added with
    ``@register_scheduler`` are accepted alongside the built-in names.

    Raises:
        ConfigError: for names no registered scheduler answers to.
    """
    return get_scheduler(scheduler_name)(dag, env.cluster, env.netem)


def deploy_app(
    env: ExperimentEnv,
    app: Application,
    scheduler_name: str,
    *,
    config: Optional[BassConfig] = None,
    start_controller: bool = True,
    force_assignments: Optional[dict[str, str]] = None,
) -> AppHandle:
    """Schedule, deploy, bind flows, and (optionally) arm the controller.

    Args:
        env: the substrate from :func:`build_env`.
        app: the workload model.
        scheduler_name: any registered scheduler, e.g. ``"k3s"``,
            ``"bass-bfs"``, or ``"bass-longest-path"``.
        config: BASS configuration; defaults reproduce §4's values.
            ``config.migrations_enabled=False`` gives the no-migration
            baselines even with the controller armed.
        start_controller: register the controller with the control
            plane's epoch loop.  Off, the controller is returned unhomed
            for the caller to drive through ``evaluate()``.
        force_assignments: skip scheduling and place components exactly
            here (used by experiments that pin the initial deployment,
            e.g. "the Pion server is initially deployed on node 2").
            Unlisted components raise; resources are committed.
    """
    config = (config if config is not None else BassConfig()).validate()
    dag = app.build_dag()
    if force_assignments is not None:
        assignments = {}
        for pod in dag.to_pods():
            node = (
                pod.pinned_node
                if pod.pinned_node is not None
                else force_assignments[pod.name]
            )
            env.cluster.node(node).allocate(pod.resources)
            assignments[pod.name] = node
    else:
        assignments = schedule_with(scheduler_name, dag, env)
    deployment = env.orchestrator.deploy(dag.to_pods(), assignments)
    binding = DeploymentBinding(dag, deployment, env.netem)
    app.on_deployed(binding)
    binding.sync_flows()
    # Assignments route the tenant to its home region's scoped monitor
    # (the startup flood stays in-region and skips links the monitor
    # full-probed within its cooldown).
    monitor = env.control_plane.monitor_for(
        config.probe, assignments=assignments
    )
    monitor.probe_all_links()
    controller = BandwidthController(
        dag.app, env.orchestrator, binding, monitor, config,
        tracer=env.tracer,
    )
    if start_controller:
        env.control_plane.register(controller)
    return AppHandle(
        app=app,
        dag=dag,
        binding=binding,
        controller=controller,
        assignments=assignments,
    )


def grid_figure(declare: Callable[..., SweepSpec]) -> Callable[..., list[Any]]:
    """A figure that is a grid of independent configurations.

    The decorated function *declares* the figure: it returns the
    :class:`~repro.runner.SweepSpec` of its cells.  Calling the figure
    runs that grid in this process, in canonical order, and returns the
    cell results; ``figure.spec(...)`` is the declaration itself — what
    the catalogue hands to ``run_sweep`` under ``--jobs`` /
    ``--cache-dir``, and what a seed ensemble adds an axis to.
    """

    @functools.wraps(declare)
    def figure(*args: Any, **kwargs: Any) -> list[Any]:
        return run_sweep(declare(*args, **kwargs)).results

    figure.spec = declare
    return figure


class TickObserver:
    """The per-tick observer trampoline ``run_timeline`` arms.

    A class, not a closure, so checkpointable runs can serialize the
    event heap: the observer pickles whenever ``on_tick`` does (bound
    methods like ``PreparedChurn.sample`` do; ad-hoc lambdas in
    batch-only experiments need not).
    """

    __slots__ = ("engine", "on_tick")

    def __init__(self, engine, on_tick: Callable[[float], None]) -> None:
        self.engine = engine
        self.on_tick = on_tick

    def __call__(self) -> None:
        self.on_tick(self.engine.now)


def arm_timeline(
    env: ExperimentEnv,
    *,
    on_tick: Optional[Callable[[float], None]] = None,
    tick_s: float = 1.0,
    events: Sequence[tuple[float, Callable[[], None]]] = (),
) -> None:
    """Arm a run without moving the clock: the emulator ticker, then
    the per-tick observer, then the one-shot events.

    The order fixes engine sequence numbers (hence every tie-break at
    equal times), so the batch path (:func:`run_timeline`) and the
    checkpointable path (:meth:`RunCapsule.start`) both arm through here.
    """
    env.netem.start()
    if on_tick is not None:
        env.engine.every(tick_s, TickObserver(env.engine, on_tick))
    for time, callback in events:
        env.engine.schedule_at(time, callback)


def run_timeline(
    env: ExperimentEnv,
    duration_s: float,
    *,
    on_tick: Optional[Callable[[float], None]] = None,
    tick_s: float = 1.0,
    events: Sequence[tuple[float, Callable[[], None]]] = (),
) -> None:
    """Drive the experiment clock.

    Args:
        env: substrate (its emulator is started if not already).
        duration_s: horizon.
        on_tick: called once per ``tick_s`` with the current time —
            scenarios use it to update demands and sample metrics.  It
            runs *after* the emulator's own fluid tick at equal times
            (the emulator's periodic task is armed first).
        tick_s: observer period.
        events: (time, callback) one-shot events, e.g. imposing and
            lifting a ``tc`` throttle.
    """
    arm_timeline(env, on_tick=on_tick, tick_s=tick_s, events=events)
    env.engine.run_until(duration_s)


_EPSILON = 1e-9


@dataclass
class RunCapsule:
    """One run that has not finished: substrate + timeline + progress.

    The picklable root object a snapshot serializes (:mod:`repro.snap`).
    ``prepared`` is the scenario's wired state — the object whose bound
    methods the timeline references and whose ``result(duration_s)``
    reads the run's outcome back.  Pickling the capsule pickles the
    whole object graph in one pass, so every cross-reference — the
    tracer shared by twelve subsystems, the periodic tasks holding the
    control plane — restores to the *same* shared objects.

    The ``started`` flag is the restore contract: :meth:`start` arms the
    emulator ticker, tick observer, and timeline events exactly once.  A
    capsule restored mid-run has them in its pickled heap already, so
    ``start`` is a no-op and driving simply continues.
    """

    env: ExperimentEnv
    prepared: Any
    duration_s: float
    tick_s: float = 1.0
    on_tick: Optional[Callable[[float], None]] = None
    events: tuple[tuple[float, Callable[[], None]], ...] = ()
    #: The catalogue id of the experiment this run is a cell of
    #: (:mod:`repro.experiments.catalog` stamps it); restores look the
    #: row up by it.
    scenario: str = ""
    started: bool = False

    @property
    def engine(self) -> Engine:
        return self.env.engine

    @property
    def control_plane(self) -> ControlPlane:
        return self.env.control_plane

    @property
    def done(self) -> bool:
        return self.engine.now >= self.duration_s - _EPSILON

    def start(self) -> None:
        """Arm the run through :func:`arm_timeline` — the function
        :func:`run_timeline` arms with, so decisions match the batch
        path.  Idempotent, and a no-op after a restore (the armed events
        travelled inside the pickled heap)."""
        if self.started:
            return
        self.started = True
        arm_timeline(
            self.env,
            on_tick=self.on_tick,
            tick_s=self.tick_s,
            events=self.events,
        )

    def run_until(self, sim_time_s: float) -> float:
        """Advance the clock to ``min(sim_time_s, duration_s)``."""
        self.start()
        target = min(sim_time_s, self.duration_s)
        if target > self.engine.now:
            self.engine.run_until(target)
        return self.engine.now

    def run_to_completion(self) -> float:
        """Tick to the scenario horizon."""
        return self.run_until(self.duration_s)

    def result(self) -> Any:
        """The run's outcome, read back off the prepared state."""
        return self.prepared.result(self.duration_s)


def checkpointable(
    build: Callable[..., RunCapsule]
) -> Callable[..., Any]:
    """A sweep cell whose run can be stopped, snapshotted and restored.

    The decorated function *builds* the run: it wires the substrate and
    returns its :class:`RunCapsule` without moving the clock.  Calling
    the cell builds, ticks to the horizon and returns
    ``capsule.result()`` — the batch path ``run_sweep`` takes;
    ``cell.capsule(...)`` is the builder itself — what ``bass-repro run
    --checkpoint-dir`` / ``--profile`` and ``serve`` drive.  One
    function, so the run a checkpoint covers is a cell the figures make.
    """

    @functools.wraps(build)
    def cell(*args: Any, **kwargs: Any) -> Any:
        capsule = build(*args, **kwargs)
        capsule.run_to_completion()
        return capsule.result()

    cell.capsule = build
    return cell


def set_node_egress_limit(
    env: ExperimentEnv, node: str, limit_mbps: Optional[float]
) -> None:
    """tc-style throttle of every outgoing direction at ``node`` (Fig 3).

    Passing None lifts the restriction.
    """
    for peer in env.topology.neighbors(node):
        env.topology.link(node, peer).set_rate_limit(
            limit_mbps, src=node, dst=peer
        )
