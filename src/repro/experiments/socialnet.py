"""The social-network experiment as data: one record, one runner.

Figs 5, 11, 13, 14a–d and 16 and Table 1 run DeathStarBench's social
network on a mesh, varied along a few axes.  :class:`SocialScenario`
names the axes those rows vary, and :func:`social_capsule` wires one
into a :class:`~repro.experiments.common.RunCapsule`.  Each row's cell
builds its scenario, runs it (:func:`run_social`; fig13's checkpoint
and ``serve`` paths drive the capsule) and reads its result dataclass
off the finished :class:`SocialRun`.  A scenario is frozen and
JSON-able, so a knock-out or a seed ensemble is a field replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..apps.social import SocialNetworkApp
from ..cluster.deployment import MigrationRecord
from ..config import BassConfig
from ..core.netmonitor import ProbeResult
from ..mesh.topology import MeshTopology, full_mesh_topology
from .common import (
    AppHandle,
    ExperimentEnv,
    RunCapsule,
    build_env,
    deploy_app,
    set_node_egress_limit,
)

#: Every social row's restart cost (fig5 and fig11 never restart); §6
#: measures 20–30 s — EXPERIMENTS.md note 8.
RESTART_SECONDS = 8.0
#: Every throttle caps a node's egress at 25 Mbps.
THROTTLE_MBPS = 25.0
#: The component Fig 14a's forced restart moves.
RESTARTED = "post-storage-service"


#: Mesh recipes: the topology (None: the CityLab subset ``build_env``
#: builds, traced for the run's length or static) and the link buffer
#: in Mbit.
MESHES: dict[str, tuple[Optional[Callable[[], MeshTopology]], float]] = {
    "lan3": (lambda: full_mesh_topology(3), 200.0),
    "lan4": (lambda: full_mesh_topology(4, cpu_cores=4.0, memory_mb=12288.0),
             200.0),
    # Fig 13 / Table 1: the 12-core app spans two nodes, and leaves
    # slack on node1 for migrations.
    "lan3-hetero": (lambda: full_mesh_topology(3, cpu_cores=(6.0, 8.0, 6.0)),
                    200.0),
    "citylab": (None, 25.0),
    "citylab-traced": (None, 400.0),
}


@dataclass(frozen=True)
class Throttle:
    """A cap of :data:`THROTTLE_MBPS` on some nodes' egress.

    ``nodes`` are node names, or one rule resolved on the deployed
    placement: ``"hottest"`` (the node hosting the post-storage service,
    Fig 5) or ``"busiest-egress"`` (the most inter-node demand out,
    Table 1's "node 3").  ``at_s`` None throttles before deployment,
    so the scheduler places onto the throttled mesh (Fig 11);
    ``until_s`` None never lifts it.
    """

    nodes: tuple[str, ...]
    at_s: Optional[float] = None
    until_s: Optional[float] = None


def _throttled(nodes: tuple[str, ...], env: ExperimentEnv,
               handle: AppHandle) -> tuple[str, ...]:
    """``nodes`` with a rule resolved (see :class:`Throttle`)."""
    if nodes == ("hottest",):
        return (handle.deployment.node_of("post-storage-service"),)
    if nodes != ("busiest-egress",):
        return nodes
    egress = {name: 0.0 for name in env.cluster.node_names}
    for src, dst, _ in handle.binding.inter_node_edges():
        egress[handle.deployment.node_of(src)] += handle.binding.edge_demand(
            src, dst
        )
    return (max(egress, key=egress.get),)


@dataclass(frozen=True)
class SocialScenario:
    """One social-network run, as data; a field exists only where the
    rows use two or more values.

    Attributes:
        mesh: a :data:`MESHES` recipe.
        scheduler: the registered scheduler that places the app.
        rps: the annotated request rate, and the offered one (set once
            after deployment) unless ``rates`` is given.
        rates: per-tick offered rates, set and pushed to the flows at
            the start of each tick (``rps`` past the end).
        config: the tenant's BASS settings.
        controller: register the bandwidth controller.  A registered
            controller probes every epoch even with migrations off
            (fig13's no-migration cell); an unregistered one never
            evaluates, so past deployment's probe flood the run probes
            nothing (fig5, fig11, fig14a, fig14b's no-migration cell).
        throttle: an egress throttle, if any.
        restart_at_s: when to force-migrate :data:`RESTARTED` (Fig 14a).
        samples: request latencies drawn per tick (0: no tick observer)
            from the rng ``stream``.
    """

    mesh: str
    scheduler: str
    rps: float
    duration_s: float
    seed: int
    rates: Optional[tuple[float, ...]] = None
    config: BassConfig = BassConfig(migrations_enabled=False)
    controller: bool = False
    throttle: Optional[Throttle] = None
    restart_at_s: Optional[float] = None
    samples: int = 0
    stream: str = ""


@dataclass
class SocialRun:
    """One wired scenario.  Its bound methods are the run's observer and
    events, so a checkpointed run pickles; ``read``, when set, makes the
    capsule's ``result()`` the row's dataclass instead of the run."""

    scenario: SocialScenario
    env: ExperimentEnv
    handle: AppHandle
    throttled: tuple[str, ...]
    rng: Optional[np.random.Generator]
    read: Optional[Callable[[SocialRun], Any]]
    times: list[float] = field(default_factory=list)
    samples: list[list[float]] = field(default_factory=list)

    def tick(self, now: float) -> None:
        app, binding = self.handle.app, self.handle.binding
        rates = self.scenario.rates
        if rates is not None:
            index = len(self.times)
            app.set_rps(rates[index] if index < len(rates) else app.annotate_rps)
            app.update_demands(binding, now)
        self.times.append(now)
        self.samples.append(
            app.sample_latencies_s(binding, self.scenario.samples, self.rng)
        )

    def throttle(self) -> None:
        for node in self.throttled:
            set_node_egress_limit(self.env, node, THROTTLE_MBPS)

    def unthrottle(self) -> None:
        for node in self.throttled:
            set_node_egress_limit(self.env, node, None)

    def restart(self) -> None:
        """Force-migrate :data:`RESTARTED` to the first other node it
        fits on; requests touching it stall for the restart."""
        cluster = self.env.cluster
        current = self.handle.deployment.node_of(RESTARTED)
        resources = self.handle.dag.component(RESTARTED).resources
        target = next(
            name for name in cluster.node_names
            if name != current and cluster.node(name).can_fit(resources)
        )
        self.env.orchestrator.migrate(
            self.handle.app.name, RESTARTED, target, reason="fig14a forced"
        )
        self.handle.binding.sync_flows()

    def latencies(self) -> np.ndarray:
        """Every sampled latency, in tick order."""
        return np.asarray([value for tick in self.samples for value in tick])

    def tick_means(self) -> np.ndarray:
        return np.asarray([float(np.mean(tick)) for tick in self.samples])

    @property
    def migrations(self) -> list[MigrationRecord]:
        return list(self.handle.deployment.migrations)

    def table1_rows(self) -> list[tuple[int, int, int]]:
        return self.handle.controller.table1_rows()

    def probe_log(self) -> list[ProbeResult]:
        """Every probe the tenant's monitor ran, deployment's included."""
        return list(self.handle.monitor.probe_log)

    def result(self, duration_s: float) -> Any:
        return self if self.read is None else self.read(self)


def social_capsule(scenario: SocialScenario,
                   read: Optional[Callable[[SocialRun], Any]] = None
                   ) -> RunCapsule:
    """Wire ``scenario`` into a run, not yet ticked.

    Substrate, a before-deploy throttle, deployment, the fixed load,
    then the observer and the events: that order fixes every engine
    tie-break.
    """
    topology, buffer_mbit = MESHES[scenario.mesh]
    env = build_env(
        None if topology is None else topology(),
        seed=scenario.seed,
        with_traces=scenario.mesh == "citylab-traced",
        trace_duration_s=scenario.duration_s,
        buffer_mbit=buffer_mbit,
        restart_seconds=RESTART_SECONDS,
    )
    throttle = scenario.throttle
    if throttle is not None and throttle.at_s is None:
        for node in throttle.nodes:
            set_node_egress_limit(env, node, THROTTLE_MBPS)
    app = SocialNetworkApp(annotate_rps=scenario.rps)
    handle = deploy_app(env, app, scenario.scheduler, config=scenario.config,
                        start_controller=scenario.controller)
    if scenario.rates is None:
        app.set_rps(scenario.rps)
        app.update_demands(handle.binding, 0.0)
    run = SocialRun(
        scenario=scenario,
        env=env,
        handle=handle,
        throttled=_throttled(throttle.nodes, env, handle) if throttle else (),
        rng=env.rng.get(scenario.stream) if scenario.samples else None,
        read=read,
    )
    events = []
    if throttle is not None and throttle.at_s is not None:
        events.append((throttle.at_s, run.throttle))
        if throttle.until_s is not None:
            events.append((throttle.until_s, run.unthrottle))
    if scenario.restart_at_s is not None:
        events.append((scenario.restart_at_s, run.restart))
    return RunCapsule(
        env=env,
        prepared=run,
        duration_s=scenario.duration_s,
        on_tick=run.tick if scenario.samples else None,
        events=tuple(events),
    )


def run_social(scenario: SocialScenario) -> SocialRun:
    """The batch path: run ``scenario`` to its horizon."""
    capsule = social_capsule(scenario)
    capsule.run_to_completion()
    return capsule.result()
