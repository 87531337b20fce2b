"""Ablations of BASS's design choices.

The paper motivates several mechanisms qualitatively; these experiments
quantify each one by switching it off:

* **Headroom probing vs. always-flooding** (§4.2): replace the cheap
  headroom probes with a max-capacity probe of every monitored link at
  every interval and compare monitoring overhead.
* **Cooldown** (§4.3): migrate on first detection vs. after the
  violation persists, under a transient dip that self-heals — the
  "migration whose disruption is never amortized".
* **Improvement gate + residency** (EXPERIMENTS.md note 4): disable the
  what-if gate and the minimum residency under sustained congestion and
  count the resulting ping-pong migrations.
* **Hybrid heuristic** (§8): compare the fraction of annotated
  bandwidth kept on loopback by each ordering heuristic on a DAG that
  mixes a deep pipeline with a wide fan-out.
* **Online profiling** (§8): start from badly mis-annotated
  requirements and show the profiler recovering the true traffic
  profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.social import SocialNetworkApp
from ..cluster.orchestrator import ClusterState
from ..config import BassConfig
from ..core.dag import Component, ComponentDAG
from ..core.ordering import order_components
from ..core.placement import PlacementEngine
from ..core.profiling import OnlineProfiler
from ..mesh.node import MeshNode
from ..mesh.topology import MeshTopology
from ..runner import CellSpec, SweepSpec
from ..sim.rng import RngStreams
from .common import build_env, deploy_app, run_timeline
from .migration import _PairApp


# -- probing strategy ---------------------------------------------------------


@dataclass(frozen=True)
class ProbingAblationResult:
    """Monitoring overhead with and without headroom probing."""

    headroom_overhead_fraction: float
    flooding_overhead_fraction: float


def ablate_headroom_probing(
    *, duration_s: float = 600.0, seed: int = 81
) -> ProbingAblationResult:
    """Monitoring cost: headroom probes vs. flooding every interval.

    Both runs deploy the social network on the CityLab mesh and monitor
    every link under the app's edges each 30 s cycle; the flooding
    variant calls a max-capacity probe where BASS would make a headroom
    probe.  The paper's claim (§6.3.4): headroom probing bounds
    overhead to a fraction of a percent, while capacity probing floods
    the link.
    """

    def run(flood: bool) -> float:
        env = build_env(seed=seed, trace_duration_s=duration_s)
        app = SocialNetworkApp(annotate_rps=50.0)
        handle = deploy_app(env, app, "bass-longest-path",
                            config=BassConfig(migrations_enabled=False),
                            start_controller=False)
        app.set_rps(50.0)
        app.update_demands(handle.binding, 0.0)
        monitor = handle.monitor
        deployment = handle.deployment

        def cycle() -> None:
            for src, dst, _ in handle.binding.inter_node_edges():
                path = monitor.links_of_path(
                    deployment.node_of(src), deployment.node_of(dst)
                )
                for a, b in path:
                    if flood:
                        monitor.full_probe(a, b)
                    else:
                        cached = monitor.cached_capacity(a, b)
                        monitor.headroom_probe(a, b, cached * 0.2)

        env.engine.every(30.0, cycle)
        run_timeline(env, duration_s)
        return monitor.probe_overhead_fraction()

    return ProbingAblationResult(
        headroom_overhead_fraction=run(flood=False),
        flooding_overhead_fraction=run(flood=True),
    )


# -- cooldown -------------------------------------------------------------------


@dataclass(frozen=True)
class CooldownAblationResult:
    """Migrations triggered by a transient dip, per cooldown setting."""

    cooldown_s: float
    migrations: int


def ablate_cooldown(
    cooldowns: tuple[float, ...] = (0.0, 45.0),
    *,
    dip_duration_s: float = 40.0,
    seed: int = 82,
) -> list[CooldownAblationResult]:
    """A 40 s capacity dip that self-heals: with no cooldown the
    controller migrates (and pays the restart for nothing); with a
    45 s cooldown the dip passes before the trigger fires (§4.3: "to
    avoid reacting to transient changes ... we ensure that there is a
    cooldown period")."""
    results = []
    for cooldown in cooldowns:
        # The pair's producer is pinned to node3; the consumer starts
        # across the node1-node3 link, which dips transiently.
        topology = MeshTopology()
        topology.add_node(MeshNode("node1", cpu_cores=8))
        topology.add_node(MeshNode("node3", cpu_cores=1, memory_mb=512))
        topology.add_node(MeshNode("node4", cpu_cores=8))
        for a, b in (("node1", "node3"), ("node3", "node4"),
                     ("node1", "node4")):
            topology.add_link(a, b, capacity_mbps=25.0)
        env = build_env(topology, seed=seed)
        config = BassConfig().with_migration(cooldown_s=cooldown)
        handle = deploy_app(
            env,
            _PairApp(),
            "bass-longest-path",
            config=config,
            force_assignments={"consumer": "node1"},
        )
        link = topology.link("node1", "node3")
        run_timeline(
            env,
            240.0,
            events=[
                (50.0, lambda link=link: link.set_rate_limit(3.0)),
                (
                    50.0 + dip_duration_s,
                    lambda link=link: link.set_rate_limit(None),
                ),
            ],
        )
        results.append(
            CooldownAblationResult(
                cooldown_s=cooldown,
                migrations=len(handle.deployment.migrations),
            )
        )
    return results


# -- improvement gate / residency --------------------------------------------------


@dataclass(frozen=True)
class StabilityAblationResult:
    """Migration churn with and without the stability guards."""

    guarded_migrations: int
    unguarded_migrations: int


def ablate_stability_guards(
    *, duration_s: float = 420.0, seed: int = 83
) -> StabilityAblationResult:
    """Sustained congestion with no genuinely better placement: the
    improvement gate and minimum residency must prevent ping-pong.

    Without them, every evaluation finds a violation and happily moves
    the component somewhere equivalent, paying a restart each time.
    """

    def run(guarded: bool) -> int:
        topology = MeshTopology()
        topology.add_node(MeshNode("node1", cpu_cores=8))
        topology.add_node(MeshNode("node3", cpu_cores=1, memory_mb=512))
        topology.add_node(MeshNode("node4", cpu_cores=8))
        for a, b in (("node1", "node3"), ("node3", "node4"),
                     ("node1", "node4")):
            topology.add_link(a, b, capacity_mbps=4.0)  # all inadequate
        env = build_env(topology, seed=seed, restart_seconds=5.0)
        config = BassConfig().with_migration(
            cooldown_s=0.0,
            improvement_margin=0.1 if guarded else 0.0,
            min_residency_s=None if guarded else 0.0,
        )
        handle = deploy_app(
            env,
            _PairApp(),
            "bass-longest-path",
            config=config,
            force_assignments={"consumer": "node1"},
        )
        if not guarded:
            # Fully disable the what-if gate: any feasible target looks
            # acceptable, so every violating evaluation migrates.
            handle.controller.planner.improvement_margin = -1e9
        run_timeline(env, duration_s)
        return len(handle.deployment.migrations)

    return StabilityAblationResult(
        guarded_migrations=run(guarded=True),
        unguarded_migrations=run(guarded=False),
    )


# -- hybrid heuristic -----------------------------------------------------------------


def chain_shape_dag() -> ComponentDAG:
    """A pure pipeline — the longest-path heuristic's home turf."""
    dag = ComponentDAG("chain")
    names = [f"stage{i}" for i in range(8)]
    for name in names:
        dag.add_component(Component(name, cpu=2))
    for i, (src, dst) in enumerate(zip(names, names[1:])):
        dag.add_dependency(src, dst, 10.0 - i)
    return dag.validate()


@dataclass(frozen=True)
class HeuristicAblationCell:
    """Loopback bandwidth fraction achieved by one ordering heuristic."""

    heuristic: str
    shape: str
    colocated_fraction: float


def ablate_hybrid_heuristic(
    *, node_cores: float = 6.0, n_nodes: int = 3
) -> list[HeuristicAblationCell]:
    """Pack two application shapes with each heuristic onto small nodes
    and measure the fraction of annotated bandwidth kept on loopback —
    the quantity placement exists to maximize.

    Shapes: the 27-service social network (fan-out heavy, where the
    paper's two heuristics genuinely diverge) and a pure pipeline.  The
    hybrid heuristic (§8) must match the better pure heuristic on each.
    """
    from ..cluster.resources import NodeResources, ResourceSpec

    def build(shape: str) -> ComponentDAG:
        if shape == "social":
            return SocialNetworkApp(annotate_rps=50.0).build_dag()
        return chain_shape_dag()

    results = []
    for shape in ("social", "chain"):
        for heuristic in ("bfs", "longest_path", "hybrid"):
            cluster = ClusterState(
                NodeResources(f"n{i}", ResourceSpec(node_cores, 1e6))
                for i in range(n_nodes)
            )
            dag = build(shape)
            order = order_components(dag, heuristic)
            assignments = PlacementEngine(cluster).place(dag.to_pods(), order)
            total = dag.total_bandwidth_mbps()
            colocated = sum(
                weight
                for src, dst, weight in dag.edges()
                if assignments[src] == assignments[dst]
            )
            results.append(
                HeuristicAblationCell(
                    heuristic=heuristic,
                    shape=shape,
                    colocated_fraction=colocated / total,
                )
            )
    return results


# -- online profiling ---------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilingAblationResult:
    """Annotation error before and after online profiling."""

    initial_error: float
    profiled_error: float
    edges_updated: int


def ablate_online_profiling(
    *, duration_s: float = 200.0, seed: int = 85
) -> ProfilingAblationResult:
    """Deploy the social network with requirements mis-annotated by a
    random factor in [0.2, 5]x, observe traffic online, and measure the
    mean relative annotation error before and after ``apply()``."""
    rng = RngStreams(seed).get("misannotate")
    env = build_env(seed=seed, with_traces=False)
    app = SocialNetworkApp(annotate_rps=50.0)
    handle = deploy_app(
        env,
        app,
        "bass-longest-path",
        config=BassConfig(migrations_enabled=False),
        start_controller=False,
    )
    app.set_rps(50.0)
    app.update_demands(handle.binding, 0.0)
    dag = handle.dag
    truth = {
        (src, dst): handle.binding.edge_demand(src, dst)
        for src, dst, _ in dag.edges()
    }
    # Corrupt every annotation (the binding's demands stay truthful —
    # they model what the app actually sends).
    for (src, dst), true_value in truth.items():
        factor = float(rng.uniform(0.2, 5.0))
        dag.update_weight(src, dst, max(true_value * factor, 0.01))

    def mean_error() -> float:
        errors = []
        for (src, dst), true_value in truth.items():
            if true_value <= 0:
                continue
            errors.append(
                abs(dag.weight(src, dst) - true_value) / true_value
            )
        return float(np.mean(errors))

    initial_error = mean_error()
    profiler = OnlineProfiler(handle.binding, min_samples=30, window=150)
    env.engine.every(1.0, profiler.sample)
    run_timeline(env, duration_s)
    updates = profiler.apply()
    return ProfilingAblationResult(
        initial_error=initial_error,
        profiled_error=mean_error(),
        edges_updated=len(updates),
    )


# -- routing strategy -------------------------------------------------------------


@dataclass(frozen=True)
class RoutingAblationCell:
    """Path bottleneck capacity per routing strategy for one node pair."""

    src: str
    dst: str
    min_hop_mbps: float
    widest_mbps: float


def _ablation_grid_cells(*, quick: bool = False) -> tuple[CellSpec, ...]:
    """Every ablation as a sweep cell, in canonical grid order.

    Each cell's kwargs materialize that ablation's defaults explicitly
    so the cache key captures the full configuration (a default change
    in the ablation's signature alone would otherwise be invisible to
    the key; the code fingerprint still covers the body).
    """
    prefix = "repro.experiments.ablations:"
    return (
        CellSpec(
            fn=prefix + "ablate_headroom_probing",
            kwargs={"duration_s": 150.0 if quick else 600.0, "seed": 81},
            label="headroom_probing",
        ),
        CellSpec(
            fn=prefix + "ablate_cooldown",
            kwargs={
                "cooldowns": (0.0, 45.0),
                "dip_duration_s": 40.0,
                "seed": 82,
            },
            label="cooldown",
        ),
        CellSpec(
            fn=prefix + "ablate_stability_guards",
            kwargs={"duration_s": 150.0 if quick else 420.0, "seed": 83},
            label="stability_guards",
        ),
        CellSpec(
            fn=prefix + "ablate_hybrid_heuristic",
            kwargs={"node_cores": 6.0, "n_nodes": 3},
            label="hybrid_heuristic",
        ),
        CellSpec(
            fn=prefix + "ablate_online_profiling",
            kwargs={"duration_s": 80.0 if quick else 200.0, "seed": 85},
            label="online_profiling",
        ),
        CellSpec(
            fn=prefix + "ablate_routing_strategy",
            kwargs={},
            label="routing_strategy",
        ),
    )


def ablation_grid_spec(
    *, quick: bool = False, include: Optional[tuple[str, ...]] = None
) -> SweepSpec:
    """The full ablation battery as one sweep spec.

    Args:
        quick: shorten the long-running ablations (CLI smoke mode).
        include: restrict to these cell labels, keeping grid order.
    """
    cells = _ablation_grid_cells(quick=quick)
    if include is not None:
        unknown = set(include) - {cell.label for cell in cells}
        if unknown:
            raise ValueError(f"unknown ablation(s): {sorted(unknown)}")
        cells = tuple(cell for cell in cells if cell.label in include)
    return SweepSpec(name="ablations", cells=cells)


def ablate_routing_strategy() -> list[RoutingAblationCell]:
    """BASS works with whatever routing the mesh runs (§1).  Compare the
    path bottleneck capacity every worker pair sees under min-hop vs
    widest-path routing on the CityLab subset — quantifying how much
    the substrate's routing choice moves the ceiling BASS works under.
    """
    from ..mesh.routing import Router
    from ..mesh.topology import citylab_subset

    topology = citylab_subset(control_node=False)
    min_hop = Router(topology, strategy="min_hop")
    widest = Router(topology, strategy="widest")
    workers = topology.worker_names
    cells = []
    for i, src in enumerate(workers):
        for dst in workers[i + 1 :]:
            cells.append(
                RoutingAblationCell(
                    src=src,
                    dst=dst,
                    min_hop_mbps=min_hop.bottleneck_bandwidth(src, dst, 0.0),
                    widest_mbps=widest.bottleneck_bandwidth(src, dst, 0.0),
                )
            )
    return cells
