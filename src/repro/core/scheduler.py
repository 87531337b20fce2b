"""The BASS scheduler (§3.2.1, §5).

Unlike Kubernetes, which binds one pod at a time, BASS "waits for all
of the pods in the application ... and builds the dependency graph
before applying scheduling heuristics" (§5).  The scheduler therefore
takes the whole application DAG (or a pod list carrying bandwidth
annotations, from which it rebuilds the DAG), orders components with
the configured heuristic, and packs them onto ranked nodes.
"""

from __future__ import annotations

import time as _time
from typing import Optional, Sequence

from ..cluster.orchestrator import ClusterState
from ..cluster.pod import PodSpec
from ..errors import DagError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from .dag import Component, ComponentDAG
from .ordering import order_components
from .placement import PlacementEngine
from .registry import register_scheduler


def dag_from_pods(app: str, pods: Sequence[PodSpec]) -> ComponentDAG:
    """Rebuild the component DAG from pods' bandwidth annotations (§5:
    requirements live in the deployment file's metadata section)."""
    dag = ComponentDAG(app)
    for pod in pods:
        if pod.app != app:
            raise DagError(
                f"pod {pod.name!r} belongs to {pod.app!r}, not {app!r}"
            )
        dag.add_component(
            Component(
                name=pod.name,
                cpu=pod.resources.cpu,
                memory_mb=pod.resources.memory_mb,
                pinned_node=pod.pinned_node,
            )
        )
    for pod in pods:
        for dep, mbps in pod.bandwidth_mbps.items():
            dag.add_dependency(pod.name, dep, mbps)
    return dag.validate()


class BassScheduler:
    """Bandwidth-aware whole-application scheduler.

    Args:
        heuristic: ``"bfs"`` or ``"longest_path"`` (§3.2.1 lets the
            developer pick whichever suits the application's data flow).
        headroom_fraction: spare link fraction preserved when checking
            candidate nodes' bandwidth feasibility.
        allow: restrict packing to these nodes — a many-region fleet
            schedules each tenant inside its home region's jurisdiction
            (explicitly pinned pods may still land outside it).

    Example:
        >>> # assignments = BassScheduler("bfs").schedule(dag, cluster, netem)
    """

    def __init__(
        self,
        heuristic: str = "longest_path",
        *,
        headroom_fraction: float = 0.0,
        allow: Optional[frozenset[str]] = None,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        if heuristic not in ("bfs", "longest_path", "hybrid"):
            raise DagError(f"unknown heuristic {heuristic!r}")
        self.heuristic = heuristic
        self.headroom_fraction = headroom_fraction
        self.allow = allow
        self.tracer = resolve_tracer(tracer)
        self.last_dag_processing_s: Optional[float] = None

    @property
    def name(self) -> str:
        return f"bass-{self.heuristic.replace('_', '-')}"

    def order(self, dag: ComponentDAG) -> list[str]:
        """Run the configured ordering heuristic, timing it (Table 4)."""
        started = _time.perf_counter()
        order = order_components(dag, self.heuristic)
        self.last_dag_processing_s = _time.perf_counter() - started
        return order

    def schedule(
        self,
        dag: ComponentDAG,
        cluster: ClusterState,
        netem: Optional[NetworkEmulator] = None,
    ) -> dict[str, str]:
        """Place every component of ``dag``; commits resource allocations.

        Returns:
            Mapping component name → node name.
        """
        order = self.order(dag)
        plan_event = None
        if self.tracer.enabled:
            plan_event = self.tracer.emit(
                "placement.plan",
                netem.now if netem is not None else 0.0,
                app=dag.app,
                heuristic=self.heuristic,
                order=order,
                dag_processing_ms=(self.last_dag_processing_s or 0.0) * 1e3,
            )
        engine = PlacementEngine(
            cluster,
            netem,
            headroom_fraction=self.headroom_fraction,
            allow=self.allow,
            tracer=self.tracer,
        )
        return engine.place(dag.to_pods(), order, trace_cause=plan_event)

    def schedule_pods(
        self,
        pods: Sequence[PodSpec],
        cluster: ClusterState,
        netem: Optional[NetworkEmulator] = None,
    ) -> dict[str, str]:
        """Kubernetes-compatible entry point: pods in, assignments out.

        Rebuilds the DAG from the pods' bandwidth annotations first
        ("scheduling all components at once", §5).
        """
        if not pods:
            return {}
        dag = dag_from_pods(pods[0].app, pods)
        return self.schedule(dag, cluster, netem)


def _register_bass_heuristic(heuristic: str) -> None:
    @register_scheduler(f"bass-{heuristic.replace('_', '-')}")
    def _schedule(
        dag: ComponentDAG,
        cluster: ClusterState,
        netem: Optional[NetworkEmulator] = None,
    ) -> dict[str, str]:
        return BassScheduler(heuristic).schedule(dag, cluster, netem)


for _heuristic in ("bfs", "longest_path", "hybrid"):
    _register_bass_heuristic(_heuristic)
