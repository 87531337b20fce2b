"""The BASS scheduler (§3.2.1, §5).

Unlike Kubernetes, which binds one pod at a time, BASS "waits for all
of the pods in the application ... and builds the dependency graph
before applying scheduling heuristics" (§5).  The scheduler therefore
takes the whole application DAG, orders components with the configured
heuristic, and packs them onto ranked nodes.
"""

from __future__ import annotations

import time as _time
from typing import Optional

from ..cluster.orchestrator import ClusterState
from ..errors import DagError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer
from .dag import ComponentDAG
from .ordering import order_components
from .placement import PlacementEngine
from .registry import register_scheduler


class BassScheduler:
    """Bandwidth-aware whole-application scheduler.

    Args:
        heuristic: ``"bfs"`` or ``"longest_path"`` (§3.2.1 lets the
            developer pick whichever suits the application's data flow).

    Example:
        >>> # assignments = BassScheduler("bfs").schedule(dag, cluster, netem)
    """

    def __init__(
        self,
        heuristic: str = "longest_path",
        *,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        if heuristic not in ("bfs", "longest_path", "hybrid"):
            raise DagError(f"unknown heuristic {heuristic!r}")
        self.heuristic = heuristic
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
        engine = PlacementEngine(cluster, netem, tracer=self.tracer)
        return engine.place(dag.to_pods(), order, trace_cause=plan_event)


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
