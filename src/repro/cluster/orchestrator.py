"""Cluster state and the orchestrator runtime.

:class:`ClusterState` is the resource ledger: allocatable CPU/memory per
schedulable node, derived from the mesh topology.  :class:`Orchestrator`
executes placements and migrations on top of it, maintaining per-app
:class:`~repro.cluster.deployment.Deployment` state and modelling the
restart cost a migration incurs (§6.3.2: ~20 s of unavailability while
the component restarts and clients reconnect).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..errors import MigrationError, SchedulingError
from ..mesh.topology import MeshTopology
from ..obs.trace import TracerBase, resolve_tracer
from ..sim.engine import Engine
from .deployment import Deployment, MigrationRecord
from .pod import PodSpec
from .resources import NodeResources, ResourceSpec


class ClusterState:
    """Per-node resource ledger for the schedulable mesh nodes."""

    def __init__(self, nodes: Iterable[NodeResources]) -> None:
        self._nodes: dict[str, NodeResources] = {}
        for node in nodes:
            if node.node_name in self._nodes:
                raise SchedulingError(f"duplicate node {node.node_name!r}")
            self._nodes[node.node_name] = node

    @staticmethod
    def from_topology(topology: MeshTopology) -> "ClusterState":
        """Build a ledger covering the topology's worker nodes."""
        return ClusterState(
            NodeResources(
                node.name,
                ResourceSpec(cpu=node.cpu_cores, memory_mb=node.memory_mb),
            )
            for node in topology.nodes
            if node.schedulable
        )

    def node(self, name: str) -> NodeResources:
        try:
            return self._nodes[name]
        except KeyError:
            raise SchedulingError(f"unknown node {name!r}") from None

    def schedulable_nodes(self) -> list[NodeResources]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes


class Orchestrator:
    """Executes placements and migrations against the cluster.

    Args:
        cluster: the resource ledger.
        engine: simulation clock (for restart windows and records).
        restart_seconds: unavailability per migrated component.
    """

    def __init__(
        self,
        cluster: ClusterState,
        *,
        engine: Optional[Engine] = None,
        restart_seconds: float = 20.0,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        if not restart_seconds >= 0:  # NaN included
            raise SchedulingError("restart_seconds must be >= 0")
        self.cluster = cluster
        self.engine = engine if engine is not None else Engine()
        self.restart_seconds = restart_seconds
        self.tracer = resolve_tracer(tracer)
        self._deployments: dict[str, Deployment] = {}
        self._pod_specs: dict[str, dict[str, PodSpec]] = {}

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        pods: Sequence[PodSpec],
        assignments: Mapping[str, str],
    ) -> Deployment:
        """Commit a scheduler's assignment of an application's pods.

        Resource allocation is assumed to have been performed by the
        scheduler against this orchestrator's ``cluster`` (both the k3s
        baseline and BASS commit as they place); this method records the
        bindings and availability.
        """
        if not pods:
            raise SchedulingError("cannot deploy an empty pod list")
        app = pods[0].app
        if any(pod.app != app for pod in pods):
            raise SchedulingError("all pods in one deploy must share an app")
        if app in self._deployments:
            raise SchedulingError(f"app {app!r} is already deployed")
        missing = [pod.name for pod in pods if pod.name not in assignments]
        if missing:
            raise SchedulingError(f"no assignment for pods {missing}")
        deployment = Deployment(app)
        for pod in pods:
            node = assignments[pod.name]
            if node not in self.cluster:
                raise SchedulingError(
                    f"pod {pod.name!r} assigned to unknown node {node!r}"
                )
            deployment.bind(pod.name, node, available_at=self.engine.now)
            if self.tracer.enabled:
                self.tracer.emit(
                    "placement.bound",
                    self.engine.now,
                    app=app,
                    pod=pod.name,
                    node=node,
                )
        self._deployments[app] = deployment
        self._pod_specs[app] = {pod.name: pod for pod in pods}
        return deployment

    def deployment(self, app: str) -> Deployment:
        try:
            return self._deployments[app]
        except KeyError:
            raise SchedulingError(f"app {app!r} is not deployed") from None

    def pod_spec(self, app: str, pod_name: str) -> PodSpec:
        try:
            return self._pod_specs[app][pod_name]
        except KeyError:
            raise SchedulingError(
                f"unknown pod {pod_name!r} in app {app!r}"
            ) from None

    @property
    def apps(self) -> list[str]:
        return list(self._deployments)

    def teardown(self, app: str) -> None:
        """Remove an application and release its resources."""
        deployment = self.deployment(app)
        for pod_name, node in deployment.bindings.items():
            spec = self.pod_spec(app, pod_name)
            self.cluster.node(node).release(spec.resources)
            deployment.unbind(pod_name)
        del self._deployments[app]
        del self._pod_specs[app]

    # -- migration -----------------------------------------------------------

    def can_admit(
        self, app: str, pod_name: str, target_node: str
    ) -> Optional[str]:
        """Non-mutating admission check for a prospective migration.

        Returns None when :meth:`migrate` would succeed right now, else
        a human-readable refusal reason.  Cross-region handoffs use this
        at the destination-admit phase so an infeasible move aborts
        before any ledger mutation.
        """
        try:
            deployment = self.deployment(app)
            spec = self.pod_spec(app, pod_name)
        except SchedulingError as error:
            return str(error)
        if deployment.node_of(pod_name) == target_node:
            return f"pod {pod_name!r} is already on {target_node!r}"
        if target_node not in self.cluster:
            return f"unknown node {target_node!r}"
        if not self.cluster.node(target_node).can_fit(spec.resources):
            return f"node {target_node!r} has no free resources"
        return None

    def migrate(
        self,
        app: str,
        pod_name: str,
        target_node: str,
        *,
        reason: str = "",
        restart_override_s: Optional[float] = None,
        trace_cause: Optional[int] = None,
    ) -> MigrationRecord:
        """Move one pod to ``target_node``, paying the restart cost.

        Args:
            restart_override_s: unavailability window for this specific
                migration (e.g. restart plus state-transfer time for
                stateful components, §8); defaults to the orchestrator's
                ``restart_seconds``.
            trace_cause: flight-recorder id of the decision event that
                triggered this migration (links the ``restart`` event
                into its cause chain).

        Raises:
            MigrationError: if the target cannot fit the pod or the pod
                is already there.
        """
        deployment = self.deployment(app)
        spec = self.pod_spec(app, pod_name)
        source = deployment.node_of(pod_name)
        if source == target_node:
            raise MigrationError(
                f"pod {pod_name!r} is already on {target_node!r}"
            )
        target = self.cluster.node(target_node)
        if not target.can_fit(spec.resources):
            raise MigrationError(
                f"node {target_node!r} cannot fit pod {pod_name!r}"
            )
        if restart_override_s is not None and not restart_override_s >= 0:
            raise MigrationError("restart_override_s must be >= 0")
        self.cluster.node(source).release(spec.resources)
        target.allocate(spec.resources)
        restart = (
            restart_override_s
            if restart_override_s is not None
            else self.restart_seconds
        )
        record = deployment.rebind(
            pod_name,
            target_node,
            time=self.engine.now,
            restart_seconds=restart,
            reason=reason,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "restart",
                self.engine.now,
                app=app,
                cause=trace_cause,
                component=pod_name,
                **{"from": source},
                to=target_node,
                restart_s=restart,
                reason=reason,
            )
        return record
