"""The bandwidth-oblivious baseline scheduler.

Reproduces the behaviour the paper attributes to the default k3s /
Kubernetes scheduler (§2.2, §7): pods are scheduled **one at a time** in
arrival order; candidate nodes are *filtered* by CPU and memory fit and
*scored* by the classic ``LeastAllocated`` policy (prefer the node with
the largest free-resource fraction).  Link bandwidth plays no part in
any decision — which is exactly the deficiency BASS addresses.
"""

from __future__ import annotations

from typing import Sequence

from ..core.registry import register_scheduler
from ..errors import InsufficientCapacityError
from .orchestrator import ClusterState
from .pod import PodSpec


class K3sScheduler:
    """One-pod-at-a-time, CPU/memory-only scheduler (the paper's baseline).

    Nodes are scored by Kubernetes' default ``LeastAllocated`` policy,
    which spreads pods; that is what the paper's k3s runs.

    Example:
        >>> # assignments = K3sScheduler().schedule(pods, cluster)
    """

    def schedule(
        self, pods: Sequence[PodSpec], cluster: ClusterState
    ) -> dict[str, str]:
        """Assign each pod to a node, committing resources as it goes.

        Args:
            pods: pods in arrival order (Kubernetes queues them FIFO).
            cluster: mutable cluster state; allocations are committed so
                later pods see earlier pods' usage.

        Returns:
            Mapping pod name → node name.

        Raises:
            InsufficientCapacityError: when some pod fits on no node.
        """
        assignments: dict[str, str] = {}
        for pod in pods:
            node = self._place_one(pod, cluster)
            cluster.node(node).allocate(pod.resources)
            assignments[pod.name] = node
        return assignments

    def _place_one(self, pod: PodSpec, cluster: ClusterState) -> str:
        if pod.pinned_node is not None:
            if not cluster.node(pod.pinned_node).can_fit(pod.resources):
                raise InsufficientCapacityError(
                    f"pod {pod.name!r} pinned to {pod.pinned_node!r} "
                    "which cannot fit it"
                )
            return pod.pinned_node
        feasible = [
            node
            for node in cluster.schedulable_nodes()
            if node.can_fit(pod.resources)
        ]
        if not feasible:
            raise InsufficientCapacityError(
                f"no node can fit pod {pod.name!r} "
                f"(cpu={pod.resources.cpu}, mem={pod.resources.memory_mb})"
            )
        # Score by free-resource fraction: LeastAllocated prefers the
        # emptiest node (spread).  Deterministic tie-break on node name.
        def sort_key(node):  # noqa: ANN001 - local helper
            free = (node.cpu_fraction_free() + node.memory_fraction_free()) / 2.0
            return (-free, node.node_name)

        best = min(feasible, key=sort_key)
        return best.node_name


@register_scheduler("k3s")
def _schedule_k3s(dag, cluster, netem=None):  # noqa: ANN001 - registry adapter
    """Registry adapter: k3s ignores bandwidth annotations and ``netem``."""
    return K3sScheduler().schedule(dag.to_pods(), cluster)
