"""Pod specifications.

A pod is one application component instance.  Besides the usual CPU and
memory requests, BASS pods carry *bandwidth annotations*: the maximum
bandwidth each dependency edge needs, gathered by offline profiling and
stored "in the metadata section of the application's deployment file"
(§5).  The default k3s scheduler ignores these annotations; the BASS
scheduler consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchedulingError
from .resources import ResourceSpec


@dataclass(frozen=True)
class PodSpec:
    """One deployable component instance.

    Attributes:
        name: component name, unique within the application.
        app: application name this pod belongs to.
        resources: CPU/memory request (hard constraint).
        bandwidth_mbps: bandwidth annotations — mapping from *downstream*
            component name to the required Mbps on that edge.
        pinned_node: optional node the pod must run on (used for
            client-side components that represent users at fixed mesh
            locations, e.g. conference participants at nodes 1–4).
    """

    name: str
    app: str
    resources: ResourceSpec = field(default_factory=ResourceSpec)
    bandwidth_mbps: dict[str, float] = field(default_factory=dict, hash=False)
    pinned_node: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("pod name must be non-empty")
        if not self.app:
            raise SchedulingError(f"pod {self.name}: app must be non-empty")
        for dep, mbps in self.bandwidth_mbps.items():
            if mbps < 0:
                raise SchedulingError(
                    f"pod {self.name}: negative bandwidth to {dep!r}"
                )

    def total_bandwidth_mbps(self) -> float:
        """Sum of annotated egress bandwidth across dependencies."""
        return sum(self.bandwidth_mbps.values())
