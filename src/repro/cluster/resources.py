"""Node resource accounting: CPU and memory as hard constraints.

The paper treats intra-node resources (CPU, memory) as hard constraints
while bandwidth is the soft, fluctuating one (§3.2.1).  These classes
provide exact allocate/release bookkeeping with no oversubscription.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError

_EPSILON = 1e-9


@dataclass(frozen=True)
class ResourceSpec:
    """An amount of CPU (cores) and memory (MiB).

    Supports arithmetic so requirement lists can be summed:

        >>> ResourceSpec(1, 512) + ResourceSpec(2, 256)
        ResourceSpec(cpu=3.0, memory_mb=768.0)
    """

    cpu: float = 0.0
    memory_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.memory_mb < 0:
            raise SchedulingError(
                f"resource amounts must be non-negative, got {self}"
            )
        object.__setattr__(self, "cpu", float(self.cpu))
        object.__setattr__(self, "memory_mb", float(self.memory_mb))

    def __add__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(self.cpu + other.cpu, self.memory_mb + other.memory_mb)

    def __sub__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(
            max(self.cpu - other.cpu, 0.0),
            max(self.memory_mb - other.memory_mb, 0.0),
        )

    def fits_within(self, capacity: "ResourceSpec") -> bool:
        """Whether this request fits inside ``capacity``."""
        return (
            self.cpu <= capacity.cpu + _EPSILON
            and self.memory_mb <= capacity.memory_mb + _EPSILON
        )


class NodeResources:
    """Allocatable capacity of one node, with current allocations."""

    def __init__(self, node_name: str, capacity: ResourceSpec) -> None:
        self.node_name = node_name
        self.capacity = capacity
        self._allocated = ResourceSpec()

    @property
    def allocated(self) -> ResourceSpec:
        return self._allocated

    @property
    def free(self) -> ResourceSpec:
        return self.capacity - self._allocated

    def can_fit(self, request: ResourceSpec) -> bool:
        return request.fits_within(self.free)

    def allocate(self, request: ResourceSpec) -> None:
        """Reserve resources; raises if the node would be oversubscribed."""
        if not self.can_fit(request):
            raise SchedulingError(
                f"node {self.node_name}: request {request} exceeds free "
                f"{self.free}"
            )
        self._allocated = self._allocated + request

    def release(self, request: ResourceSpec) -> None:
        """Return previously allocated resources."""
        self._allocated = self._allocated - request

    def cpu_fraction_free(self) -> float:
        if self.capacity.cpu <= 0:
            return 0.0
        return self.free.cpu / self.capacity.cpu

    def memory_fraction_free(self) -> float:
        if self.capacity.memory_mb <= 0:
            return 0.0
        return self.free.memory_mb / self.capacity.memory_mb
