"""Application component DAGs.

An application is "multiple components that can be expressed as a
directed acyclic graph" (§3.1); edge weights are "the maximum bandwidth
requirements (gathered through independent offline profiling)" (§5).
:class:`ComponentDAG` validates acyclicity, provides a deterministic
topological sort, and converts to the pod specifications the cluster
substrate consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..cluster.pod import PodSpec
from ..cluster.resources import ResourceSpec
from ..errors import CycleError, DagError, UnknownComponentError


@dataclass(frozen=True)
class Component:
    """One application component (maps 1:1 to a pod when deployed).

    Attributes:
        name: unique name within the application.
        cpu: CPU cores requested (hard constraint).
        memory_mb: memory requested in MiB (hard constraint).
        pinned_node: optional mesh node this component must run on —
            used for components that stand in for users at fixed
            locations (e.g. conference clients at each mesh node).
        state_mb: checkpointable state that must move with the component
            (CRIU-style, §8).  The paper's components are stateless or
            discard state; a non-zero value makes migrations pay the
            state's transfer time over the mesh on top of the restart.
    """

    name: str
    cpu: float = 1.0
    memory_mb: float = 256.0
    pinned_node: Optional[str] = None
    state_mb: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise DagError("component name must be non-empty")
        if self.cpu < 0 or self.memory_mb < 0:
            raise DagError(f"component {self.name}: negative resources")
        if self.state_mb < 0:
            raise DagError(f"component {self.name}: negative state size")

    @property
    def resources(self) -> ResourceSpec:
        return ResourceSpec(cpu=self.cpu, memory_mb=self.memory_mb)


class ComponentDAG:
    """A DAG of components with bandwidth-weighted directed edges.

    Edges point in the direction of data flow: ``add_dependency(a, b, w)``
    declares that *a* sends up to *w* Mbps to *b* (``b`` is a
    "dependency" of ``a`` in the paper's Algorithm 1 sense).

    Example:
        >>> dag = ComponentDAG("app")
        >>> dag.add_component(Component("a"))
        >>> dag.add_component(Component("b"))
        >>> dag.add_dependency("a", "b", bandwidth_mbps=5.0)
        >>> dag.topological_sort()
        ['a', 'b']
    """

    def __init__(self, app: str) -> None:
        if not app:
            raise DagError("application name must be non-empty")
        self.app = app
        self._components: dict[str, Component] = {}
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}

    # -- construction --------------------------------------------------------

    def add_component(self, component: Component) -> None:
        if component.name in self._components:
            raise DagError(f"duplicate component {component.name!r}")
        self._components[component.name] = component
        self._succ[component.name] = {}
        self._pred[component.name] = {}

    def add_dependency(self, src: str, dst: str, bandwidth_mbps: float) -> None:
        """Add the directed edge ``src -> dst`` carrying up to the given Mbps."""
        for name in (src, dst):
            if name not in self._components:
                raise UnknownComponentError(f"unknown component {name!r}")
        if src == dst:
            raise DagError(f"self-edge on component {src!r}")
        if bandwidth_mbps < 0:
            raise DagError(f"edge {src}->{dst}: negative bandwidth")
        if dst in self._succ[src]:
            raise DagError(f"duplicate edge {src}->{dst}")
        if self._reaches(dst, src):
            raise CycleError(f"edge {src}->{dst} would create a cycle")
        self._succ[src][dst] = float(bandwidth_mbps)
        self._pred[dst][src] = float(bandwidth_mbps)

    # -- queries ---------------------------------------------------------------

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise UnknownComponentError(f"unknown component {name!r}") from None

    @property
    def component_names(self) -> list[str]:
        """Names in insertion order (matches deployment-file order)."""
        return list(self._components)

    @property
    def components(self) -> list[Component]:
        return list(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def dependencies(self, name: str) -> dict[str, float]:
        """Outgoing edges of ``name``: successor -> bandwidth Mbps."""
        self.component(name)
        return dict(self._succ[name])

    def dependents(self, name: str) -> dict[str, float]:
        """Incoming edges of ``name``: predecessor -> bandwidth Mbps."""
        self.component(name)
        return dict(self._pred[name])

    def neighbors(self, name: str) -> set[str]:
        """All components sharing an edge with ``name`` (either direction)."""
        return set(self._succ[name]) | set(self._pred[name])

    def weight(self, src: str, dst: str) -> float:
        try:
            return self._succ[src][dst]
        except KeyError:
            raise DagError(f"no edge {src}->{dst}") from None

    def update_weight(self, src: str, dst: str, bandwidth_mbps: float) -> None:
        """Replace an existing edge's bandwidth annotation.

        Used by online profiling (§8) to refresh requirements after
        observing real traffic; the edge must already exist.
        """
        if bandwidth_mbps < 0:
            raise DagError(f"edge {src}->{dst}: negative bandwidth")
        if dst not in self._succ.get(src, {}):
            raise DagError(f"no edge {src}->{dst}")
        self._succ[src][dst] = float(bandwidth_mbps)
        self._pred[dst][src] = float(bandwidth_mbps)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield (src, dst, bandwidth_mbps), in insertion order."""
        for src, targets in self._succ.items():
            for dst, weight in targets.items():
                yield src, dst, weight

    def edge_count(self) -> int:
        return sum(len(t) for t in self._succ.values())

    def total_bandwidth_mbps(self) -> float:
        return sum(w for _, _, w in self.edges())

    def total_resources(self) -> ResourceSpec:
        return ResourceSpec.total([c.resources for c in self.components])

    def roots(self) -> list[str]:
        """Components with no incoming edge, in insertion order."""
        return [n for n in self._components if not self._pred[n]]

    def leaves(self) -> list[str]:
        """Components with no outgoing edge, in insertion order."""
        return [n for n in self._components if not self._succ[n]]

    # -- algorithms -------------------------------------------------------------

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a directed path leads from ``start`` to ``goal`` — the
        one cycle an edge ``goal -> start`` added to a DAG can close."""
        succ = self._succ
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def topological_sort(self) -> list[str]:
        """Kahn's algorithm with deterministic (insertion-order) ties.

        Complexity O(|V| + |E|), as the paper notes for its source
        selection step.
        """
        in_degree = {name: len(self._pred[name]) for name in self._components}
        queue = deque(n for n in self._components if in_degree[n] == 0)
        order: list[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for succ in self._succ[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._components):
            raise CycleError(f"component graph of {self.app!r} has a cycle")
        return order

    def validate(self) -> "ComponentDAG":
        """Raise if the graph is not a DAG; return self for chaining."""
        self.topological_sort()
        return self

    # -- conversion ---------------------------------------------------------------

    def to_pods(self) -> list[PodSpec]:
        """Pod specs with bandwidth annotations, in insertion order (§5)."""
        return [
            PodSpec(
                name=component.name,
                app=self.app,
                resources=component.resources,
                bandwidth_mbps=dict(self._succ[component.name]),
                pinned_node=component.pinned_node,
            )
            for component in self.components
        ]


@dataclass
class EdgeRef:
    """A concrete inter-component edge within a deployed application."""

    app: str
    src: str
    dst: str
    required_mbps: float = field(default=0.0)

    @property
    def flow_id(self) -> str:
        """Stable flow identifier used by the deployment binding."""
        return f"{self.app}:{self.src}->{self.dst}"
