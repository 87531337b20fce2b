"""Deployment state: which component runs where, and migration history."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MigrationError, SchedulingError


@dataclass(frozen=True)
class MigrationRecord:
    """One completed component migration."""

    time: float
    pod_name: str
    from_node: str
    to_node: str
    reason: str = ""


class Deployment:
    """Bindings of one application's pods to mesh nodes.

    Tracks the current placement, each pod's availability window (a pod
    is unavailable while restarting after a migration), and the full
    migration history for post-hoc analysis (Table 1, Fig 13 dots).

    :meth:`bind`, :meth:`rebind` and :meth:`unbind` are the only
    writers of placement, and each bumps :attr:`revision` — the exact
    invalidation key for anything derived from "which pod is on which
    node" (the binding's edge table).
    """

    def __init__(self, app: str) -> None:
        self.app = app
        self._bindings: dict[str, str] = {}
        self._available_at: dict[str, float] = {}
        self.revision = 0
        self.migrations: list[MigrationRecord] = []

    def bind(self, pod_name: str, node: str, *, available_at: float = 0.0) -> None:
        """Place a pod on a node (initial deployment)."""
        if pod_name in self._bindings:
            raise SchedulingError(
                f"pod {pod_name!r} is already bound to "
                f"{self._bindings[pod_name]!r}"
            )
        self._bindings[pod_name] = node
        self._available_at[pod_name] = available_at
        self.revision += 1

    def rebind(
        self,
        pod_name: str,
        node: str,
        *,
        time: float,
        restart_seconds: float,
        reason: str = "",
    ) -> MigrationRecord:
        """Move a pod to a new node, recording the migration.

        The pod becomes unavailable for ``restart_seconds`` (the paper
        measures ~20 s to restart Pion and re-establish WebRTC, §6.3.2).
        """
        if pod_name not in self._bindings:
            raise MigrationError(f"pod {pod_name!r} is not deployed")
        source = self._bindings[pod_name]
        if source == node:
            raise MigrationError(
                f"pod {pod_name!r} is already on node {node!r}"
            )
        self._bindings[pod_name] = node
        self._available_at[pod_name] = time + restart_seconds
        self.revision += 1
        record = MigrationRecord(
            time=time,
            pod_name=pod_name,
            from_node=source,
            to_node=node,
            reason=reason,
        )
        self.migrations.append(record)
        return record

    def unbind(self, pod_name: str) -> str:
        """Remove a pod; returns the node it ran on."""
        if pod_name not in self._bindings:
            raise SchedulingError(f"pod {pod_name!r} is not deployed")
        node = self._bindings.pop(pod_name)
        self._available_at.pop(pod_name, None)
        self.revision += 1
        return node

    def node_of(self, pod_name: str) -> str:
        try:
            return self._bindings[pod_name]
        except KeyError:
            raise SchedulingError(f"pod {pod_name!r} is not deployed") from None

    def is_deployed(self, pod_name: str) -> bool:
        return pod_name in self._bindings

    def is_available(self, pod_name: str, time: float) -> bool:
        """Whether the pod is serving (not mid-restart) at ``time``."""
        if pod_name not in self._bindings:
            return False
        return time >= self._available_at.get(pod_name, 0.0)

    def restarting(self, time: float) -> dict[str, float]:
        """The deployed pods mid-restart at ``time``, each with the
        instant it serves again — the pods :meth:`is_available` denies.
        Empty except in the restart window after a migration."""
        return {
            pod: until
            for pod, until in self._available_at.items()
            if time < until
        }

    def colocated(self, a: str, b: str) -> bool:
        """Whether two pods share a node."""
        return self.node_of(a) == self.node_of(b)

    def pods_on(self, node: str) -> list[str]:
        return [pod for pod, bound in self._bindings.items() if bound == node]

    @property
    def bindings(self) -> dict[str, str]:
        """A copy of the pod → node mapping."""
        return dict(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)
