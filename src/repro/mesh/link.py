"""Wireless links with time-varying, shapeable capacity.

A link joins two mesh nodes.  Links are bidirectional with independent
per-direction capacity (the CityLab links the paper measures have
"similar bandwidth in both directions", Fig 15a, so by default both
directions share one trace).  Capacity at time *t* is:

    min(trace value at t  (or the static base capacity),
        tc rate limit     (if one is installed))

The ``tc`` rate limit reproduces the paper's controlled throttling
experiments (Figs 3, 5, 12, 13), where ``tc`` caps an interface while
the underlying radio capacity is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import TopologyError
from .traces import BandwidthTrace

LinkId = tuple[str, str]
"""Canonical (sorted) pair of endpoint node names identifying a link."""


def link_id(a: str, b: str) -> LinkId:
    """Canonical identifier for the link between nodes ``a`` and ``b``."""
    if a == b:
        raise TopologyError(f"link endpoints must differ, got {a!r} twice")
    return (a, b) if a < b else (b, a)


@dataclass
class _DirectionState:
    """Mutable capacity state for one direction of a link."""

    base_mbps: float
    trace: Optional[BandwidthTrace] = None
    rate_limit_mbps: Optional[float] = None

    def capacity_at(self, t: float) -> float:
        capacity = self.trace.value_at(t) if self.trace else self.base_mbps
        if self.rate_limit_mbps is not None:
            capacity = min(capacity, self.rate_limit_mbps)
        return capacity


class Link:
    """A bidirectional wireless link between two mesh nodes.

    Args:
        a: first endpoint node name.
        b: second endpoint node name.
        capacity_mbps: static base capacity used for both directions
            until a trace is attached.
        latency_ms: one-way propagation latency (wireless hop, ~1–5 ms).

    Example:
        >>> link = Link("node1", "node2", capacity_mbps=20.0)
        >>> link.capacity("node1", "node2", t=0.0)
        20.0
        >>> link.set_rate_limit(5.0, src="node1", dst="node2")
        >>> link.capacity("node1", "node2", t=0.0)
        5.0
    """

    #: Process-wide count of shaping mutations (``set_trace`` /
    #: ``set_rate_limit``) across *all* links.  Up/down transitions bump
    #: the topology version instead, so the pair (topology version,
    #: ``Link.shaping_rev``) changing is the emulator's cue to rebuild
    #: its capacity-scan structures.  Deliberately a class attribute:
    #: readers compare with ``!=`` only, so a pickled snapshot restored
    #: into a process with a different counter merely triggers one
    #: harmless rebuild.
    shaping_rev: int = 0

    def __init__(
        self,
        a: str,
        b: str,
        capacity_mbps: float,
        *,
        latency_ms: float = 2.0,
    ) -> None:
        # NaN compares False both ways, so each check asks for finiteness.
        if not (math.isfinite(capacity_mbps) and capacity_mbps > 0):
            raise TopologyError(
                f"link {a}-{b}: capacity must be positive and finite, "
                f"got {capacity_mbps}"
            )
        if not (math.isfinite(latency_ms) and latency_ms >= 0):
            raise TopologyError(
                f"link {a}-{b}: latency must be finite and >= 0, got {latency_ms}"
            )
        self.id: LinkId = link_id(a, b)
        self.latency_ms = latency_ms
        #: Whether the link is currently carrying traffic.  Managed by
        #: :class:`~repro.mesh.topology.MeshTopology` (a link is down
        #: when explicitly failed or when either endpoint node is down);
        #: a down link has zero capacity in both directions.
        self.up: bool = True
        self._directions: dict[tuple[str, str], _DirectionState] = {
            (a, b): _DirectionState(base_mbps=capacity_mbps),
            (b, a): _DirectionState(base_mbps=capacity_mbps),
        }

    @property
    def endpoints(self) -> LinkId:
        return self.id

    def _direction(self, src: str, dst: str) -> _DirectionState:
        try:
            return self._directions[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"link {self.id}: no direction {src}->{dst}"
            ) from None

    def other_end(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        a, b = self.id
        if node == a:
            return b
        if node == b:
            return a
        raise TopologyError(f"node {node!r} is not an endpoint of link {self.id}")

    def capacity(self, src: str, dst: str, t: float) -> float:
        """Effective capacity of the ``src -> dst`` direction at time t.

        A down link (failed, or with a crashed endpoint) carries nothing.
        """
        if not self.up:
            return 0.0
        return self._direction(src, dst).capacity_at(t)

    def set_trace(
        self,
        trace: BandwidthTrace,
        *,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> None:
        """Attach a bandwidth trace.

        With no direction given, both directions follow the same trace
        (the common case for the CityLab links).
        """
        if (src is None) != (dst is None):
            raise TopologyError("set_trace needs both src and dst, or neither")
        if src is None:
            for state in self._directions.values():
                state.trace = trace
        else:
            self._direction(src, dst).trace = trace
        Link.shaping_rev += 1

    def set_rate_limit(
        self,
        limit_mbps: Optional[float],
        *,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> None:
        """Install (or clear, with ``None``) a tc-style shaping limit."""
        if limit_mbps is not None and not (
            math.isfinite(limit_mbps) and limit_mbps > 0
        ):
            raise TopologyError("rate limit must be positive and finite, or None")
        if (src is None) != (dst is None):
            raise TopologyError(
                "set_rate_limit needs both src and dst, or neither"
            )
        if src is None:
            for state in self._directions.values():
                state.rate_limit_mbps = limit_mbps
        else:
            self._direction(src, dst).rate_limit_mbps = limit_mbps
        Link.shaping_rev += 1

    def base_capacity(self, src: str, dst: str) -> float:
        """The static base capacity (ignoring trace and shaping)."""
        return self._direction(src, dst).base_mbps

    def direction_profile(
        self, src: str, dst: str
    ) -> tuple[float, Optional[BandwidthTrace], Optional[float]]:
        """``(base_mbps, trace, rate_limit_mbps)`` for one direction.

        Read-only view for batch consumers (the emulator's capacity
        scan groups directions sharing a trace grid); any mutation of
        the returned trace/limit must go through :meth:`set_trace` /
        :meth:`set_rate_limit` so ``shaping_rev`` advances.
        """
        state = self._direction(src, dst)
        return state.base_mbps, state.trace, state.rate_limit_mbps
