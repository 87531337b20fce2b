"""Frozen oracles the production kernels are proven bit-identical to.

These are the original, obviously-correct scalar implementations that
``src/`` used to ship beside their optimized replacements.  They are
test fixtures, not product: nothing under ``src/`` imports this module.

* :func:`max_min_allocation_reference` — the per-round water-filling
  loop that rebuilds the flows-per-link map every round, and
  :func:`reference_allocation`, which runs it per link-connected
  component (the canonical decomposed semantics ``max_min_allocation``
  implements); :func:`forced_kernel` pins ``max_min_allocation`` to one
  of its two kernels.
* :class:`LinkQueue` — the one-queue-per-object fluid queue whose
  ``update`` arithmetic ``QueueArrays.update_all`` replays elementwise,
  and :class:`LockstepQueue`, which steps one production row beside it
  and refuses to report a value the two disagree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.net.fairness import (
    _EPSILON,
    FlowDemand,
    LinkKey,
    _partition_flows,
    link_components,
)
from repro.net.queues import QueueArrays


def max_min_allocation_reference(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> dict[Hashable, float]:
    """The frozen reference water-filling implementation (the oracle).

    Rebuilds the flows-per-link incidence map every round; correct and
    simple, but the rebuild dominates on large instances.  Kept verbatim
    so the optimized solvers can be proven bit-compatible against it and
    the perf harness can measure the speedup honestly.
    """
    rates: dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    remaining = {key: float(cap) for key, cap in capacities.items()}

    active: dict[Hashable, FlowDemand] = {}
    for flow in flows:
        if flow.demand_mbps <= _EPSILON:
            continue
        if not flow.links:
            rates[flow.flow_id] = flow.demand_mbps  # loopback
            continue
        for key in flow.links:
            if key not in remaining:
                raise KeyError(f"flow {flow.flow_id!r} uses unknown link {key}")
        active[flow.flow_id] = flow

    while active:
        flows_on_link: dict[LinkKey, int] = {}
        for flow in active.values():
            for key in flow.links:
                flows_on_link[key] = flows_on_link.get(key, 0) + 1

        # Largest uniform increment every active flow can take.
        delta = min(
            remaining[key] / count for key, count in flows_on_link.items()
        )
        delta = min(
            delta,
            min(
                flow.demand_mbps - rates[fid]
                for fid, flow in active.items()
            ),
        )
        delta = max(delta, 0.0)

        for fid in active:
            rates[fid] += delta
        for key, count in flows_on_link.items():
            remaining[key] -= delta * count

        # Retire satisfied flows, then flows pinned by a saturated link.
        satisfied = [
            fid
            for fid, flow in active.items()
            if rates[fid] >= flow.demand_mbps - _EPSILON
        ]
        for fid in satisfied:
            del active[fid]
        saturated = {
            key
            for key, cap in remaining.items()
            if cap <= _EPSILON and flows_on_link.get(key)
        }
        if saturated:
            pinned = [
                fid
                for fid, flow in active.items()
                if any(key in saturated for key in flow.links)
            ]
            for fid in pinned:
                del active[fid]
        elif not satisfied and delta <= _EPSILON:
            break  # numerical dead-end; all remaining rates stay put

    return rates


def reference_allocation(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> dict[Hashable, float]:
    """The oracle for a general instance: the reference loop run on
    each link-connected component on its own."""
    rates, active = _partition_flows(flows, capacities)
    for component in link_components(active):
        rates.update(
            max_min_allocation_reference(
                list(component.values()), capacities
            )
        )
    return rates


def forced_kernel(fill: Callable) -> Callable:
    """``max_min_allocation`` with its kernel choice overridden by
    ``fill`` (``fairness._fill_indexed`` or ``fairness._fill_batched``)."""

    def solve(
        flows: Sequence[FlowDemand], capacities: Mapping[LinkKey, float]
    ) -> dict[Hashable, float]:
        rates, active = _partition_flows(flows, capacities)
        fill(rates, link_components(active), capacities)
        return rates

    return solve


@dataclass
class QueueSample:
    """Snapshot of a queue after an update step."""

    backlog_mbit: float
    delay_s: float
    loss_fraction: float


class LinkQueue:
    """Fluid FIFO queue for one direction of a link.

    Args:
        buffer_mbit: buffer size in megabits.  The default (25 Mbit,
            ~3 MB) is a typical CPE buffer: enough to absorb second-scale
            bursts, small enough that sustained overload drops packets.
    """

    def __init__(self, buffer_mbit: float = 25.0) -> None:
        if buffer_mbit <= 0:
            raise SimulationError("buffer_mbit must be positive")
        self._buffer_mbit = buffer_mbit
        self._backlog_mbit = 0.0
        self._last_loss_fraction = 0.0
        self._dropped_mbit_total = 0.0

    @property
    def backlog_mbit(self) -> float:
        return self._backlog_mbit

    @property
    def buffer_mbit(self) -> float:
        return self._buffer_mbit

    @property
    def dropped_mbit_total(self) -> float:
        return self._dropped_mbit_total

    @property
    def last_loss_fraction(self) -> float:
        """Fraction of offered traffic dropped during the last update."""
        return self._last_loss_fraction

    def delay_s(self, capacity_mbps: float) -> float:
        """Time the newest arriving bit waits behind the backlog."""
        if capacity_mbps <= 0:
            # A dead link holds its backlog indefinitely; report the
            # worst case bounded by the buffer at a nominal 1 Mbps drain.
            return self._backlog_mbit / 1.0
        return self._backlog_mbit / capacity_mbps

    def update(
        self, dt_s: float, offered_mbps: float, capacity_mbps: float
    ) -> QueueSample:
        """Advance the fluid queue by ``dt_s`` seconds.

        Args:
            dt_s: step length.
            offered_mbps: total traffic arriving at the queue.
            capacity_mbps: drain rate during the step.

        Returns:
            The post-step :class:`QueueSample`.
        """
        if dt_s < 0:
            raise SimulationError("dt_s must be non-negative")
        offered_mbit = max(offered_mbps, 0.0) * dt_s
        drained_mbit = max(capacity_mbps, 0.0) * dt_s
        backlog = self._backlog_mbit + offered_mbit - drained_mbit
        dropped = 0.0
        if backlog > self._buffer_mbit:
            dropped = backlog - self._buffer_mbit
            backlog = self._buffer_mbit
        self._backlog_mbit = max(backlog, 0.0)
        self._dropped_mbit_total += dropped
        self._last_loss_fraction = (
            min(1.0, dropped / offered_mbit) if offered_mbit > 0 else 0.0
        )
        return QueueSample(
            backlog_mbit=self._backlog_mbit,
            delay_s=self.delay_s(capacity_mbps),
            loss_fraction=self._last_loss_fraction,
        )

    def reset(self) -> None:
        """Empty the queue (e.g. after a topology change in tests)."""
        self._backlog_mbit = 0.0
        self._last_loss_fraction = 0.0


class LockstepQueue:
    """One row of the production :class:`QueueArrays` stepped beside
    the scalar :class:`LinkQueue`; every read asserts bit equality, so
    a property checked through this object holds for the product."""

    def __init__(self, buffer_mbit: float = 25.0) -> None:
        self.arrays = QueueArrays([buffer_mbit])
        self.oracle = LinkQueue(buffer_mbit)

    def update(
        self, dt_s: float, offered_mbps: float, capacity_mbps: float
    ) -> QueueSample:
        self.arrays.update_all(
            dt_s, np.array([offered_mbps]), np.array([capacity_mbps])
        )
        sample = self.oracle.update(dt_s, offered_mbps, capacity_mbps)
        assert sample.backlog_mbit == self.backlog_mbit
        assert sample.loss_fraction == self.last_loss_fraction
        assert sample.delay_s == self.delay_s(capacity_mbps)
        return sample

    def _same(self, column: str) -> float:
        value = float(getattr(self.arrays, column)[0])
        assert value == getattr(self.oracle, column), column
        return value

    @property
    def backlog_mbit(self) -> float:
        return self._same("backlog_mbit")

    @property
    def last_loss_fraction(self) -> float:
        return self._same("last_loss_fraction")

    @property
    def dropped_mbit_total(self) -> float:
        return self._same("dropped_mbit_total")

    def delay_s(self, capacity_mbps: float) -> float:
        delay = self.arrays.delay_s(0, capacity_mbps)
        assert delay == self.oracle.delay_s(capacity_mbps)
        return delay
