"""Per-link fluid queues: overload becomes delay, then loss.

Each directed link has a finite buffer.  When offered load exceeds
capacity, the backlog grows at the excess rate; when capacity exceeds
offered load, the backlog drains.  Queueing delay is backlog divided by
capacity (the time the newest bit waits), and offered traffic beyond a
full buffer is dropped — giving both the latency inflation of Fig 5 and
the packet loss of Fig 4 from one mechanism.

:class:`QueueArrays` is the one representation: structure-of-arrays
storage in which all queues of a mesh advance in one vectorized
:meth:`QueueArrays.update_all` step, and a single queue is a row read
by link id.  The scalar one-queue-per-object model it replaced is kept
as the bit-parity oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import SimulationError


class QueueArrays:
    """Structure-of-arrays state for every directed-link queue of a mesh.

    Row *i* holds the queue of directed link *i* (the emulator's stable
    link ordering).  :meth:`update_all` advances every row in one
    vectorized pass whose elementwise arithmetic matches the scalar
    oracle's ``LinkQueue.update`` operation for operation, so a run
    through the arrays is bit-identical to a run through per-object
    queues.

    Args:
        buffer_mbit: per-row buffer size in megabits.  The emulator's
            default (25 Mbit, ~3 MB) is a typical CPE buffer: enough to
            absorb second-scale bursts, small enough that sustained
            overload drops packets.  ``+inf`` is an unbounded buffer
            that never drops; NaN is refused.
    """

    __slots__ = (
        "buffer_mbit",
        "backlog_mbit",
        "last_loss_fraction",
        "dropped_mbit_total",
        "_scratch_offered",
        "_scratch_dropped",
    )

    def __init__(self, buffer_mbit: Sequence[float] | np.ndarray) -> None:
        self.buffer_mbit = np.asarray(buffer_mbit, dtype=float).copy()
        if self.buffer_mbit.ndim != 1:
            raise SimulationError("buffer_mbit must be one-dimensional")
        if not np.all(self.buffer_mbit > 0):
            raise SimulationError("buffer_mbit must be positive (not NaN)")
        n = self.buffer_mbit.size
        self.backlog_mbit = np.zeros(n, dtype=float)
        self.last_loss_fraction = np.zeros(n, dtype=float)
        self.dropped_mbit_total = np.zeros(n, dtype=float)
        self._scratch_offered = np.empty(n, dtype=float)
        self._scratch_dropped = np.empty(n, dtype=float)

    def __len__(self) -> int:
        return self.buffer_mbit.size

    def delay_s(self, row: int, capacity_mbps: float) -> float:
        """Time the newest bit arriving at queue ``row`` waits behind
        its backlog."""
        if capacity_mbps <= 0:
            # A dead link holds its backlog indefinitely; report the
            # worst case bounded by the buffer at a nominal 1 Mbps drain.
            return float(self.backlog_mbit[row]) / 1.0
        return float(self.backlog_mbit[row]) / capacity_mbps

    def update_all(
        self,
        dt_s: float,
        offered_mbps: np.ndarray,
        capacity_mbps: np.ndarray,
    ) -> None:
        """Advance every queue by ``dt_s`` seconds.

        Replays the scalar ``LinkQueue.update`` elementwise:
        ``backlog + offered*dt - drained*dt``, clamp to the buffer
        (excess is dropped), clamp at zero, then the per-step loss
        fraction ``min(1, dropped/offered_mbit)`` (zero when nothing
        was offered).
        """
        if not (math.isfinite(dt_s) and dt_s >= 0):
            raise SimulationError("dt_s must be finite and non-negative")
        offered_mbit = self._scratch_offered
        np.maximum(offered_mbps, 0.0, out=offered_mbit)
        offered_mbit *= dt_s
        backlog = self.backlog_mbit
        # backlog = backlog + offered_mbit - drained_mbit, in the same
        # association as the scalar path.
        backlog += offered_mbit
        drained = np.maximum(capacity_mbps, 0.0)
        drained *= dt_s
        backlog -= drained
        dropped = self._scratch_dropped
        np.subtract(backlog, self.buffer_mbit, out=dropped)
        np.maximum(dropped, 0.0, out=dropped)
        np.minimum(backlog, self.buffer_mbit, out=backlog)
        np.maximum(backlog, 0.0, out=backlog)
        self.dropped_mbit_total += dropped
        loss = self.last_loss_fraction
        loss.fill(0.0)
        np.divide(dropped, offered_mbit, out=loss, where=offered_mbit > 0)
        np.minimum(loss, 1.0, out=loss)

    def __getstate__(self) -> dict:
        return {
            "buffer_mbit": self.buffer_mbit,
            "backlog_mbit": self.backlog_mbit,
            "last_loss_fraction": self.last_loss_fraction,
            "dropped_mbit_total": self.dropped_mbit_total,
        }

    def __setstate__(self, state: dict) -> None:
        self.buffer_mbit = state["buffer_mbit"]
        self.backlog_mbit = state["backlog_mbit"]
        self.last_loss_fraction = state["last_loss_fraction"]
        self.dropped_mbit_total = state["dropped_mbit_total"]
        n = self.buffer_mbit.size
        self._scratch_offered = np.empty(n, dtype=float)
        self._scratch_dropped = np.empty(n, dtype=float)
