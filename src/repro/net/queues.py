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
by link id.  A step over *quiet* queues (every backlog and loss zero)
that offers no row more than its capacity changes nothing, so it
returns at once; :attr:`QueueArrays.quiet` tells the emulator when its
queue answers cannot have moved.  The scalar one-queue-per-object
model it replaced is kept as the bit-parity oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..sim.derived import Derived, forget


class QueueArrays(Derived):
    """Structure-of-arrays state for every directed-link queue of a mesh.

    Row *i* holds the queue of directed link *i* (the emulator's stable
    link ordering).  :meth:`update_all` advances every row in one
    vectorized pass whose elementwise arithmetic matches the scalar
    oracle's ``LinkQueue.update`` operation for operation, so a run
    through the arrays is bit-identical to a run through per-object
    queues.

    While every row is :attr:`quiet`, a step offering no row more than
    its capacity is skipped: it would leave each backlog at ``+0.0``
    and each loss at ``0.0``.

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
        "_quiet",
        "_scratch_offered",
        "_scratch_dropped",
    )

    DERIVED = {
        # A row is quiet at ``+0.0`` backlog and ``0.0`` loss; the sign
        # bit tells a ``-0.0`` apart.
        "_quiet": lambda self: not any(
            values.any() or np.signbit(values).any()
            for values in (self.backlog_mbit, self.last_loss_fraction)
        ),
        "_scratch_offered": lambda self: np.empty(self.buffer_mbit.size, dtype=float),
        "_scratch_dropped": lambda self: np.empty(self.buffer_mbit.size, dtype=float),
    }

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
        forget(self)

    def __len__(self) -> int:
        return self.buffer_mbit.size

    @property
    def quiet(self) -> bool:
        """Every backlog is ``+0.0`` and every loss fraction ``0.0``:
        no queue delays or drops anything."""
        return self._quiet

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

        Quiet queues offered no more than their capacity over a
        positive ``dt_s`` are left as they are, which is exact: each
        row's ``offered_mbit - drained`` is ``<= 0`` (``x - x`` rounds
        to ``+0.0``), so the backlog clamps back to ``+0.0``, nothing
        is dropped and the loss is ``0.0``.  Steps that would make a
        backlog NaN run in full: an infinite ``offered * dt``
        (``inf - inf``), an infinite capacity over ``dt_s == 0``
        (``inf * 0``), and a NaN offered load or capacity, which fails
        the ``<=``.
        """
        if not (math.isfinite(dt_s) and dt_s >= 0):
            raise SimulationError("dt_s must be finite and non-negative")
        if (
            self._quiet
            and dt_s > 0
            and (offered_mbps <= capacity_mbps).all()
            and (not offered_mbps.size or math.isfinite(offered_mbps.max() * dt_s))
        ):
            return
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
        # A row drops only above its (positive) buffer, where its
        # backlog stays, and ``np.maximum(-0.0, 0.0)`` is ``+0.0``: an
        # all-zero backlog is all ``+0.0``, with every loss ``0.0``.
        self._quiet = not backlog.any()
