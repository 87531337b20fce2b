"""Tiny deterministic cells for exercising the sweep runner.

Real sweep cells simulate minutes of mesh time; these are
millisecond-scale stand-ins with the same shape (module-level function,
keyword arguments, dataclass result) used by the runner's own unit
tests and by quick smoke checks.  They live in the package — not under
``tests/`` — so worker processes can import them under any start
method.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SquareResult:
    """What :func:`square_cell` returns."""

    value: int
    squared: int
    seed: int


def square_cell(*, value: int, seed: int = 0) -> SquareResult:
    """A trivially deterministic cell."""
    return SquareResult(value=value, squared=value * value, seed=seed)


def crashing_cell(*, value: int) -> SquareResult:
    """A cell that always fails (worker-crash handling tests)."""
    raise ValueError(f"boom on {value}")


def slow_cell(*, value: int, sleep_s: float = 0.05) -> SquareResult:
    """A cell that burns wall time (parallel speedup smoke checks)."""
    deadline = time.perf_counter() + sleep_s
    while time.perf_counter() < deadline:
        pass  # spin: sleep() under-schedules tiny durations on busy CI
    return SquareResult(value=value, squared=value * value, seed=0)


def unserializable_cell(*, value: int) -> object:
    """A cell whose result the codec rejects (cache-error tests)."""
    return object()


@dataclass(frozen=True)
class BusyResult:
    """What :func:`busy_cell` returns."""

    weight: float
    checksum: int
    seed: int


def busy_cell(*, weight: float, seed: int = 0) -> BusyResult:
    """Deterministic CPU work proportional to ``weight``.

    The spin is a pure-integer LCG, so the checksum — and therefore the
    sweep's canonical output — is identical on every machine and under
    any ``jobs``, while the wall time scales with ``weight``.  The
    heterogeneous-grid benchmarks use this to emulate a grid whose
    biggest cell runs ~100x longer than its smallest.
    """
    iterations = max(1, int(weight * 4000))
    state = (seed * 2654435761 + 1) & 0x7FFFFFFF
    for _ in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    return BusyResult(weight=weight, checksum=state, seed=seed)


def worker_killing_cell(
    *, value: int, survive_marker: str | None = None
) -> SquareResult:
    """A cell that hard-kills its host process (crash-recovery tests).

    With ``survive_marker`` set, the first execution leaves the marker
    file behind and dies; any retry finds the marker and completes
    normally — modelling a transient worker death (OOM kill, node
    reboot).  Without a marker the cell kills every host it lands on,
    modelling a poison cell that must eventually surface as a failure
    instead of crash-looping the fabric.
    """
    if survive_marker is not None and os.path.exists(survive_marker):
        return SquareResult(value=value, squared=value * value, seed=0)
    if survive_marker is not None:
        with open(survive_marker, "w") as handle:
            handle.write("died once\n")
    os._exit(137)  # hard kill: no exception, no cleanup, no traceback
