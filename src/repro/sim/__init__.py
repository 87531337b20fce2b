"""Discrete-event simulation substrate.

The engine drives every emulated-mesh experiment: trace replay ticks,
probe cycles, controller evaluations, application traffic, and migrations
are all events on one clock.  :mod:`repro.sim.derived` is how the
objects on that clock say which of their fields a snapshot leaves out.
"""

from .engine import Engine, PeriodicTask, ScheduledEvent
from .rng import RngStreams

__all__ = ["Engine", "PeriodicTask", "ScheduledEvent", "RngStreams"]
