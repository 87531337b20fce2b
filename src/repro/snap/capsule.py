"""The picklable root object a snapshot serializes.

A :class:`RunCapsule` bundles everything one run *is*: the substrate
(:class:`~repro.experiments.common.ExperimentEnv` — engine, emulator,
cluster, control plane, RNG family, tracer), the timeline (horizon,
one-shot events, per-tick observer), and a scenario-specific ``extras``
bag (prepared-experiment objects whose bound methods the heap
references).  Pickling the capsule pickles the whole object graph in
one pass, so every cross-reference — the tracer shared by twelve
subsystems, the periodic tasks holding the control plane — restores to
the *same* shared objects.

The ``started`` flag is the restore contract: :meth:`start` arms the
emulator ticker, tick observer, and timeline events exactly once.  A
capsule restored mid-run has them in its pickled heap already, so
``start`` is a no-op and driving simply continues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..experiments.common import ExperimentEnv, arm_timeline

_EPSILON = 1e-9


@dataclass
class RunCapsule:
    """One checkpointable run: substrate + timeline + progress."""

    #: The catalogue id of the experiment this run is a cell of
    #: (:mod:`repro.experiments.catalog`); restores look the row up by it.
    scenario: str
    env: ExperimentEnv
    duration_s: float
    tick_s: float = 1.0
    on_tick: Optional[Callable[[float], None]] = None
    events: tuple[tuple[float, Callable[[], None]], ...] = ()
    #: Scenario-private objects (prepared substrates, samplers) the
    #: finisher reads results from.  Pickled with everything else.
    extras: dict = field(default_factory=dict)
    started: bool = False

    @property
    def engine(self):
        return self.env.engine

    @property
    def control_plane(self):
        return self.env.control_plane

    @property
    def done(self) -> bool:
        return self.engine.now >= self.duration_s - _EPSILON

    def start(self) -> None:
        """Arm the emulator ticker, tick observer, and one-shot events
        through :func:`~repro.experiments.common.arm_timeline` — the
        function ``run_timeline`` arms with, so decisions match the
        batch path.  Idempotent, and a no-op after a restore (the armed
        events travelled inside the pickled heap)."""
        if self.started:
            return
        self.started = True
        arm_timeline(
            self.env,
            on_tick=self.on_tick,
            tick_s=self.tick_s,
            events=self.events,
        )

    def run_until(self, sim_time_s: float) -> float:
        """Advance the clock to ``min(sim_time_s, duration_s)``."""
        self.start()
        target = min(sim_time_s, self.duration_s)
        if target > self.engine.now:
            self.engine.run_until(target)
        return self.engine.now

    def run_to_completion(self) -> float:
        """Tick to the scenario horizon."""
        return self.run_until(self.duration_s)
