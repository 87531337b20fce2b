"""Declarative fault plans for the chaos layer.

A :class:`FaultPlan` is a validated, time-ordered list of fault events —
node crashes (with optional reboot), link failures (with optional
restore), link flapping, mesh partitions, and probe blackouts.  Plans
are plain data: nothing happens until a
:class:`~repro.faults.injector.FaultInjector` installs one on a
simulation engine.  Seeded plans come from :func:`seeded_churn`, which
draws a crash time and victim from the ``"faults"``
:class:`~repro.sim.rng.RngStreams` stream so a churn experiment is
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ..errors import SimulationError
from ..mesh.topology import MeshTopology
from ..sim.rng import RngStreams


@dataclass(frozen=True)
class NodeCrash:
    """A node dies at ``at_s``; optionally reboots after a delay.

    A crashed node drops off the mesh entirely: every adjacent link
    goes down, its pods stop serving, and heartbeats from it cease.
    ``reboot_after_s=None`` means it never comes back.
    """

    at_s: float
    node: str
    reboot_after_s: Optional[float] = None


@dataclass(frozen=True)
class LinkDown:
    """The ``a``–``b`` link fails at ``at_s``; optionally restores later.

    Only the link fails — both endpoint nodes stay alive and keep
    serving over whatever routes remain.
    """

    at_s: float
    a: str
    b: str
    restore_after_s: Optional[float] = None


@dataclass(frozen=True)
class LinkFlap:
    """The ``a``–``b`` link oscillates: down ``down_s``, up ``up_s``,
    for ``cycles`` full cycles starting at ``at_s``.

    Models an unstable rooftop radio — each transition forces a routing
    reconvergence, which is the stress this fault exists to apply.
    """

    at_s: float
    a: str
    b: str
    down_s: float
    up_s: float
    cycles: int = 1


@dataclass(frozen=True)
class Partition:
    """Every link between ``group`` and the rest of the mesh fails at
    ``at_s``, splitting the mesh in two; optionally heals later.

    Nodes on both sides stay alive — they just cannot reach each other.
    """

    at_s: float
    group: tuple[str, ...]
    heal_after_s: Optional[float] = None


@dataclass(frozen=True)
class ProbeBlackout:
    """Heartbeats and probes from ``node`` are lost for ``duration_s``
    starting at ``at_s``, although the node itself is healthy.

    This is the false-positive stress for the failure detector: a
    blackout longer than the confirmation timeout makes a live node
    look dead, and the detector must notice the resurrection when the
    blackout lifts.
    """

    at_s: float
    node: str
    duration_s: float


@dataclass(frozen=True)
class OrchestratorKill:
    """The control-plane process dies at ``at_s`` and is brought back
    ``down_s`` seconds later.

    Unlike a :class:`NodeCrash` this touches no substrate state — the
    mesh keeps routing, pods keep serving, the failure detector keeps
    beating.  What stops is *decision making*: every controller epoch
    task is cancelled, and recoveries confirmed during the outage are
    deferred until the orchestrator resumes.  This is the BASS-paper
    blind spot the failover experiment measures: in a community mesh
    the controller node is just another flaky box.
    """

    at_s: float
    down_s: float


FaultEvent = Union[
    NodeCrash, LinkDown, LinkFlap, Partition, ProbeBlackout, OrchestratorKill
]


@dataclass
class FaultPlan:
    """A validated, time-ordered collection of fault events.

    Example:
        >>> from repro.mesh import line_topology
        >>> plan = FaultPlan([NodeCrash(at_s=30.0, node="node2")])
        >>> plan.validate(line_topology([10.0, 10.0]))
        >>> [type(e).__name__ for e in plan.events]
        ['NodeCrash']
    """

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_s)

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append an event, keeping the plan time-ordered."""
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_s)
        return self

    def validate(self, topology: MeshTopology) -> None:
        """Check every event against the topology it will be applied to.

        Raises:
            SimulationError: on negative or NaN times/durations, unknown nodes
                or links, or a partition group that is empty or total.
        """
        names = {node.name for node in topology.nodes}
        for event in self.events:
            if not event.at_s >= 0:
                raise SimulationError(
                    f"fault at a negative or NaN time: {event!r}"
                )
            if isinstance(event, NodeCrash):
                self._check_node(event.node, names, event)
                if event.reboot_after_s is not None and not event.reboot_after_s > 0:
                    raise SimulationError(
                        f"reboot_after_s must be positive: {event!r}"
                    )
            elif isinstance(event, LinkDown):
                topology.link(event.a, event.b)  # raises if absent
                if (
                    event.restore_after_s is not None
                    and not event.restore_after_s > 0
                ):
                    raise SimulationError(
                        f"restore_after_s must be positive: {event!r}"
                    )
            elif isinstance(event, LinkFlap):
                topology.link(event.a, event.b)
                if not (event.down_s > 0 and event.up_s > 0 and event.cycles >= 1):
                    raise SimulationError(
                        f"flap needs positive down_s/up_s and >=1 cycle: "
                        f"{event!r}"
                    )
            elif isinstance(event, Partition):
                if not event.group:
                    raise SimulationError("partition group is empty")
                for name in event.group:
                    self._check_node(name, names, event)
                if set(event.group) >= names:
                    raise SimulationError(
                        "partition group contains every node; nothing "
                        "is on the other side"
                    )
                if event.heal_after_s is not None and not event.heal_after_s > 0:
                    raise SimulationError(
                        f"heal_after_s must be positive: {event!r}"
                    )
            elif isinstance(event, ProbeBlackout):
                self._check_node(event.node, names, event)
                if not event.duration_s > 0:
                    raise SimulationError(
                        f"blackout duration must be positive: {event!r}"
                    )
            elif isinstance(event, OrchestratorKill):
                if not event.down_s > 0:
                    raise SimulationError(
                        f"orchestrator down_s must be positive: {event!r}"
                    )
            else:  # pragma: no cover - guarded by the FaultEvent union
                raise SimulationError(f"unknown fault event {event!r}")

    @staticmethod
    def _check_node(
        name: str, names: set, event: FaultEvent
    ) -> None:
        if name not in names:
            raise SimulationError(
                f"fault references unknown node {name!r}: {event!r}"
            )


def seeded_churn(
    topology: MeshTopology,
    rng: RngStreams,
    *,
    duration_s: float,
    candidates: Optional[Iterable[str]] = None,
) -> FaultPlan:
    """Generate a random-but-reproducible one-crash plan.

    The victim is drawn from ``candidates`` (default: the schedulable
    workers) and the crash time uniformly over the middle 80 % of
    ``duration_s`` — early enough to recover inside the run, late
    enough that the system reached steady state.  The node never
    reboots.  Both draws come from the ``"faults"`` stream, so the same
    seed always yields the same plan.
    """
    if not duration_s > 0:
        raise SimulationError("duration_s must be positive")
    gen = rng.get("faults")
    pool = sorted(candidates) if candidates is not None else list(
        topology.worker_names
    )
    if not pool:
        raise SimulationError("cannot crash: no candidate nodes")
    (victim,) = gen.choice(len(pool), size=1, replace=False)
    at_s = float(gen.uniform(0.1 * duration_s, 0.9 * duration_s))
    return FaultPlan([NodeCrash(at_s=at_s, node=pool[victim])])
