"""Orchestrator failover chaos: kill and resume the control plane.

BASS assumes the orchestrator never dies; in a community mesh the
controller node is just another flaky box.  This scenario layers an
:class:`~repro.faults.plan.OrchestratorKill` over the churn substrate
and arranges the worst case: a worker crashes *while the orchestrator
is down*, so the failure detector (which keeps beating — it lives on
the observer node, not the controller) confirms the death into a void.
The confirmation is deferred by the
:class:`~repro.faults.recovery.RecoveryCoordinator` and honoured the
instant the control plane resumes, and the run measures exactly what
the outage cost:

* **decisions deferred** — recoveries (and the epochs that never ran)
  queued up during the outage;
* **goodput dip** — the tenants' delivered goodput across the outage
  (the crash's dip lasts longer because nobody re-places the pods);
* **recovery promptness** — how many epoch intervals after resume the
  first re-placement lands (the acceptance bound: within 2).

The run is ``@checkpointable``: restored from a snapshot taken inside
the outage, it finishes exactly as the uninterrupted run does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..faults.plan import OrchestratorKill
from ..metrics.summary import RecoveryStats
from .churn import ChurnResult, PreparedChurn, churn_recovery
from .common import RunCapsule, checkpointable

__all__ = [
    "FailoverResult",
    "PreparedFailover",
    "failover_outage",
]


@dataclass
class FailoverResult:
    """One orchestrator-outage run, measured end to end."""

    churn: ChurnResult
    kill_at_s: float
    down_s: float
    resume_at_s: float
    #: Fleet epochs that should have run during the outage but did not.
    missed_epochs: int
    #: Recovery confirmations queued while the orchestrator was down.
    deferred_recoveries: int
    #: When the first deferred re-placement landed (None: never).
    first_recovery_at_s: Optional[float]
    epoch_interval_s: float

    @property
    def goodput_stats(self) -> RecoveryStats:
        return self.churn.goodput_stats

    @property
    def recovery_delay_after_resume_s(self) -> Optional[float]:
        """Resume → first successful re-placement (None: none landed)."""
        if self.first_recovery_at_s is None:
            return None
        return self.first_recovery_at_s - self.resume_at_s

    @property
    def resume_epoch_gap(self) -> Optional[float]:
        """The acceptance metric: epochs between resume and the first
        recovery decision.  Deferred recoveries drain synchronously on
        resume, so this is 0.0 when the drain re-places anything."""
        delay = self.recovery_delay_after_resume_s
        if delay is None:
            return None
        return delay / self.epoch_interval_s


@dataclass
class PreparedFailover:
    """A wired failover run (churn substrate + orchestrator kill)."""

    churn: PreparedChurn
    kill_at_s: float
    down_s: float

    def result(self, duration_s: float) -> FailoverResult:
        """Assemble the outage accounting once the clock has run."""
        cp = self.churn.env.control_plane
        churn_result = self.churn.result(duration_s)
        down_at, up_at = cp.outages[0]
        resume_at = up_at if up_at is not None else duration_s
        interval = self.churn.epoch_interval_s
        recovery = cp.recovery
        succeeded = [a.time for a in churn_result.actions if a.succeeded]
        return FailoverResult(
            churn=churn_result,
            kill_at_s=down_at,
            down_s=resume_at - down_at,
            resume_at_s=resume_at,
            missed_epochs=int((resume_at - down_at) / interval),
            deferred_recoveries=(
                recovery.deferred_total if recovery is not None else 0
            ),
            first_recovery_at_s=min(succeeded) if succeeded else None,
            epoch_interval_s=interval,
        )


@checkpointable
def failover_outage(
    *,
    duration_s: float = 240.0,
    tenants: int = 1,
    seed: int,
    crash_node: str = "node2",
    crash_at_s: float = 70.0,
    kill_at_s: float = 60.0,
    down_s: float = 45.0,
) -> RunCapsule:
    """The orchestrator-outage scenario: churn + an orchestrator outage
    covering the crash's detection window.

    Defaults stage the worst case: the orchestrator dies at 60 s, the
    worker crashes at 70 s (into the outage), the detector confirms
    around 90 s (5 s beats x 4 missed + phase) while nobody is
    listening, and the plane resumes at 105 s to a deferred recovery.
    """
    if not kill_at_s < crash_at_s:
        raise ValueError(
            "the scenario wants the crash inside the outage: "
            f"kill_at_s={kill_at_s} must precede crash_at_s={crash_at_s}"
        )
    capsule = churn_recovery.capsule(
        tenants=tenants,
        duration_s=duration_s,
        seed=seed,
        crash_node=crash_node,
        crash_at_s=crash_at_s,
        label="failover",
        extra_faults=(OrchestratorKill(at_s=kill_at_s, down_s=down_s),),
    )
    return replace(
        capsule,
        prepared=PreparedFailover(
            churn=capsule.prepared, kill_at_s=kill_at_s, down_s=down_s
        ),
    )

