"""Declarative SLO watchdogs evaluated on the rolling windows.

The paper's operators care about three live health questions: is the
net-monitor's probe overhead staying within its budget (§5.2's central
trade-off), are node failures detected fast enough for recovery to
matter, and are cross-region handoffs completing promptly?  Each is a
:class:`SloRule` — a named ceiling on one
:class:`~repro.obs.exposition.RollingWindows` metric — and the
:class:`SloWatchdog` evaluates every rule each controller epoch.

Breaches are edge-triggered: crossing the ceiling emits one
``slo.breach`` trace event whose ``cause`` is the last event that fed
the offending window (so ``bass-repro report`` can render the causal
chain from raw probe/handoff activity to the breach), and the rule
stays marked *active* in ``status.json`` until the window drops back
under the ceiling, which emits nothing but clears the state.

Example:
    >>> from repro.obs.exposition import RollingWindows
    >>> from repro.obs.trace import Tracer
    >>> tracer = Tracer()
    >>> windows = RollingWindows(window_s=10.0, slots=10)
    >>> tracer.add_observer(windows)
    >>> dog = SloWatchdog(
    ...     [SloRule("probe_budget", "probe_rate", max_value=0.2)],
    ...     windows,
    ...     tracer,
    ... )
    >>> for t in (1.0, 1.5, 2.0):
    ...     _ = tracer.emit("probe.headroom", t, src="n1", dst="n2")
    >>> dog.evaluate(2.0)  # 0.3/s > 0.2/s ceiling -> one breach
    1
    >>> [e.kind for e in tracer.events_of_kind("slo.breach")]
    ['slo.breach']
    >>> dog.evaluate(2.5)  # still breaching: edge-triggered, no re-emit
    0
    >>> dog.evaluate(50.0)  # window drained; state clears silently
    0
    >>> sorted(dog.active)
    []
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exposition import RollingWindows
from .trace import TracerBase


@dataclass(frozen=True)
class SloRule:
    """One declarative ceiling on a rolling-window metric.

    Attributes:
        name: stable rule identifier (keys ``status.json`` and reports).
        metric: a :meth:`RollingWindows.value` metric name —
            ``probe_rate``, ``violation_rate``, ``handoff_latency_p95``,
            or ``detection_latency_p95``.
        max_value: the ceiling; a strictly greater observed value is a
            breach.
        description: one line of operator-facing context.
    """

    name: str
    metric: str
    max_value: float
    description: str = ""


#: The rule set every :class:`~repro.obs.status.StatusPublisher`
#: watches (so every ``bass-repro serve`` run): the probe-cost
#: ceiling mirrors the paper's sharing-based overhead budget, the
#: detection bound tracks the heartbeat detector's worst case, and the
#: handoff bound keeps cross-region moves inside one decision interval.
DEFAULT_SLO_RULES = (
    SloRule(
        "probe-rate-ceiling",
        "probe_rate",
        max_value=2.0,
        description="fleet probe rate must stay under 2 probes/s",
    ),
    SloRule(
        "failure-detection-latency",
        "detection_latency_p95",
        max_value=50.0,
        description="p95 failure detection must beat 50 s",
    ),
    SloRule(
        "handoff-latency-p95",
        "handoff_latency_p95",
        max_value=30.0,
        description="p95 cross-region handoff must beat 30 s",
    ),
)


class SloWatchdog:
    """Evaluates a rule set against the rolling windows each epoch."""

    def __init__(
        self,
        rules: tuple[SloRule, ...] | list[SloRule],
        windows: RollingWindows,
        tracer: TracerBase,
    ) -> None:
        self.rules = tuple(rules)
        self.windows = windows
        self.tracer = tracer
        #: rule name -> breach details while the rule is over ceiling.
        self.active: dict[str, dict] = {}
        self.breach_count = 0

    def evaluate(self, now: float, *, epoch: Optional[int] = None) -> int:
        """Check every rule; returns how many *new* breaches fired."""
        fired = 0
        for rule in self.rules:
            observed = self.windows.value(rule.metric, now)
            breaching = observed == observed and observed > rule.max_value
            was_active = rule.name in self.active
            if breaching and not was_active:
                cause = self.windows.last_event_id.get(rule.metric)
                event_id = self.tracer.emit(
                    "slo.breach",
                    now,
                    epoch=epoch,
                    cause=cause,
                    rule=rule.name,
                    metric=rule.metric,
                    observed=round(observed, 6),
                    max_value=rule.max_value,
                )
                self.active[rule.name] = {
                    "rule": rule.name,
                    "metric": rule.metric,
                    "observed": round(observed, 6),
                    "max_value": rule.max_value,
                    "since": now,
                    "event_id": event_id,
                }
                self.breach_count += 1
                fired += 1
            elif breaching and was_active:
                self.active[rule.name]["observed"] = round(observed, 6)
            elif not breaching and was_active:
                del self.active[rule.name]
        return fired

    def snapshot(self) -> dict:
        """The ``slo`` block of ``status.json``."""
        return {
            "rules": [
                {
                    "name": rule.name,
                    "metric": rule.metric,
                    "max_value": rule.max_value,
                    "description": rule.description,
                }
                for rule in self.rules
            ],
            "active_breaches": [
                self.active[name] for name in sorted(self.active)
            ],
            "breach_count": self.breach_count,
        }
