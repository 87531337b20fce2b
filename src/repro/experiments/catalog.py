"""The experiment catalogue: every runnable scenario, declared once.

:data:`CATALOG` is a plain tuple of frozen :class:`Experiment` rows and
the source of truth for what ``bass-repro`` can do.  ``run`` (batch and
single-cell/checkpoint mode), ``serve`` and ``list`` all read it, and
so do the checkpoint tests; nothing else in the tree knows an
experiment by name.  A row carries the id, the one-line description,
how to run it, and whichever optional *parts* the experiment has.  Its
capabilities are which parts are present, never a separate flag:

* ``specs`` + ``render`` — every row has these: ``specs`` builds the
  :class:`~repro.runner.SweepSpec` grids of cells the driver hands to
  ``run_sweep`` (a single-configuration figure is a one-cell grid),
  ``render`` turns the outcomes into the :class:`Table`.
* ``checkpoint`` — checkpointable (``[checkpoint]``): the label (a
  template over the row's sizing) of the ``@checkpointable`` cell of
  the row's own grids that single-cell mode builds as a
  :class:`~repro.experiments.common.RunCapsule` to stop, snapshot,
  restore and profile — so restore determinism is checked on a run
  the figures make, and its result is the one the sweep records.
* ``serve`` — servable (``[serve]``): the keyword arguments ``bass-repro
  serve`` overrides on the checkpoint cell (``{}`` serves it as is).
* ``regions`` — the default region count, present only on rows whose
  grids take ``--regions`` (``[regions]``).
* ``claims`` — the shapes the row shows (the paper's figure, or the
  beyond-the-paper scenario's acceptance): named predicates over the
  outcomes ``render`` takes, each checked at the full sizing by the
  test suite.  Every row has some.

``specs`` is called with ``**row.sizing(quick, regions)``: ``quick``
— the ``--quick`` sizing lives here, next to the full one — plus
``regions`` on rows that declare it.  This module is not imported by
``repro.experiments`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ..config import BassConfig
from ..metrics.summary import p50
from ..runner import SweepOutcome, SweepSpec
from ..runner.worker import resolve_cell_function
from .common import RunCapsule
from . import (
    ablations,
    churn,
    failover,
    fleet,
    migration,
    motivation,
    multi_tenant,
    overheads,
    static_placement,
    thresholds,
)


@dataclass(frozen=True)
class Table:
    """What one experiment prints: a table and an optional closing line."""

    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    note: str = ""

    def text(self) -> str:
        """The headers and rows as left-aligned columns (no note)."""
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max([len(header), *(len(row[i]) for row in cells)])
            for i, header in enumerate(self.headers)
        ]

        def line(row: Sequence[str]) -> str:
            return "  ".join(c.ljust(widths[i]) for i, c in enumerate(row))

        lines = [line(self.headers), line(["-" * w for w in widths])]
        return "\n".join(lines + [line(row) for row in cells])


class Claim(NamedTuple):
    """One shape of the paper's figure: ``holds(*outcomes)`` over the
    outcomes the row's ``render`` takes."""

    name: str
    holds: Callable[..., bool]


@dataclass(frozen=True)
class Experiment:
    """One catalogue row; see the module docstring for the parts."""

    id: str
    description: str
    specs: Callable[..., tuple[SweepSpec, ...]]
    render: Callable[..., Table]
    checkpoint: Optional[str] = None
    serve: Optional[Mapping[str, Any]] = None
    regions: Optional[int] = None
    claims: tuple[Claim, ...] = ()

    def sizing(self, quick: bool, regions: Optional[int] = None) -> dict:
        """What ``specs`` takes: ``quick``, plus ``regions`` on rows
        that declare a default (which ``None`` resolves to)."""
        if self.regions is None:
            return {"quick": quick}
        chosen = self.regions if regions is None else regions
        return {"quick": quick, "regions": chosen}

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The ``list`` tags, derived from which parts are present."""
        parts = {
            "regions": self.regions,
            "checkpoint": self.checkpoint,
            "serve": self.serve,
        }
        return tuple(tag for tag, part in parts.items() if part is not None)

    def checkpoint_cell(
        self, quick: bool, regions: Optional[int] = None
    ) -> tuple[SweepSpec, int]:
        """The grid holding the ``checkpoint`` cell and its index there
        (the first match: ``--regions 1`` repeats fleet's 1-region cell)."""
        sizing = self.sizing(quick, regions)
        label = self.checkpoint.format(**sizing)
        return next(
            (spec, index)
            for spec in self.specs(**sizing)
            for index, cell in enumerate(spec.cells)
            if cell.label == label
        )

    def capsule_for(
        self, quick: bool, regions: Optional[int] = None, **overrides: Any
    ) -> RunCapsule:
        """The ``checkpoint`` cell's run, built with the sweep's kwargs
        plus ``overrides`` and not yet ticked, stamped with the row id
        (restores look the row up by it)."""
        spec, index = self.checkpoint_cell(quick, regions)
        cell = resolve_cell_function(spec.cells[index].fn)
        capsule = cell.capsule(**spec.resolved_kwargs(index), **overrides)
        capsule.scenario = self.id
        return capsule


def _or(value: Optional[float], missing: str, spec: str = ".0f") -> str:
    """A table cell for an optional number: formatted (``spec=""`` is
    plain ``str``), or ``missing``."""
    return missing if value is None else format(value, spec)


def _near(value: float, expected: float, *, rel: float = 0.0,
          tol: float = 0.0) -> bool:
    """``value`` within ``rel`` of ``expected`` (relative) or within
    ``tol`` (absolute), whichever is wider."""
    return abs(value - expected) <= max(rel * abs(expected), tol)


def _by(outcome: SweepOutcome, *fields: str) -> dict:
    """The outcome's results keyed by one field (or a tuple of several)."""
    key = attrgetter(*fields)
    return {key(result): result for result in outcome.results}


def _one(outcome: SweepOutcome):
    """The result of a one-cell grid."""
    (result,) = outcome.results
    return result


def _over(view: Callable[..., Any],
          *claims: tuple[str, Callable[[Any], bool]]) -> tuple[Claim, ...]:
    """Claims whose tests read ``view(*outcomes)``: the row's results
    arranged the way its shapes name them."""
    return tuple(
        Claim(name, lambda *outcomes, test=test: test(view(*outcomes)))
        for name, test in claims
    )


# -- spec builders, row renderers and claims ----------------------------------
#
# ``_x_specs(quick)`` sizes the row's grids; ``_x_table(*outcomes)``
# renders them; ``_X_CLAIMS`` are the figure's shapes over the same
# outcomes.  Only durations and grid sizes differ between the two
# sizings: load settings are part of the regime the claims describe.


def _one_cell(name: str, fn, *, seed: Optional[int] = None,
              **fixed) -> tuple[SweepSpec, ...]:
    """A single-configuration figure is a one-cell grid over the
    function it already is, seeded ``seed`` (None: ``fn`` takes none)."""
    return (SweepSpec.grid(name, fn, fixed=fixed, seed=seed),)


def _fig2_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig2", motivation.fig2_bandwidth_variation, seed=2,
                     duration_s=600.0 if quick else 3600.0)


def _fig2_table(outcome: SweepOutcome) -> Table:
    (links,) = outcome.results
    return Table(
        ["link", "mean_mbps", "rel_std"],
        [[l.label, f"{l.mean_mbps:.2f}", f"{l.rel_std:.2f}"] for l in links],
    )


_FIG2_CLAIMS = _over(
    lambda o: {link.label: link for link in _one(o)},
    # Means and relative variability match Fig 2's captions.
    ("stable mean ~ 19.9 Mbps (rel 0.15)",
     lambda links: _near(links["stable"].mean_mbps, 19.9, rel=0.15)),
    ("variable mean ~ 7.62 Mbps (rel 0.20)",
     lambda links: _near(links["variable"].mean_mbps, 7.62, rel=0.20)),
    ("stable rel_std ~ 0.10 (abs 0.06)",
     lambda links: _near(links["stable"].rel_std, 0.10, tol=0.06)),
    ("variable rel_std ~ 0.27 (abs 0.12)",
     lambda links: _near(links["variable"].rel_std, 0.27, tol=0.12)),
    ("variable link varies more than the stable one",
     lambda links: links["variable"].rel_std > links["stable"].rel_std),
    # Capacity fluctuates even with no user traffic.
    ("stable rolling mean varies (std > 0.5)",
     lambda links: links["stable"].rolling_mbps.std() > 0.5),
    ("variable rolling mean varies (std > 0.5)",
     lambda links: links["variable"].rolling_mbps.std() > 0.5),
    ("the links are the stable and the variable one",
     lambda links: set(links) == {"stable", "variable"}),
    ("stable mean above variable mean",
     lambda links: links["stable"].mean_mbps > links["variable"].mean_mbps),
    ("one rolling-mean sample per time",
     lambda links: len(links["stable"].rolling_mbps) == len(links["stable"].times)),
)


def _fig4_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        motivation.fig4_pion_bottleneck.spec(
            participant_counts=(4, 8, 10, 12, 14) if quick else
            (4, 6, 8, 10, 11, 12, 13, 14),
            settle_s=30.0 if quick else 60.0,
        ),
    )


def _fig4_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["participants", "per_client_mbps", "loss"],
        [
            [p.participants, f"{p.per_client_mbps:.2f}",
             f"{p.loss_fraction:.3f}"]
            for p in outcome.results
        ],
    )


_FIG4_CLAIMS = _over(
    lambda o: _by(o, "participants"),
    # Below the knee (30 Mbps / 3 Mbps = 10 receivers): full bitrate,
    # no loss.
    ("4: 3.0 Mbps per client (rel 0.05)",
     lambda n: _near(n[4].per_client_mbps, 3.0, rel=0.05)),
    ("4: loss < 0.01", lambda n: n[4].loss_fraction < 0.01),
    ("10: 3.0 Mbps per client (rel 0.1)",
     lambda n: _near(n[10].per_client_mbps, 3.0, rel=0.1)),
    # Past the knee: bitrate degrades monotonically, loss rises.
    ("12: bitrate < 0.95 x 10's",
     lambda n: n[12].per_client_mbps < 0.95 * n[10].per_client_mbps),
    ("14: bitrate below 12's",
     lambda n: n[14].per_client_mbps < n[12].per_client_mbps),
    ("14: loss > 0.1", lambda n: n[14].loss_fraction > 0.1),
    ("14: loss above 12's",
     lambda n: n[14].loss_fraction > n[12].loss_fraction),
    ("12: bitrate below 4's",
     lambda n: n[4].per_client_mbps > n[12].per_client_mbps),
    ("12: loss above 4's",
     lambda n: n[12].loss_fraction > n[4].loss_fraction),
)


def _fig5_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig5", motivation.fig5_socialnet_throttle, seed=5,
                     total_s=200.0 if quick else 360.0,
                     throttle_start_s=60.0 if quick else 120.0)


def _fig5_table(outcome: SweepOutcome) -> Table:
    (series,) = outcome.results
    phases = zip(("before", "during", "after"), series.phase_means())
    return Table(
        ["phase", "mean_latency_s"],
        [[phase, f"{mean:.2f}"] for phase, mean in phases],
    )


_FIG5_CLAIMS = _over(
    lambda o: _one(o).phase_means(),
    # Order-of-magnitude inflation during the window, recovery after.
    ("during > 10 x before", lambda p: p[1] > 10 * p[0]),
    ("after < 2 x before", lambda p: p[2] < 2 * p[0]),
)


def _fig8_specs(quick: bool) -> tuple[SweepSpec, ...]:
    trimmed = dict(drop_time_s=60.0, second_drop_time_s=300.0, total_s=500.0)
    return _one_cell("fig8", migration.fig8_migration_timeline, seed=8,
                     **(trimmed if quick else {}))


def _fig8_table(outcome: SweepOutcome) -> Table:
    (timeline,) = outcome.results
    rows = [["full probe", f"{t:.0f}", ""] for t in timeline.full_probe_times]
    rows += [
        ["migration", f"{m.time:.0f}",
         f"{m.pod_name}: {m.from_node} -> {m.to_node}"]
        for m in timeline.migrations
    ]
    return Table(
        ["event", "time_s", "detail"],
        sorted(rows, key=lambda r: float(r[1])),
    )


def _goodput_near(timeline, t: float) -> float:
    index = min(
        range(len(timeline.times)), key=lambda i: abs(timeline.times[i] - t)
    )
    return timeline.goodput[index]


_FIG8_CLAIMS = _over(
    _one,
    ("two migrations", lambda t: len(t.migrations) == 2),
    # First: the consumer escapes node4 after the first drop, to the
    # unaffected node1, and only after detection (not before).
    ("first moves the consumer",
     lambda t: t.migrations[0].pod_name == "consumer"),
    ("first: node4 -> node1",
     lambda t: (t.migrations[0].from_node, t.migrations[0].to_node)
     == ("node4", "node1")),
    ("first at 540 < t < 900", lambda t: 540.0 < t.migrations[0].time < 900.0),
    # A full probe fires between each drop and its migration: the
    # headroom-violation escalation of §4.2.
    ("a full probe between the drop and the first migration",
     lambda t: any(540.0 <= p <= t.migrations[0].time
                   for p in t.full_probe_times)),
    # Second: back to node4 after the capacity swap.
    ("second: node1 -> node4",
     lambda t: (t.migrations[1].from_node, t.migrations[1].to_node)
     == ("node1", "node4")),
    ("second after t = 1119", lambda t: t.migrations[1].time > 1119.0),
    ("a full probe between the swap and the second migration",
     lambda t: any(1119.0 <= p <= t.migrations[1].time
                   for p in t.full_probe_times)),
    # Goodput collapses after the drop and recovers after migration.
    ("goodput < 0.5 at 10 s before the first migration",
     lambda t: _goodput_near(t, t.migrations[0].time - 10.0) < 0.5),
    ("goodput > 0.9 at 60 s after the first migration",
     lambda t: _goodput_near(t, t.migrations[0].time + 60.0) > 0.9),
)


def _fig10_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.fig10_camera_static.spec(
            duration_s=40.0 if quick else 120.0
        ),
    )


def _fig10_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scheduler", "mean_ms", "chain_hops", "stream/sampler"],
        [
            [r.scheduler, f"{r.mean_latency_ms:.0f}", r.inter_node_chain_hops,
             f"{r.placement['camera-stream']}/{r.placement['frame-sampler']}"]
            for r in outcome.results
        ],
    )


_FIG10_CLAIMS = _over(
    lambda o: _by(o, "scheduler"),
    # Both BASS heuristics beat k3s; BFS <= longest-path.
    ("BFS mean below k3s's",
     lambda s: s["bass-bfs"].mean_latency_ms < s["k3s"].mean_latency_ms),
    ("longest-path mean below k3s's",
     lambda s: s["bass-longest-path"].mean_latency_ms
     < s["k3s"].mean_latency_ms),
    ("BFS mean <= 1.01 x longest-path's",
     lambda s: s["bass-bfs"].mean_latency_ms
     <= s["bass-longest-path"].mean_latency_ms * 1.01),
    # BASS co-locates stream+sampler; k3s crosses the network more
    # often along the critical chain.
    ("BFS co-locates stream and sampler",
     lambda s: s["bass-bfs"].placement["camera-stream"]
     == s["bass-bfs"].placement["frame-sampler"]),
    ("k3s splits stream and sampler",
     lambda s: s["k3s"].placement["camera-stream"]
     != s["k3s"].placement["frame-sampler"]),
    ("BFS crosses fewer chain hops than k3s",
     lambda s: s["bass-bfs"].inter_node_chain_hops
     < s["k3s"].inter_node_chain_hops),
)


def _fig11_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.fig11_socialnet_p99.spec(
            rates=(100.0, 300.0) if quick else (100.0, 200.0, 300.0),
            duration_s=60.0 if quick else 120.0,
        ),
    )


def _fig11_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scheduler", "rps", "restricted", "p99_s"],
        [
            [c.scheduler, int(c.rps), c.restricted, f"{c.p99_latency_s:.2f}"]
            for c in outcome.results
        ],
    )


_FIG11_CLAIMS = _over(
    lambda o: {(c.scheduler, c.rps, c.restricted): c.p99_latency_s
               for c in o.results},
    ("unrestricted: k3s p99 < 10 x longest-path's at every rate",
     lambda p99: all(p99["k3s", rps, False]
                     < 10 * p99["bass-longest-path", rps, False]
                     for rps in (100.0, 200.0, 300.0))),
    # Restricted at high rates: k3s collapses, longest-path does not.
    ("restricted: k3s p99 > 10 x longest-path's at 200 and 300 RPS",
     lambda p99: all(p99["k3s", rps, True]
                     > 10 * p99["bass-longest-path", rps, True]
                     for rps in (200.0, 300.0))),
    ("longest-path p99: restricted < 3 x unrestricted at every rate",
     lambda p99: all(p99["bass-longest-path", rps, True]
                     < 3 * p99["bass-longest-path", rps, False]
                     for rps in (100.0, 200.0, 300.0))),
)


def _fig12_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig12_video_query_interval.spec(
            intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
            total_s=160.0 if quick else 300.0,
            restrict_for_s=100.0 if quick else 180.0,
        ),
    )


class _Throttled(NamedTuple):
    """One interval's series with its means over the throttle window
    (from ``lag`` s after it starts) and from 10 s after it lifts."""

    series: Any
    during: float
    after: float


def _throttled(outcome: SweepOutcome, lag: float = 0.0) -> dict:
    """``{interval: _Throttled}``, each window read from its own cell
    (fig12's onset is a constant of its cells)."""
    windows = {}
    for index, series in enumerate(outcome.results):
        kwargs = outcome.spec.resolved_kwargs(index)
        start = kwargs.get("restrict_at_s", migration.FIG12_RESTRICT_AT_S)
        end, total = start + kwargs["restrict_for_s"], kwargs["total_s"]
        windows[series.interval_s] = _Throttled(
            series,
            series.mean_during(start + lag, end),
            series.mean_during(end + 10, total),
        )
    return windows


def _fig12_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["interval_s", "migrations", "first_migration_s", "mean_mbps_during",
         "mean_mbps_after"],
        [
            [_or(interval, "none", ""), len(w.series.migrations),
             _or(w.series.migrations[0].time if w.series.migrations else None,
                 "-"),
             f"{w.during:.2f}", f"{w.after:.2f}"]
            for interval, w in _throttled(outcome).items()
        ],
    )


_FIG12_CLAIMS = _over(
    _throttled,
    # Every migrating interval discovers the violation and moves the
    # SFU; the no-migration baseline never does.
    ("every interval migrates",
     lambda w: all(w[i].series.migrations for i in (30.0, 60.0, 90.0))),
    ("no-migration never migrates", lambda w: not w[None].series.migrations),
    # The 30 s interval reacts first.
    ("30 s migrates no later than 60 s",
     lambda w: w[30.0].series.migrations[0].time
     <= w[60.0].series.migrations[0].time),
    ("30 s migrates no later than 90 s",
     lambda w: w[30.0].series.migrations[0].time
     <= w[90.0].series.migrations[0].time),
    # Migrating recovers bitrate; not migrating leaves clients degraded
    # the whole window.
    ("30 s: > 1.5 x no-migration's bitrate during the restriction",
     lambda w: w[30.0].during > 1.5 * w[None].during),
    # After the restriction lifts, everyone is back to full bitrate.
    ("no-migration back to 3.0 Mbps after (rel 0.05)",
     lambda w: _near(w[None].after, 3.0, rel=0.05)),
    ("30 s above no-migration over t = 80-110 s",
     lambda w: w[30.0].series.mean_during(80.0, 110.0)
     > w[None].series.mean_during(80.0, 110.0)),
)


def _fig13_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig13_socialnet_migration.spec(
            intervals=(30.0, None) if quick else (30.0, 60.0, 90.0, None),
            total_s=160.0 if quick else 300.0,
            restrict_for_s=120.0 if quick else 180.0,
        ),
    )


def _fig13_throttled(outcome: SweepOutcome) -> dict:
    """Latency means skip the throttle window's first 20 s."""
    return _throttled(outcome, lag=20.0)


def _fig13_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["interval_s", "migrations", "mean_s_during", "p99_s"],
        [
            [_or(interval, "none", ""), len(w.series.migrations),
             f"{w.during:.2f}", f"{w.series.p99():.2f}"]
            for interval, w in _fig13_throttled(outcome).items()
        ],
    )


_FIG13_CLAIMS = _over(
    _fig13_throttled,
    # Migrations happen under throttling, and help.
    ("30 s migrates", lambda w: bool(w[30.0].series.migrations)),
    ("no-migration never migrates", lambda w: not w[None].series.migrations),
    ("no-migration's throttled mean > 1.5 x 30 s's",
     lambda w: w[None].during > 1.5 * w[30.0].during),
    # The 30 s interval has the best throttled-window latency.
    ("30 s throttled mean <= 60 s's", lambda w: w[30.0].during <= w[60.0].during),
    ("30 s throttled mean <= 90 s's", lambda w: w[30.0].during <= w[90.0].during),
    ("30 s below no-migration over t = 30-140 s",
     lambda w: w[30.0].series.mean_during(30.0, 140.0)
     < w[None].series.mean_during(30.0, 140.0)),
)


def _table1_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("table1", migration.table1_migration_iterations,
                     seed=21, total_s=200.0 if quick else 260.0)


def _table1_table(outcome: SweepOutcome) -> Table:
    (result,) = outcome.results
    return Table(["iteration", "over_quota", "migrated"], result.rows)


_TABLE1_CLAIMS = _over(
    lambda o: _one(o).rows,
    ("the throttle produces violating iterations", lambda rows: bool(rows)),
    # Cascade avoidance: far fewer migrated than violating, and never
    # more than the per-iteration budget.
    ("never migrates more than are over quota",
     lambda rows: all(migrated <= over for _, over, migrated in rows)),
    ("at most 2 migrations per iteration",
     lambda rows: all(migrated <= 2 for _, _, migrated in rows)),
    ("the first iteration migrates", lambda rows: rows[0][2] >= 1),
    # The violation counts shrink as migrations take effect, and the
    # system eventually clears.
    ("the last iteration's violations <= the first's",
     lambda rows: rows[-1][1] <= rows[0][1]),
    ("clears within 7 iterations", lambda rows: len(rows) < 8),
)


def _fig14a_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("fig14a", migration.fig14a_restart_cdf, seed=14,
                     total_s=140.0 if quick else 240.0,
                     restart_at_s=70.0 if quick else 120.0)


def _fig14a_table(outcome: SweepOutcome) -> Table:
    result = _one(outcome)
    return Table(
        ["series", "mean_latency_s", "p50_s", "p95_s"],
        [
            [label, f"{values.mean():.3f}", f"{np.median(values):.3f}",
             f"{np.percentile(values, 95):.3f}"]
            for label, values in (("steady state", result.baseline_latency_s),
                                  ("during restart", result.restart_latency_s))
        ],
    )


_FIG14A_CLAIMS = _over(
    _one,
    # The restart inflates the mean by about an order of magnitude
    # (paper: 552 ms -> 4.9 s, 8.9x).
    ("restart mean > 5 x steady-state mean",
     lambda r: r.means()[1] > 5 * r.means()[0]),
    ("steady-state mean < 1 s", lambda r: r.means()[0] < 1.0),
    # The restart-window samples dominate the baseline CDF's right edge.
    ("restart median above steady-state p95",
     lambda r: np.median(r.restart_latency_s)
     > np.percentile(r.baseline_latency_s, 95)),
)


def _fig14b_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig14b_scheduler_cdf.spec(
            duration_s=400.0 if quick else 1200.0
        ),
    )


def _fig14b_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["configuration", "median_s", "p99_s", "migrations"],
        [
            [r.label, f"{r.median():.2f}", f"{r.p99():.2f}", r.migrations]
            for r in outcome.results
        ],
    )


_FIG14B_CLAIMS = _over(
    lambda o: _by(o, "label"),
    # The headline ordering: migrations rescue the tail, k3s is worst.
    ("longest-path+mig p99 < longest-path-nomig's",
     lambda c: c["longest-path+mig"].p99() < c["longest-path-nomig"].p99()),
    ("longest-path-nomig p99 < k3s's",
     lambda c: c["longest-path-nomig"].p99() < c["k3s"].p99()),
    ("bfs+mig p99 < k3s's", lambda c: c["bfs+mig"].p99() < c["k3s"].p99()),
    # "The real gains ... come from right-timed migrations".
    ("longest-path+mig migrates",
     lambda c: c["longest-path+mig"].migrations >= 1),
    ("longest-path-nomig p99 > 2 x longest-path+mig's",
     lambda c: c["longest-path-nomig"].p99() > 2 * c["longest-path+mig"].p99()),
    # k3s vs best BASS: at least the paper's ~2.4x factor.
    ("k3s p99 > 2.4 x longest-path+mig's",
     lambda c: c["k3s"].p99() > 2.4 * c["longest-path+mig"].p99()),
)


def _fig15b_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        migration.fig15b_video_thresholds.spec(
            thresholds=(None, 0.65) if quick else (None, 0.65, 0.85),
            duration_s=300.0 if quick else 600.0,
        ),
    )


def _fig15b_table(outcome: SweepOutcome) -> Table:
    nodes = ("node1", "node2", "node3", "node4")
    return Table(
        ["threshold", "migrations", *nodes],
        [
            [_or(r.threshold, "none", ""), r.migrations]
            + [f"{r.bitrate_by_node[n]:.2f}" for n in nodes]
            for r in outcome.results
        ],
    )


_FIG15B_CLAIMS = _over(
    lambda o: _by(o, "threshold"),
    ("no-migration never migrates", lambda r: r[None].migrations == 0),
    ("65 % migrates", lambda r: r[0.65].migrations >= 1),
    # node2's poorly-connected participants roughly double (paper: 2x).
    ("65 %: node2 >= 1.5 x no-migration's",
     lambda r: r[0.65].bitrate_by_node["node2"]
     >= 1.5 * r[None].bitrate_by_node["node2"]),
    ("65 %: node1 >= 1.1 x no-migration's",
     lambda r: r[0.65].bitrate_by_node["node1"]
     >= 1.1 * r[None].bitrate_by_node["node1"]),
    # Nodes 3 and 4 see no improvement (the SFU moves away from them).
    ("65 %: node3 and node4 <= 1.1 x no-migration's",
     lambda r: all(r[0.65].bitrate_by_node[node]
                   <= 1.1 * r[None].bitrate_by_node[node]
                   for node in ("node3", "node4"))),
    # The 85 % threshold also helps node2.
    ("85 %: node2 >= 1.2 x no-migration's",
     lambda r: r[0.85].bitrate_by_node["node2"]
     >= 1.2 * r[None].bitrate_by_node["node2"]),
    ("65 %: node1 above no-migration's",
     lambda r: r[0.65].bitrate_by_node["node1"]
     > r[None].bitrate_by_node["node1"]),
)


def _churn_specs(quick: bool) -> tuple[SweepSpec, ...]:
    duration = 160.0 if quick else 240.0
    shared = _one_cell("churn-shared", churn.churn_recovery, seed=23,
                       tenants=2, duration_s=duration)
    return (churn.churn_comparison.spec(duration_s=duration), *shared)


def _churn_table(comparison: SweepOutcome, shared: SweepOutcome) -> Table:
    (both,) = shared.results
    return Table(
        ["mode", "detect_s", "recover_s", "pre_goodput", "dip",
         "post_goodput", "replaced"],
        [
            [
                r.label,
                _or(r.detection_latency_s, "-"),
                _or(r.time_to_recover_s, "never"),
                f"{r.goodput_stats.pre_mean:.2f}",
                f"{r.goodput_stats.dip_min:.2f}",
                # NaN by design when the timeline never recovers.
                _or(None if np.isnan(r.goodput_stats.post_mean)
                    else r.goodput_stats.post_mean, "-", ".2f"),
                r.recovered_pods,
            ]
            for r in comparison.results
        ],
        note=f"two tenants, one crash: {both.recovered_pods} pods "
        f"re-placed, {both.conflict_count} arbiter conflicts, "
        f"detection {both.detection_latency_s:.0f}s",
    )


_CHURN_CLAIMS = _over(
    lambda comparison, shared: {**_by(comparison, "label"),
                                "two tenants": _one(shared)},
    # Detection is measured, not an oracle: strictly positive and
    # bounded by the confirmation timeout plus one heartbeat phase.
    ("bass: detection within (0, 25] s",
     lambda r: 0.0 < r["bass"].detection_latency_s <= 25.0),
    ("bass: re-placed within two control epochs of the crash",
     lambda r: r["bass"].replacement_delay_s
     <= 2 * r["bass"].epoch_interval_s),
    # Traffic stops while the node is dead, and comes back.
    ("bass: goodput dips to 0",
     lambda r: _near(r["bass"].goodput_stats.dip_min, 0.0, tol=1e-12)),
    ("bass: goodput recovers",
     lambda r: r["bass"].time_to_recover_s is not None),
    ("bass: post-crash goodput >= 0.9 x pre-crash",
     lambda r: r["bass"].goodput_stats.post_mean
     >= 0.9 * r["bass"].goodput_stats.pre_mean),
    # The k3s baseline detects but never re-places: goodput stays dark.
    ("k3s detects as fast as bass",
     lambda r: r["k3s"].detection_latency_s == r["bass"].detection_latency_s),
    ("k3s re-places nothing", lambda r: r["k3s"].recovered_pods == 0),
    ("k3s never recovers", lambda r: r["k3s"].time_to_recover_s is None),
    ("k3s goodput ends at 0",
     lambda r: _near(r["k3s"].goodput[-1], 0.0, tol=1e-12)),
    # Two tenants crashed at once: one recovery round re-places both
    # under the arbiter, serialized onto distinct nodes.
    ("two tenants: both pods re-placed",
     lambda r: r["two tenants"].recovered_pods == 2),
    ("two tenants: none stranded",
     lambda r: r["two tenants"].stranded_pods == 0),
    ("two tenants: the race is a counted conflict",
     lambda r: r["two tenants"].conflict_count >= 1),
    ("two tenants: re-placed onto distinct nodes",
     lambda r: len({a.to_node for a in r["two tenants"].actions}) == 2),
)


def _fleet_specs(quick: bool, regions: int) -> tuple[SweepSpec, ...]:
    scaling = fleet.fleet_scaling_spec(
        region_counts=(1, regions) if quick else tuple(sorted({1, regions, 4})),
        duration_s=120.0 if quick else 240.0,
    )
    handoff = _one_cell("fleet-handoff", fleet.fleet_handoff, seed=11,
                        duration_s=120.0 if quick else 180.0)
    return (scaling, *handoff)


def _fleet_table(scaling: SweepOutcome, handoff: SweepOutcome) -> Table:
    (pressure,) = handoff.results
    latencies = pressure.handoff_latencies or [0.0]
    return Table(
        ["regions", "tenants", "probes_per_link_hour",
         "median_decision_ms", "conflicts", "handoffs"],
        [
            [
                result.regions,
                result.tenants,
                f"{result.probe_events_per_link_hour:.1f}",
                f"{p50(result.decision_seconds or [0.0]) * 1e3:.3f}",
                result.conflict_count,
                result.committed_handoffs,
            ]
            for result in scaling.results
        ],
        note=f"handoff pressure (region 0 packed + throttled): "
        f"{pressure.handoff_counts.get('committed', 0)} committed @ "
        f"p50 {p50(latencies):.1f}s, "
        f"{pressure.handoff_counts.get('denied', 0)} denied, "
        f"{pressure.handoff_counts.get('aborted', 0)} aborted; "
        f"{pressure.cross_region_migrations} cross-region migration(s), "
        f"{pressure.conflict_count} arbiter conflict(s)",
    )


_FLEET_CLAIMS = _over(
    lambda scaling, handoff: _by(scaling, "regions"),
    ("the scaling grid reaches 4 regions", lambda r: 4 in r),
    # Each region's monitor probes only its own slice: growing the fleet
    # adds links and probes in proportion.
    ("probes per link-hour <= 1.3 x 1 region's, every region count",
     lambda r: all(c.probe_events_per_link_hour
                   <= 1.3 * r[1].probe_events_per_link_hour
                   for c in r.values())),
    # Steady state: nobody congested, so nobody crosses a region.
    ("no cross-region migration in steady state",
     lambda r: all(c.cross_region_migrations == 0 for c in r.values())),
    ("no handoff in steady state",
     lambda r: all(c.handoff_counts == {} for c in r.values())),
) + _over(
    lambda scaling, handoff: _one(handoff),
    # Region 0 packed and throttled: escapes travel the two-phase
    # handoff, and racing tenants exercise its denial path.
    ("handoff pressure commits a handoff",
     lambda h: h.committed_handoffs >= 1),
    ("every cross-region migration is a committed handoff",
     lambda h: h.cross_region_migrations == h.committed_handoffs),
    ("handoff pressure denies a racing handoff",
     lambda h: h.handoff_counts.get("denied", 0) >= 1),
)


def _failover_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("failover", failover.failover_outage, seed=23,
                     duration_s=180.0 if quick else 240.0)


def _failover_table(outcome: SweepOutcome) -> Table:
    (result,) = outcome.results
    stats = result.goodput_stats
    gap = result.resume_epoch_gap
    return Table(
        ["metric", "value"],
        [
            ["orchestrator killed at", f"{result.kill_at_s:.0f}s"],
            ["outage", f"{result.down_s:.0f}s"],
            ["epochs missed", result.missed_epochs],
            ["recoveries deferred", result.deferred_recoveries],
            ["resume -> first re-placement",
             "never" if gap is None else f"{gap:.1f} epochs"],
            ["pods re-placed", result.churn.recovered_pods],
            ["goodput pre-outage", f"{stats.pre_mean:.2f}"],
            ["goodput dip", f"{stats.dip_min:.2f}"],
            ["goodput post-recovery", f"{stats.post_mean:.2f}"],
            ["goodput recovered after",
             "never" if stats.time_to_recover_s is None
             else f"{stats.time_to_recover_s:.0f}s"],
        ],
    )


_FAILOVER_CLAIMS = _over(
    _one,
    # The worker's death is confirmed into the outage and queued ...
    ("a recovery is deferred", lambda r: r.deferred_recoveries >= 1),
    # ... and drained on resume, fast.
    ("pods re-placed", lambda r: r.churn.recovered_pods >= 1),
    ("first re-placement within 2 epochs of resume",
     lambda r: r.resume_epoch_gap is not None and r.resume_epoch_gap <= 2.0),
    # The outage dented goodput; the drained recovery brought it back.
    ("goodput dips below its pre-outage mean",
     lambda r: r.goodput_stats.dip_min < r.goodput_stats.pre_mean),
    ("goodput recovers", lambda r: r.goodput_stats.recovered),
)


def _table2_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        static_placement.table2_camera_mesh.spec(
            duration_s=300.0 if quick else 1200.0
        ),
    )


def _table2_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["scenario", "scheduler", "median_ms", "mean_ms", "migrations"],
        [
            [r.scenario, r.scheduler, f"{r.median_latency_ms:.0f}",
             f"{r.mean_latency_ms:.0f}", r.migrations]
            for r in outcome.results
        ],
    )


_SCENARIOS = ("no_variation", "with_variation")
_BASS = ("bass-bfs", "bass-longest-path")

_TABLE2_CLAIMS = _over(
    lambda o: _by(o, "scenario", "scheduler"),
    ("BASS median below k3s's in both scenarios",
     lambda c: all(c[scenario, scheduler].median_latency_ms
                   < c[scenario, "k3s"].median_latency_ms
                   for scenario in _SCENARIOS for scheduler in _BASS)),
    # Variation barely moves BASS (paper: ±2 ms) but inflates k3s.
    ("variation moves BASS medians < 10 %",
     lambda c: all(
         abs(c["with_variation", scheduler].median_latency_ms
             - c["no_variation", scheduler].median_latency_ms)
         / c["no_variation", scheduler].median_latency_ms < 0.10
         for scheduler in _BASS)),
    ("variation inflates k3s's mean > 1.02 x",
     lambda c: c["with_variation", "k3s"].mean_latency_ms
     / c["no_variation", "k3s"].mean_latency_ms > 1.02),
    # "We did not observe any component migrations for this workload."
    ("no migrations", lambda c: all(r.migrations == 0 for r in c.values())),
    ("six cells: two scenarios x three schedulers", lambda c: len(c) == 6),
)


def _table3_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell("table3", overheads.table3_scheduling_latency,
                     trials=5 if quick else 20)


def _table3_table(outcome: SweepOutcome) -> Table:
    (rows,) = outcome.results
    return Table(
        ["application", "scheduler", "avg_ms_per_component"],
        [[r.app, r.scheduler, f"{r.avg_ms:.4f}"] for r in rows],
    )


_TABLE3_CLAIMS = _over(
    lambda o: {(r.app, r.scheduler): r for r in _one(o)},
    # Comparable per-component cost: BASS within ~5x of k3s (the
    # paper's worst ratio is 1.2x; this allows scheduling-substrate
    # noise at microsecond scales).
    ("BASS < 5 x k3s + 0.05 ms per component, every app",
     lambda c: all(c[app, "bass"].avg_ms < 5 * c[app, "k3s"].avg_ms + 0.05
                   for app in ("social_network", "video_conference",
                               "camera"))),
    ("six rows: three apps x two schedulers", lambda c: len(c) == 6),
    ("no negative time", lambda c: all(r.avg_ms >= 0.0 for r in c.values())),
)


def _table4_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return _one_cell(
        "table4", overheads.table4_dag_processing, trials=10 if quick else 50
    )


def _table4_table(outcome: SweepOutcome) -> Table:
    (rows,) = outcome.results
    return Table(
        ["application", "components", "avg_ms"],
        [[r.app, r.components, f"{r.avg_ms:.3f}"] for r in rows],
    )


_TABLE4_CLAIMS = _over(
    lambda o: {r.app: r for r in _one(o)},
    ("social network: 27 components",
     lambda a: a["social_network"].components == 27),
    ("camera: 5 components", lambda a: a["camera"].components == 5),
    # Cost grows with graph size ...
    ("social network costs more than camera",
     lambda a: a["social_network"].avg_ms > a["camera"].avg_ms),
    # ... and stays far below the minutes-scale cadence of bandwidth
    # changes.
    ("every app < 100 ms", lambda a: all(r.avg_ms < 100.0 for r in a.values())),
)


def _fig14cd_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        thresholds.fig14cd_sweep_spec(
            heuristics=("longest_path",) if quick else ("bfs", "longest_path"),
            thresholds=(0.25, 0.65, 0.95) if quick else
            (0.25, 0.50, 0.65, 0.75, 0.95),
            headrooms=(0.20,) if quick else (0.10, 0.20, 0.30),
            rps=70.0,
            duration_s=200.0 if quick else 600.0,
        ),
    )


def _fig14cd_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["heuristic", "threshold", "headroom", "uq_s", "p99_s", "migrations"],
        [
            [c.heuristic, c.threshold, c.headroom,
             f"{c.upper_quartile_latency_s:.2f}", f"{c.p99_latency_s:.2f}",
             c.migrations]
            for c in outcome.results
        ],
    )


def _cells_at(cells, heuristic: str, threshold: float) -> list:
    return [c for c in cells
            if c.heuristic == heuristic and c.threshold == threshold]


def _best_p99(cells, heuristic: str, threshold: float) -> float:
    return min(c.p99_latency_s for c in _cells_at(cells, heuristic, threshold))


def _total_migrations(cells, heuristic: str, threshold: float) -> int:
    return sum(c.migrations for c in _cells_at(cells, heuristic, threshold))


_FIG14CD_CLAIMS = _over(
    lambda o: o.results,
    ("the full grid: 2 x 5 x 3 cells", lambda c: len(c) == 2 * 5 * 3),
    ("every upper-quartile latency finite",
     lambda c: all(np.isfinite(x.upper_quartile_latency_s) for x in c)),
    # Waiting for 95 % quota utilization sleeps through long fades: its
    # tail is at least as bad as the mid thresholds'.
    ("95 %'s best p99 >= the better of 50 % and 65 %'s, per heuristic",
     lambda c: all(
         _best_p99(c, h, 0.95)
         >= min(_best_p99(c, h, 0.50), _best_p99(c, h, 0.65))
         for h in ("bfs", "longest_path"))),
    # Migration activity responds to the knob: some threshold migrates
    # more than the most conservative one.
    ("some threshold <= 65 % migrates >= 95 %'s total, per heuristic",
     lambda c: all(
         max(_total_migrations(c, h, t) for t in (0.25, 0.50, 0.65))
         >= _total_migrations(c, h, 0.95)
         for h in ("bfs", "longest_path"))),
    ("every mean latency finite",
     lambda c: all(np.isfinite(x.mean_latency_s) for x in c)),
)


def _fig16_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        thresholds.fig16_sweep_spec(
            thresholds=(0.25, 0.75) if quick else (0.25, 0.50, 0.65, 0.75),
            mean_rps=70.0,
            duration_s=200.0 if quick else 600.0,
        ),
    )


def _fig16_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["threshold", "mean_s", "migrations"],
        [
            [c.threshold, f"{c.mean_latency_s:.2f}", c.migrations]
            for c in outcome.results
        ],
    )


_FIG16_CLAIMS = _over(
    lambda o: _by(o, "threshold"),
    ("every mean latency finite",
     lambda c: all(np.isfinite(x.mean_latency_s) for x in c.values())),
    # Lower thresholds perform at least as well as the high extreme
    # under bursty arrivals (the paper's Fig 16 finding).
    ("the better of 25 % and 50 % <= 1.05 x 75 %'s mean",
     lambda c: min(c[0.25].mean_latency_s, c[0.50].mean_latency_s)
     <= c[0.75].mean_latency_s * 1.05),
    ("four thresholds", lambda c: len(c) == 4),
    ("every mean latency positive",
     lambda c: all(x.mean_latency_s > 0 for x in c.values())),
)


def _multitenant_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        multi_tenant.multi_tenant_scaling_spec(
            tenant_counts=(1, 4) if quick else (1, 2, 4, 8),
            duration_s=120.0 if quick else 240.0,
        ),
        multi_tenant.contention_sweep_spec(
            tenant_counts=(2,) if quick else (1, 4),
            duration_s=140.0 if quick else 180.0,
        ),
    )


def _multitenant_table(
    scaling: SweepOutcome, contention: SweepOutcome
) -> Table:
    race = max(contention.results, key=attrgetter("tenants"))
    return Table(
        ["tenants", "full_probes", "headroom_probes", "probes_per_hour",
         "migrations"],
        [
            [r.tenants, r.full_probes, r.headroom_probes,
             f"{r.probe_events_per_hour:.1f}", r.total_migrations]
            for r in scaling.results
        ],
        note=f"contention: {race.conflict_count} arbiter conflicts, "
        f"{race.total_migrations} migrations across "
        f"{race.epoch_count} epochs",
    )


_MULTITENANT_CLAIMS = _over(
    lambda scaling, contention: _by(scaling, "tenants"),
    # The shared monitor probes each link once per epoch, whoever uses
    # it: four tenants cost (essentially) the probe traffic of one.
    ("4 tenants' probes per hour <= 1.2 x 1 tenant's",
     lambda t: t[4].probe_events_per_hour
     <= 1.2 * t[1].probe_events_per_hour),
) + _over(
    lambda scaling, contention: _by(contention, "tenants"),
    # A throttle puts every tenant in violation at once: the arbiter
    # admits one claim per node per epoch and deflects the rest.
    ("contention: one tenant has nobody to conflict with",
     lambda t: t[1].conflict_count == 0),
    ("contention: 4 tenants conflict", lambda t: t[4].conflict_count > 0),
    ("contention: 4 tenants migrate >= 2 times",
     lambda t: t[4].total_migrations >= 2),
)


def _churnsweep_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (
        churn.churn_seed_sweep_spec(
            seeds=tuple(range(3)) if quick else tuple(range(6)),
            settle_s=60.0 if quick else 120.0,
        ),
    )


def _churnsweep_table(outcome: SweepOutcome) -> Table:
    return Table(
        ["seed", "crash_node", "crash_at_s", "detect_s", "recover_s",
         "replaced"],
        [
            [
                cell.seed,
                result.crash_node,
                f"{result.crash_at_s:.0f}",
                _or(result.detection_latency_s, "-"),
                _or(result.time_to_recover_s, "never"),
                result.recovered_pods,
            ]
            for cell, result in zip(outcome.spec.cells, outcome.results)
        ],
    )


_CHURNSWEEP_CLAIMS = _over(
    lambda o: o.results,
    ("six seeds", lambda runs: len(runs) == 6),
    # Every randomized crash plan is detected and re-placed: the pod is
    # never silently lost.
    ("every seed detects its crash",
     lambda runs: all(r.detection_latency_s is not None
                      and r.detection_latency_s > 0 for r in runs)),
    ("every seed re-places the pod",
     lambda runs: all(r.recovered_pods == 1 for r in runs)),
    ("every seed recovers goodput",
     lambda runs: all(r.time_to_recover_s is not None for r in runs)),
)


def _ablations_specs(quick: bool) -> tuple[SweepSpec, ...]:
    return (ablations.ablation_grid_spec(quick=quick),)


def _ablation_results(outcome: SweepOutcome) -> dict:
    """``{ablation label: its result}``, in grid order."""
    return {
        cell.label: result
        for cell, result in zip(outcome.spec.cells, outcome.results)
    }


def _ablations_table(outcome: SweepOutcome) -> Table:
    rows = []
    for label, result in _ablation_results(outcome).items():
        if label == "headroom_probing":
            summary = (
                f"overhead {result.headroom_overhead_fraction:.4%} headroom "
                f"vs {result.flooding_overhead_fraction:.2%} flooding"
            )
        elif label == "cooldown":
            summary = ", ".join(
                f"{r.migrations} migrations @ cooldown {r.cooldown_s:.0f}s"
                for r in result
            )
        elif label == "stability_guards":
            summary = (
                f"{result.guarded_migrations} migrations guarded vs "
                f"{result.unguarded_migrations} unguarded"
            )
        elif label == "hybrid_heuristic":
            summary = ", ".join(
                f"{r.shape}/{r.heuristic}: {r.colocated_fraction:.0%}"
                for r in result
            )
        elif label == "online_profiling":
            summary = (
                f"annotation error {result.initial_error:.2f} -> "
                f"{result.profiled_error:.2f} "
                f"({result.edges_updated} edges updated)"
            )
        else:  # routing_strategy
            summary = f"{len(result)} node pairs compared"
        rows.append([label, summary])
    return Table(["ablation", "summary"], rows)


def _colocated(cells, shape: str) -> dict:
    """``{heuristic: co-located bandwidth fraction}`` on one shape."""
    return {c.heuristic: c.colocated_fraction for c in cells if c.shape == shape}


_ABLATIONS_CLAIMS = _over(
    _ablation_results,
    # Headroom probing (§4.2) bounds monitoring overhead; flooding every
    # interval with max-capacity probes does not.
    ("headroom probing overhead < 5 %",
     lambda a: a["headroom_probing"].headroom_overhead_fraction < 0.05),
    ("flooding overhead > 3 x headroom probing's",
     lambda a: a["headroom_probing"].flooding_overhead_fraction
     > 3 * a["headroom_probing"].headroom_overhead_fraction),
    # The cooldown (§4.3) waits out a transient dip whose disruption
    # would never amortize.
    ("no cooldown: the 40 s dip migrates",
     lambda a: {r.cooldown_s: r.migrations for r in a["cooldown"]}[0.0] >= 1),
    ("45 s cooldown: the 40 s dip does not migrate",
     lambda a: {r.cooldown_s: r.migrations for r in a["cooldown"]}[45.0] == 0),
    # The improvement gate + minimum residency suppress ping-pong under
    # congestion no placement can fix.
    ("unguarded migrations >= 1.5 x guarded (floor 1)",
     lambda a: a["stability_guards"].unguarded_migrations
     >= 1.5 * max(a["stability_guards"].guarded_migrations, 1)),
    # §8's hybrid heuristic matches the better pure heuristic per shape.
    ("hybrid co-locates >= the better pure heuristic, per shape",
     lambda a: all(
         f["hybrid"] >= max(f["bfs"], f["longest_path"]) - 1e-9
         for f in (_colocated(a["hybrid_heuristic"], shape)
                   for shape in ("social", "chain")))),
    # §8's online profiler recovers mis-annotated bandwidth requirements.
    ("mis-annotation error > 0.5",
     lambda a: a["online_profiling"].initial_error > 0.5),
    ("profiled error < 0.3",
     lambda a: a["online_profiling"].profiled_error < 0.3),
    ("profiling at least halves the error",
     lambda a: a["online_profiling"].profiled_error
     < a["online_profiling"].initial_error / 2),
    ("profiling updates 30 edges",
     lambda a: a["online_profiling"].edges_updated == 30),
    # BASS is routing-agnostic (§1); widest-path lifts the ceiling it
    # works under (the 7.6 Mbps node2-node3 shortcut has a 15 Mbps
    # detour).
    ("widest path >= min-hop on every pair",
     lambda a: all(c.widest_mbps >= c.min_hop_mbps - 1e-9
                   for c in a["routing_strategy"])),
    ("widest path > 1.5 x min-hop on some pair",
     lambda a: any(c.widest_mbps > 1.5 * c.min_hop_mbps
                   for c in a["routing_strategy"])),
)


# -- the table ----------------------------------------------------------------

CATALOG: tuple[Experiment, ...] = (
    Experiment("fig2", "bandwidth variation on two CityLab links",
               _fig2_specs, _fig2_table,
               claims=_FIG2_CLAIMS),
    Experiment("fig4", "Pion bitrate/loss vs participants on a bottleneck",
               _fig4_specs, _fig4_table,
               claims=_FIG4_CLAIMS),
    Experiment("fig5", "social-network latency through a 25 Mbps throttle",
               _fig5_specs, _fig5_table,
               claims=_FIG5_CLAIMS),
    Experiment("fig8", "worked migration timeline", _fig8_specs, _fig8_table,
               claims=_FIG8_CLAIMS),
    Experiment("fig10", "camera latency per scheduler, unconstrained LAN",
               _fig10_specs, _fig10_table,
               claims=_FIG10_CLAIMS),
    Experiment("fig11", "social-network p99 vs RPS, ± one throttled node",
               _fig11_specs, _fig11_table,
               claims=_FIG11_CLAIMS),
    Experiment("fig12", "video bitrate vs bandwidth-query interval",
               _fig12_specs, _fig12_table,
               claims=_FIG12_CLAIMS),
    Experiment("fig13", "social-network latency vs monitoring interval",
               _fig13_specs, _fig13_table, checkpoint="interval=30.0",
               serve={}, claims=_FIG13_CLAIMS),
    Experiment("table1", "migration iterations: over-quota vs migrated",
               _table1_specs, _table1_table,
               claims=_TABLE1_CLAIMS),
    Experiment("fig14a", "restart cost on end-to-end latency",
               _fig14a_specs, _fig14a_table,
               claims=_FIG14A_CLAIMS),
    Experiment("fig14b", "scheduler comparison CDF on the emulated mesh",
               _fig14b_specs, _fig14b_table,
               claims=_FIG14B_CLAIMS),
    Experiment("fig14cd", "threshold x headroom sweep, fixed arrivals",
               _fig14cd_specs, _fig14cd_table,
               claims=_FIG14CD_CLAIMS),
    Experiment("fig15b", "video bitrate by node vs migration threshold",
               _fig15b_specs, _fig15b_table,
               claims=_FIG15B_CLAIMS),
    Experiment("fig16", "threshold sweep under exponential arrivals",
               _fig16_specs, _fig16_table,
               claims=_FIG16_CLAIMS),
    Experiment("multitenant",
               "probe sharing and migration arbitration at scale",
               _multitenant_specs, _multitenant_table,
               claims=_MULTITENANT_CLAIMS),
    Experiment("fleet",
               "regionalized control plane: sharded schedulers, handoffs",
               _fleet_specs, _fleet_table, checkpoint="regions{regions}",
               regions=2, claims=_FLEET_CLAIMS),
    Experiment("churn", "node crash: detection latency and recovery vs k3s",
               _churn_specs, _churn_table, checkpoint="recovery=True",
               # Served with migrations on: headroom probes feed the
               # rolling windows (the cell freezes them).
               serve={"config": BassConfig()}, claims=_CHURN_CLAIMS),
    Experiment("failover",
               "orchestrator kill mid-run: deferred decisions, goodput dip",
               _failover_specs, _failover_table,
               checkpoint="",  # the row's one, unlabelled cell
               claims=_FAILOVER_CLAIMS),
    Experiment("churnsweep", "randomized crash plans across seeds",
               _churnsweep_specs, _churnsweep_table,
               claims=_CHURNSWEEP_CLAIMS),
    Experiment("ablations", "the design-choice ablation battery",
               _ablations_specs, _ablations_table,
               claims=_ABLATIONS_CLAIMS),
    Experiment("table2", "camera median latency on the emulated mesh",
               _table2_specs, _table2_table,
               claims=_TABLE2_CLAIMS),
    Experiment("table3", "per-component scheduling latency",
               _table3_specs, _table3_table,
               claims=_TABLE3_CLAIMS),
    Experiment("table4", "DAG processing time per application",
               _table4_specs, _table4_table,
               claims=_TABLE4_CLAIMS),
)

#: ``id -> row``; what ``repro.cli.EXPERIMENTS`` re-exports.
EXPERIMENTS: dict[str, Experiment] = {row.id: row for row in CATALOG}

