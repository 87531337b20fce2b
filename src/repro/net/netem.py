"""The network emulator: traces + flows + fairness + queues on one clock.

:class:`NetworkEmulator` is the substrate equivalent of the paper's
CloudLab emulation (§6.3): link capacities follow attached bandwidth
traces (or ``tc``-style rate limits), application traffic is registered
as fluid flows, and every tick the emulator

1. reads each directed link's instantaneous capacity from the topology,
2. recomputes the demand-bounded max-min fair allocation,
3. advances the per-link fluid queues (overload → delay → loss), and
4. accumulates traffic accounting per tag (app vs probe overhead).

Everything the rest of the system observes about the network — achieved
rates, goodput, available headroom, path delay, loss — is a query
against this object.

Structure-of-arrays core
------------------------

The tick hot path runs over flat NumPy arrays keyed by stable integer
ids, with the object API kept as a thin view:

* **Links** get a position (``_link_index``) in enumeration order at
  construction; ``_cap_values[i]`` is directed link *i*'s instantaneous
  capacity.  The capacity scan groups traced links by their trace's
  time grid: one ``index_and_expiry`` lookup per grid per segment
  replaces one trace lookup per link per tick, and between segment
  boundaries a group is skipped entirely.  ``_cap_epoch`` counts scans
  that changed at least one capacity, so the allocation fingerprint is
  an O(1) triple ``(topology version, flow revision, capacity epoch)``
  instead of an O(links) tuple rebuild.
* **Queues** live in one :class:`~repro.net.queues.QueueArrays`: the
  whole fleet advances in one vectorized update per tick, and per-link
  delay and loss queries read one row by link id.
* **Flows** mirror into one integer flow table, a
  :class:`~repro.net.flows.FlowArrays`: per-link offered load and
  per-tag accounting are ``bincount`` calls that add the same floats in
  the same order as the scalar loops they replaced.  It is brought up
  to date once per read, when ``_flows_rev`` has moved: at city scale
  by folding in the rows that changed, on small flow sets by a rebuild.
* **Allocations** come from a retained
  :class:`~repro.net.fairness.IncrementalMaxMin`, which holds the
  ``Flow`` rows themselves and re-runs water-filling only over the
  connected components a change reaches: the components a changed flow
  leaves or joins, and — at city scale, in one batched array pass over
  the same flow table — the ones whose capacities moved since the
  previous solve.  On small flow sets a flow that arrives or leaves
  above every other demand of its component, on links with room for
  it, fills nothing (*slack admission*): a headroom probe's
  ``add_flow`` → ``available_bandwidth`` and its removal cost a few
  dict reads.  Bit-identical to a from-scratch solve.

Observation key: a solve that moved at least one of the rates it
recomputed bumps an allocation revision, and a tick bumps a queue revision unless the queues were
quiet (no backlog, no loss) before and after it — a quiet tick that
offers no link more than its capacity skips the queue update outright.
With the flow revision, the topology version and ``Link.shaping_rev``
they make :meth:`NetworkEmulator.observation_key`: while it holds,
every ``path_delay_s`` and ``flow()`` answer holds too, which lets a
latency sampler keep what it priced (``apps/social.py``).

Invalidation rules: the scan structure rebuilds when the topology
version or the process-wide ``Link.shaping_rev`` moves.  Every flow
mutation (``add_flow`` / ``remove_flow`` / ``set_demand`` /
``reroute_flow`` / ``on_topology_change``) goes through
``_flow_changed``, which notes the flow for the table's next read and
*tells* the incremental solver, which re-solves that flow's components
only; the solver starts over from scratch on its first solve and when
the topology version moves.  There is one allocation path: a what-if
(the migration planner's) hands ``capacities_now()`` and the flows
``linked_flows`` reaches from its paths to the stateless
``max_min_allocation`` and never writes rates onto the flows.
The scan groups, the flow table and the wall-clock phase times are
declared derived (:mod:`repro.sim.derived`) and not serialized — a
restored emulator rebuilds them and, because a rebuild re-reads the
same values, resumes with the same capacity epoch and byte-identical
behaviour; the solver's component structure (below the array cutover;
above it, it is re-derived from the flow table), pending flow changes
and the probe / heartbeat flow-id serials are state and travel with
the snapshot.
"""

from __future__ import annotations

import math
import sys
import time as _time
from typing import Container, Iterable, Optional

import numpy as np

from ..errors import RoutingError, SimulationError, TopologyError
from ..mesh.link import Link
from ..mesh.routing import Router
from ..mesh.topology import MeshTopology
from ..sim.derived import Derived, forget
from ..sim.engine import Engine
# ``max_min_allocation`` is not called here.  It stays importable as
# ``repro.net.netem.max_min_allocation`` because the perf ledger's span
# table (bench/spans.py) wraps it under that name.
from .fairness import IncrementalMaxMin, LinkKey, max_min_allocation  # noqa: F401
from .flows import Flow, FlowArrays
from .queues import QueueArrays

#: Phase keys of the per-tick wall-time accounting, in tick order.
TICK_PHASES = ("capacity_scan", "bookkeeping", "solve")


class _TraceGroup:
    """Directed links whose traces share one time grid.

    All member traces agree on sample times, replay mode and period, so
    a single ``index_and_expiry`` on the representative trace gives the
    sample index for every member.  ``values`` is stored sample-major
    (row *k* holds every member's sample *k*), so the group's capacities
    are one contiguous row.  Until ``expiry`` the group's capacities
    cannot change and the scan skips it.
    """

    __slots__ = ("rows", "values", "limits", "trace", "expiry")

    def __init__(self, rows, values, limits, trace) -> None:
        self.rows = rows
        self.values = values
        self.limits = limits
        self.trace = trace
        self.expiry = float("-inf")


class NetworkEmulator(Derived):
    """Fluid network emulation over a mesh topology.

    Args:
        topology: the mesh whose links carry the traffic.
        engine: simulation engine providing the clock; a fresh one is
            created if omitted.
        router: route computation; defaults to min-hop over ``topology``.
        tick_s: fluid-model step (1 s matches the paper's trace rate);
            finite and positive.
        buffer_mbit: per-direction link buffer size; positive, ``+inf``
            for an unbounded buffer.

    Example:
        >>> from repro.mesh import line_topology
        >>> topo = line_topology([10.0])
        >>> emu = NetworkEmulator(topo)
        >>> _ = emu.add_flow("f1", "node1", "node2", demand_mbps=4.0)
        >>> emu.recompute()
        >>> emu.flow("f1").allocated_mbps
        4.0
    """

    DERIVED = {
        # ``(topology.version, Link.shaping_rev)`` the scan structure
        # was built against (None forces a rebuild), and the structure.
        "_scan_rev": None, "_scan_groups": [],
        # The flow table, keyed by ``_flows_rev``, and the flow ids that
        # changed since it was current (an ordered set).
        "_flow_arrays": None, "_stale_rows": {},
        # Cumulative wall time per tick phase and the tick count —
        # diagnostics only (surfaced via /metrics and ``run
        # --profile``, never written into run summaries or traces).
        "_phase_s": dict.fromkeys(TICK_PHASES, 0.0), "_phase_ticks": 0,
    }

    def __init__(
        self,
        topology: MeshTopology,
        *,
        engine: Optional[Engine] = None,
        router: Optional[Router] = None,
        tick_s: float = 1.0,
        buffer_mbit: float = 25.0,
    ) -> None:
        if not (math.isfinite(tick_s) and tick_s > 0):
            raise SimulationError("tick_s must be finite and positive")
        self.topology = topology
        self.engine = engine if engine is not None else Engine()
        self.router = router if router is not None else Router(topology)
        self.tick_s = tick_s
        self._flows: dict[str, Flow] = {}
        #: Stable directed-link ordering: position in these arrays is a
        #: link's id for the life of the emulator (links are never
        #: removed from a topology; up/down is a capacity of 0).
        self._link_keys: list[LinkKey] = [
            (src, dst) for src, dst, _ in topology.iter_directed_links()
        ]
        self._link_index: dict[LinkKey, int] = {
            key: i for i, key in enumerate(self._link_keys)
        }
        self._cap_values = np.zeros(len(self._link_keys), dtype=float)
        #: Bumped by every capacity scan that changed at least one
        #: entry of ``_cap_values`` — the O(1) stand-in for the
        #: capacity vector in the allocation fingerprint.
        self._cap_epoch = 0
        self._queue_arrays = QueueArrays(
            np.full(len(self._link_keys), float(buffer_mbit))
        )
        self._offered_mbit_by_tag: dict[str, float] = {}
        self._ticker = None
        self._dirty = True
        #: Reverse index: directed link -> ordered set of flow ids that
        #: traverse it (an insertion-ordered dict used as a set, so
        #: per-link sums visit flows in registration order and stay
        #: byte-identical with a scan over ``self._flows``).
        self._flows_by_link: dict[LinkKey, dict[str, None]] = {}
        #: Bumped whenever the flow set changes shape (add/remove,
        #: demand update, reroute) — one third of the allocation
        #: fingerprint alongside the topology version and the capacity
        #: epoch.
        self._flows_rev = 0
        self._alloc_fingerprint: Optional[tuple] = None
        #: Bumped by a solve that moved at least one flow's rate, and by
        #: a tick that moved at least one queue: with the flow revision,
        #: the topology version and ``Link.shaping_rev`` they make
        #: :meth:`observation_key`.
        self._alloc_rev = 0
        self._queue_rev = 0
        self._incremental = IncrementalMaxMin()
        #: Last serial :meth:`next_flow_id` handed out, per prefix.
        self._serials: dict[str, int] = {}
        forget(self)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic fluid-model tick on the engine."""
        if self._ticker is None:
            self._ticker = self.engine.every(self.tick_s, self.tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.stop()
            self._ticker = None

    @property
    def now(self) -> float:
        return self.engine.now

    # -- flow management --------------------------------------------------

    def next_flow_id(self, prefix: str) -> str:
        """A flow id no flow on this emulator has had: ``prefix_n``,
        with ``n`` counting from 1 per prefix, interned as
        :meth:`add_flow` stores it.

        The serials are emulator state, so a restored run continues
        the numbering, and every monitor or detector sharing this
        emulator draws from one count.
        """
        serial = self._serials[prefix] = self._serials.get(prefix, 0) + 1
        return sys.intern(f"{prefix}_{serial}")

    def add_flow(
        self,
        flow_id: str,
        src: str,
        dst: str,
        demand_mbps: float,
        *,
        tag: str = "app",
    ) -> Flow:
        """Register a fluid flow; its route is fixed until rerouted."""
        if flow_id in self._flows:
            raise SimulationError(f"duplicate flow id {flow_id!r}")
        if not 0 <= demand_mbps < math.inf:  # NaN included
            raise SimulationError("demand_mbps must be finite and >= 0")
        # Flow ids outlive the emulator in results, traces and rate
        # snapshots; interned, every emulator a process (re)builds for
        # the same scenario shares one string per flow.
        flow_id = sys.intern(flow_id)
        path = self.router.traceroute(src, dst)
        links = self.router.path_link_keys(src, dst)
        flow = Flow(
            flow_id=flow_id,
            src=src,
            dst=dst,
            demand_mbps=demand_mbps,
            path=path,
            links=links,
            tag=tag,
        )
        self._flows[flow_id] = flow
        self._index_flow(flow)
        self._flow_changed(flow_id, links)
        return flow

    def remove_flow(self, flow_id: str) -> None:
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._unindex_flow(flow)
            self._flow_changed(flow_id, flow.links)

    def _flow_changed(self, flow_id: str, links: tuple[LinkKey, ...]) -> None:
        """One flow was added, removed, rerouted or re-demanded: tell
        the solver which (and the ``links`` it crossed or crosses),
        note it for the flow table, and move the flow-set revision."""
        self._incremental.touch(flow_id, links)
        self._stale_rows[flow_id] = None
        self._flows_rev += 1
        self._dirty = True

    def _index_flow(self, flow: Flow) -> None:
        for key in flow.links:
            self._flows_by_link.setdefault(key, {})[flow.flow_id] = None

    def _unindex_flow(self, flow: Flow) -> None:
        for key in flow.links:
            members = self._flows_by_link.get(key)
            if members is not None:
                members.pop(flow.flow_id, None)
                if not members:
                    del self._flows_by_link[key]

    def has_flow(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def flow(self, flow_id: str) -> Flow:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise SimulationError(f"unknown flow {flow_id!r}") from None

    @property
    def flows(self) -> list[Flow]:
        return list(self._flows.values())

    @property
    def flow_revision(self) -> int:
        """Moves on every change to the flow set — an add, a removal, a
        reroute, a demand that actually changed, a re-path."""
        return self._flows_rev

    def set_demand(self, flow_id: str, demand_mbps: float) -> None:
        if not 0 <= demand_mbps < math.inf:  # NaN included
            raise SimulationError("demand_mbps must be finite and >= 0")
        flow = self.flow(flow_id)
        if flow.demand_mbps == demand_mbps:
            return  # nothing moved: keep the flow revision and caches
        flow.demand_mbps = demand_mbps
        self._flow_changed(flow_id, flow.links)

    def reroute_flow(self, flow_id: str, src: str, dst: str) -> Flow:
        """Move a flow's endpoints (after a component migration)."""
        old = self.flow(flow_id)
        self.remove_flow(flow_id)
        return self.add_flow(
            flow_id, src, dst, old.demand_mbps, tag=old.tag
        )

    def on_topology_change(self) -> dict[str, list[str]]:
        """Re-path every flow after nodes or links change state.

        Models the mesh routing protocol reconverging after a failure
        (or a recovery): each flow is re-resolved over the live mesh.
        Flows whose endpoints can no longer reach each other — an
        endpoint crashed, or the mesh partitioned between them — are
        torn down; their traffic simply stops.

        Returns:
            ``{"rerouted": [...], "removed": [...]}`` flow ids, for
            callers (the fault injector) that want to trace the impact.
        """
        rerouted: list[str] = []
        removed: list[str] = []
        for fid, flow in list(self._flows.items()):
            try:
                path = self.router.traceroute(flow.src, flow.dst)
            except RoutingError:
                del self._flows[fid]
                self._unindex_flow(flow)
                removed.append(fid)
                self._flow_changed(fid, flow.links)
                continue
            if path != flow.path:
                self._unindex_flow(flow)
                left = flow.links
                flow.path = path
                flow.links = self.router.path_link_keys(flow.src, flow.dst)
                self._index_flow(flow)
                rerouted.append(fid)
                self._flow_changed(fid, left + flow.links)
        if rerouted:
            # Re-establish registration order in the per-link sets a
            # reroute appended to, so per-link sums keep visiting flows
            # in ``self._flows`` order (byte-identical accounting).
            order = {fid: i for i, fid in enumerate(self._flows)}
            affected: set[LinkKey] = set()
            for fid in rerouted:
                affected.update(self._flows[fid].links)
            for key in affected:
                members = self._flows_by_link.get(key)
                if members is not None and len(members) > 1:
                    self._flows_by_link[key] = dict.fromkeys(
                        sorted(members, key=order.__getitem__)
                    )
        return {"rerouted": rerouted, "removed": removed}

    # -- capacity scan ----------------------------------------------------

    def _rebuild_scan(self) -> bool:
        """Rebuild the grouped capacity-scan structure from the mesh.

        Called whenever the topology version or the process-wide link
        shaping revision moved.  Static capacities (no trace, or the
        link is down) are written immediately; traced links are grouped
        by time grid for the per-tick scan.  Returns whether any static
        capacity changed.
        """
        static_rows: list[int] = []
        static_vals: list[float] = []
        grouped: dict[tuple, list] = {}
        for src, dst, link in self.topology.iter_directed_links():
            try:
                row = self._link_index[(src, dst)]
            except KeyError:
                raise TopologyError(
                    f"link {src}->{dst} appeared after emulator "
                    "construction; links must exist when the emulator "
                    "is built"
                ) from None
            if not link.up:
                static_rows.append(row)
                static_vals.append(0.0)
                continue
            base, trace, limit = link.direction_profile(src, dst)
            if trace is None:
                static_rows.append(row)
                static_vals.append(base if limit is None else min(base, limit))
                continue
            entry = grouped.get(trace.grid_key())
            if entry is None:
                entry = grouped[trace.grid_key()] = [[], [], [], trace]
            entry[0].append(row)
            entry[1].append(trace.values)
            entry[2].append(float("inf") if limit is None else limit)
        changed = False
        if static_rows:
            rows = np.array(static_rows, dtype=np.intp)
            values = np.array(static_vals, dtype=float)
            if not np.array_equal(self._cap_values[rows], values):
                self._cap_values[rows] = values
                changed = True
        self._scan_groups = [
            _TraceGroup(
                np.array(rows, dtype=np.intp),
                np.array(values, dtype=float).T.copy(),
                np.array(limits, dtype=float),
                trace,
            )
            for rows, values, limits, trace in grouped.values()
        ]
        return changed

    def _scan_capacities(self) -> None:
        """Refresh ``_cap_values`` for the current instant.

        Groups are skipped until their trace segment expires; any group
        (or static rebuild) that actually changed a capacity bumps
        ``_cap_epoch``.
        """
        rev = (self.topology.version, Link.shaping_rev)
        changed = False
        if rev != self._scan_rev:
            changed = self._rebuild_scan()
            self._scan_rev = rev
        t = self.now
        cap = self._cap_values
        for group in self._scan_groups:
            if t < group.expiry:
                continue
            index, group.expiry = group.trace.index_and_expiry(t)
            caps = np.minimum(group.values[index], group.limits)
            if (cap[group.rows] != caps).any():
                cap[group.rows] = caps
                changed = True
        if changed:
            self._cap_epoch += 1

    # -- fluid model ------------------------------------------------------

    def capacities_now(self) -> dict[LinkKey, float]:
        """Instantaneous capacity of every directed link (what-if input)."""
        self._scan_capacities()
        return dict(zip(self._link_keys, self._cap_values.tolist()))

    def _current_flow_arrays(self) -> FlowArrays:
        """The flow table, brought up to date once per read.

        While the solver is in its array form (``_BATCH_MIN_FLOWS``
        active flows: the one size cutover) the stale rows are folded
        into the cached table; below it the delta's fixed cost buys
        nothing over a rebuild.
        """
        cached = self._flow_arrays
        if cached is not None and cached[0] == self._flows_rev:
            return cached[1]
        if cached is not None and self._incremental.batched:
            arrays = cached[1]
            arrays.update(self._flows, self._link_index, self._stale_rows)
        else:
            arrays = FlowArrays(self._flows, self._link_index)
        self._stale_rows = {}
        self._flow_arrays = (self._flows_rev, arrays)
        return arrays

    def recompute(self) -> None:
        """Recompute the max-min allocation for the current instant.

        Scans the topology's capacities and solves incrementally against
        the emulator's own capacity arrays.  The solve is skipped
        entirely when the allocation fingerprint — topology version,
        flow-set revision, and capacity epoch — matches the previous
        computation: nothing moved, so the rates already on the flows
        are still exact.
        """
        self._scan_capacities()
        # The solver reads the flow table only in its array form: a
        # query-driven recompute below the cutover never builds it.
        batched = self._incremental.batched
        self._recompute_arrays(self._current_flow_arrays() if batched else None)

    def _recompute_arrays(self, table: Optional[FlowArrays]) -> None:
        """Refresh flow allocations from the capacity arrays (and the
        flow ``table``, when the caller has it current)."""
        fingerprint = (
            self.topology.version,
            self._flows_rev,
            self._cap_epoch,
        )
        previous = self._alloc_fingerprint
        if fingerprint == previous:
            self._dirty = False
            return
        if previous is None or previous[0] != fingerprint[0]:
            # Reconvergence may have re-pathed any flow: start over.
            self._incremental.invalidate()
        flows = self._flows
        rates, changed = self._incremental.solve(
            flows, self._link_index, self._cap_values, table
        )
        # The solver reports every touched flow and every other flow
        # whose rate moved, so every row not reported already holds its
        # rate.  Each reported one is written, and the allocation
        # revision moves once one moved (a signed zero included; a
        # touched flow may keep its rate); after that the loop compares
        # nothing, so it costs what a bare write-back does.
        moved = False
        for fid in changed:
            flow = flows[fid]
            rate = rates[fid]
            if not moved:
                old = flow.allocated_mbps
                moved = rate != old or (
                    not rate and math.copysign(1.0, rate) != math.copysign(1.0, old)
                )
            flow.allocated_mbps = rate
        if moved:
            self._alloc_rev += 1
        self._alloc_fingerprint = fingerprint
        self._dirty = False

    def tick(self) -> None:
        """Advance queues by one step and refresh the allocation."""
        t0 = _time.perf_counter()
        self._scan_capacities()
        t1 = _time.perf_counter()
        arrays = self._current_flow_arrays()
        offered = arrays.offered_mbps(len(self._link_keys))
        arrays.accumulate_offered_by_tag(self.tick_s, self._offered_mbit_by_tag)
        queues = self._queue_arrays
        was_quiet = queues.quiet
        queues.update_all(self.tick_s, offered, self._cap_values)
        if not (was_quiet and queues.quiet):
            self._queue_rev += 1
        t2 = _time.perf_counter()
        self._recompute_arrays(arrays)
        t3 = _time.perf_counter()
        phases = self._phase_s
        phases["capacity_scan"] += t1 - t0
        phases["bookkeeping"] += t2 - t1
        phases["solve"] += t3 - t2
        self._phase_ticks += 1

    def tick_phase_stats(self) -> dict:
        """Per-phase cumulative tick wall time, for diagnostics.

        Returns ``{"ticks": n, "seconds": {phase: total_s}}``, the one
        store of tick-phase time.  Wall clock, so never folded into run
        summaries or traces — only surfaced through /metrics gauges,
        ``run --profile``'s stderr breakdown, and the report's profile
        section.
        """
        return {"ticks": self._phase_ticks, "seconds": dict(self._phase_s)}

    def solver_stats(self) -> dict[str, int]:
        """Counters from the incremental allocator (deterministic)."""
        inc = self._incremental
        return {
            "full_solves": inc.full_solves,
            "partial_solves": inc.partial_solves,
            "components_resolved": inc.components_resolved,
            "components": inc.component_count,
        }

    def observation_key(self) -> tuple:
        """A key that moves whenever a :meth:`path_delay_s` or
        :meth:`flow` answer may have.

        Its parts: the allocation revision (a flow's rate moved), the
        queue revision (a tick that did not leave quiet queues quiet),
        the flow revision (a flow came, went, re-pathed or changed its
        demand), the topology version (routes, link and node state)
        and ``Link.shaping_rev`` (a trace or rate limit changed).  A
        path delay reads a hop's capacity — a function of the clock —
        only under a standing queue, so while any queue stands the
        clock is a part too.  The capacities :meth:`path_available_bandwidth`
        reads move with the clock and are not covered.
        """
        return (
            self._alloc_rev,
            self._queue_rev,
            self._flows_rev,
            self.topology.version,
            Link.shaping_rev,
            None if self._queue_arrays.quiet else self.now,
        )

    def _ensure_fresh(self) -> None:
        if self._dirty:
            self.recompute()

    # -- queries ----------------------------------------------------------

    def capacity(self, src: str, dst: str) -> float:
        """Instantaneous directed capacity of the direct link src->dst."""
        return self.topology.capacity(src, dst, self.now)

    def link_allocated(self, src: str, dst: str) -> float:
        """Sum of allocated rates crossing the directed link.

        O(flows on the link) via the reverse index, not O(all flows) —
        this is queried per link, per epoch, by the net-monitor,
        controller, and fault injector.
        """
        self._ensure_fresh()
        members = self._flows_by_link.get((src, dst))
        if not members:
            return 0.0
        flows = self._flows
        return sum(flows[fid].allocated_mbps for fid in members)

    def linked_flows(
        self, links: Iterable[LinkKey], exclude: Container[str] = ()
    ) -> list[Flow]:
        """The flows joined to ``links`` by a chain of shared links.

        Walks the reverse index: every flow on a reached link is
        reached, and its links are reached in turn.  A flow in
        ``exclude`` is skipped and joins nothing.  Components of a
        max-min instance share no links, so these flows are all that
        can move the rates of flows routed over ``links`` — what a
        what-if needs, at O(reached) rather than O(fleet).  Zero-demand
        flows are walked too; a solve drops them.
        """
        flows = self._flows
        by_link = self._flows_by_link
        reached: dict[str, Flow] = {}
        seen: set[LinkKey] = set()
        frontier = list(links)
        while frontier:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            for fid in by_link.get(key, ()):
                if fid not in reached and fid not in exclude:
                    flow = reached[fid] = flows[fid]
                    frontier.extend(flow.links)
        return list(reached.values())

    def link_utilization(self, src: str, dst: str) -> float:
        """Allocated / capacity for the directed link (0 on a dead link)."""
        capacity = self.capacity(src, dst)
        if capacity <= 0:
            return 0.0
        return self.link_allocated(src, dst) / capacity

    def available_bandwidth(self, src: str, dst: str) -> float:
        """Spare capacity on the direct link: capacity minus allocation."""
        return max(0.0, self.capacity(src, dst) - self.link_allocated(src, dst))

    def path_available_bandwidth(self, src: str, dst: str) -> float:
        """Bottleneck spare capacity along the route (inf if co-located)."""
        links = self.router.path_link_keys(src, dst)
        if not links:
            return float("inf")
        return min(self.available_bandwidth(a, b) for a, b in links)

    def path_capacity(self, src: str, dst: str) -> float:
        """Bottleneck total capacity along the route (inf if co-located)."""
        return self.router.bottleneck_bandwidth(src, dst, self.now)

    def queue_delay_s(self, src: str, dst: str) -> float:
        """Current queueing delay on the directed link."""
        row = self._link_index.get((src, dst))
        if row is None:
            raise TopologyError(f"no link {src}->{dst}")
        return self._queue_arrays.delay_s(row, self.capacity(src, dst))

    def path_delay_s(self, src: str, dst: str) -> float:
        """One-way path delay: propagation plus queueing at each hop.

        Each hop adds its :meth:`queue_delay_s`.  An empty queue's delay
        is ``0.0`` whatever the capacity (``0.0 / c``, or ``0.0 / 1.0``
        on a dead link) and ``total + 0.0 == total``, so the backlog row
        is read first and the capacity — topology, link, trace bisect —
        only under a standing queue.
        """
        links = self.router.path_link_keys(src, dst)
        queues = self._queue_arrays
        backlog = queues.backlog_mbit
        link_index = self._link_index
        link = self.topology.link
        total = 0.0
        for a, b in links:
            total += link(a, b).latency_ms / 1000.0
            row = link_index[(a, b)]
            if backlog[row]:
                total += queues.delay_s(row, self.capacity(a, b))
        return total

    def path_loss_fraction(self, src: str, dst: str) -> float:
        """Compound loss across the route's queues (last tick)."""
        links = self.router.path_link_keys(src, dst)
        delivered = 1.0
        loss = self._queue_arrays.last_loss_fraction
        for key in links:
            delivered *= 1.0 - float(loss[self._link_index[key]])
        return 1.0 - delivered

    def offered_mbit_by_tag(self) -> dict[str, float]:
        """Cumulative link-traversal traffic per tag — overhead accounting
        for §6.3.4 (probe traffic as a share of all traffic)."""
        return dict(self._offered_mbit_by_tag)
