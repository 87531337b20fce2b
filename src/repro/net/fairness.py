"""Demand-bounded max-min fair bandwidth allocation.

Implements progressive filling (water-filling): all unsatisfied flows'
rates grow at the same pace; a flow stops growing when it reaches its
demand or when any link on its path saturates.  The result is the unique
max-min fair allocation, which is:

* *feasible* — no link carries more than its capacity,
* *demand-bounded* — no flow exceeds what it asked for,
* *max-min fair* — a flow's rate can only be increased by decreasing
  the rate of a flow with an already-smaller rate.

This is the fluid-level idealization of what per-flow fair queueing (or
long-run TCP) gives competing streams, and is the allocation model the
emulator recomputes whenever demands or capacities change.

The canonical semantics are *decomposed*: an instance is split into the
connected components of its flow<->link incidence graph (components
share no links, so their allocations are independent) and each
component is water-filled on its own.  Two kernels do that:

* the *plan* kernel (:class:`_Plan`; :func:`_fill_indexed` runs it over
  a whole instance) — one component at a time, compiled once to local
  integers (per-flow link slots, per-link member flows, the flows in
  demand order) and then water-filled with list arithmetic: every
  active flow of a component carries the same rate, so a round is one
  scalar increment, O(live links) of bookkeeping and the flows it
  retires.  Small instances (the paper's 5-node mesh, a few dozen
  flows) stay here: array set-up would cost more than the whole solve.
  The incremental engine keeps a component's plan for as long as it
  keeps the component, so a capacity-only tick compiles nothing.
* the *batched* kernel (:func:`_fill_batched`, :class:`ComponentBatch`)
  — one segmented NumPy water-fill over the concatenated arrays of
  *every* component.  Each round takes per-component increments from
  ``np.minimum.reduceat`` over the link-headroom and flow-slack
  segments, so a city of regional components costs ``max(rounds)``
  array rounds instead of ``sum(rounds)`` Python rounds.

Both are bit-compatible with each other and with the frozen reference
loop that rebuilds the incidence map every round (a test fixture:
``tests/oracles.py``): every floating-point operation a component
sees in a round (its uniform increment, the rate and residual-capacity
updates, the retirement tests) is performed with identical IEEE-754
arithmetic in an equivalent order, so the returned rates are *exactly*
equal, not merely close.  ``tests/unit/test_fairness_equivalence.py``
enforces this over hundreds of randomized instances.  On a
single-component instance the decomposed solve is additionally
bit-identical to the reference run globally.

One size cutover, ``_BATCH_MIN_FLOWS`` on the number of active flows,
picks the kernel; there is no other tuning and no selector.

:class:`IncrementalMaxMin` is the emulator's stateful front end: it
keeps the component structure between calls and takes *both* inputs as
deltas.  A flow that was added, removed, rerouted or re-demanded
re-components and re-solves only the components it leaves and the ones
its new path reaches (a heartbeat or probe flow costs its one
component, not the mesh); a capacity move re-solves, above the cutover,
only the components owning a moved link — in one batched call with a
dirty-component mask.  Every other component's rates are kept
verbatim.  That is exactly equal to a from-scratch solve because a
component's allocation is a pure function of its own flows and
capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

_EPSILON = 1e-9

#: The one kernel cutover: instances with at least this many active
#: flows run the batched array kernel, smaller ones the plan kernel.
#: Evidence (``python3 -m bench --trace``, ``net.fairness.incremental_s``
#: per rep with each kernel forced, plan / batched): below it,
#: socialnet_mesh (~20 active flows) 0.14 / 0.73 s and fleet_epochs
#: (~45 flows in 29 components) 0.11 / 0.49 s; above it, flow_churn
#: (1 200 flows) 0.30 / 0.27 s and city_tick (3 000 flows) 0.37 /
#: 0.15 s.  No ledger workload sits between 45 and 1 200 active flows.
#: *Capacity*-dirty tracking is gated by the same constant: below it a
#: capacity move dirties every component anyway (socialnet_mesh: all
#: 4 718 partial solves had every component dirty).  In the incremental
#: engine the same rule also sizes a flow-set change: a pool of fewer
#: flows than this is water-filled by the plan kernel even on a large
#: instance, unless capacities moved too and the compiled batch is
#: needed anyway.
_BATCH_MIN_FLOWS = 128

LinkKey = tuple[str, str]
"""Directed link identifier: (src node, dst node)."""


@dataclass(frozen=True)
class FlowDemand:
    """A flow's routing and demand, as seen by the allocator.

    Attributes:
        flow_id: caller-chosen identifier.
        links: directed links the flow traverses, in order.  An empty
            sequence means the endpoints are co-located (loopback): the
            flow is granted its full demand.
        demand_mbps: offered load in Mbps.
    """

    flow_id: Hashable
    links: tuple[LinkKey, ...] = field(default_factory=tuple)
    demand_mbps: float = 0.0


def _partition_flows(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> tuple[dict[Hashable, float], dict[Hashable, FlowDemand]]:
    """Shared preamble: grant loopbacks, drop zero demands, validate links.

    Returns the initial rates dict and the active flow set, exactly as
    the reference solver's first loop computes them.
    """
    rates: dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: dict[Hashable, FlowDemand] = {}
    for flow in flows:
        if flow.demand_mbps <= _EPSILON:
            continue
        if not flow.links:
            rates[flow.flow_id] = flow.demand_mbps  # loopback
            continue
        for key in flow.links:
            if key not in capacities:
                raise KeyError(f"flow {flow.flow_id!r} uses unknown link {key}")
        active[flow.flow_id] = flow
    return rates, active


class _Plan:
    """One component compiled for the ordered small-instance water-fill.

    A component's content is fixed for its lifetime (the incremental
    engine dissolves it on any change to a member flow), so everything
    the per-round loop needs is worked out once, as local integers:
    flows and links are numbered in first-appearance order, each flow
    lists its link slots *with multiplicity* (a path crossing a link
    twice counts twice, as in the reference), each link its member
    flows, and ``order`` is the flows by ascending demand.
    :meth:`fill` replays the plan against fresh capacities.
    """

    __slots__ = (
        "flow_ids",
        "links",
        "demand",
        "thresh",
        "order",
        "flow_links",
        "link_flows",
        "counts0",
    )

    def __init__(self, flows: Mapping[Hashable, FlowDemand]) -> None:
        slot: dict[LinkKey, int] = {}
        flow_links: list[list[int]] = []
        link_flows: list[list[int]] = []
        counts0: list[int] = []
        demand: list[float] = []
        for fi, flow in enumerate(flows.values()):
            demand.append(flow.demand_mbps)
            slots = []
            for key in flow.links:
                li = slot.get(key)
                if li is None:
                    li = slot[key] = len(slot)
                    link_flows.append([])
                    counts0.append(0)
                slots.append(li)
                counts0[li] += 1
                link_flows[li].append(fi)
            flow_links.append(slots)
        self.flow_ids = list(flows)
        #: Link keys in slot order: what :meth:`fill`'s ``remaining``
        #: argument is indexed by.
        self.links = list(slot)
        self.demand = demand
        #: ``demand - epsilon``: a flow is satisfied once the common
        #: rate reaches it.
        self.thresh = [d - _EPSILON for d in demand]
        self.order = sorted(range(len(demand)), key=demand.__getitem__)
        self.flow_links = flow_links
        self.link_flows = link_flows
        self.counts0 = counts0

    def fill(self, remaining: list[float]) -> list[float]:
        """Water-fill against ``remaining`` — the capacity of each link
        of :attr:`links`, consumed — and return the rate of each flow of
        :attr:`flow_ids`.

        The reference round, op for op, on a smaller state.  Every
        active flow of a component started at zero and took the same
        increment each round, so one scalar ``rate`` is all of their
        rates.  Float subtraction is monotone, so the smallest slack
        ``demand - rate`` is the smallest active demand's, and the
        flows satisfied by a round (``rate >= demand - epsilon``) are a
        prefix of the active flows in demand order: ``head`` walks
        ``order`` once per fill instead of every flow being scanned
        every round.  A round costs O(live links) plus the flows it
        retires.
        """
        demand, thresh, order = self.demand, self.thresh, self.order
        flow_links, link_flows = self.flow_links, self.link_flows
        counts = self.counts0.copy()
        n_flows = active = len(demand)
        live = list(range(len(counts)))
        out: list = [None] * n_flows  # a flow's rate, once it retires
        rate = 0.0
        head = 0
        while active:
            # A flow pinned by a saturated link retires out of demand
            # order: step over those *before* reading the slack.
            first = order[head]
            while out[first] is not None:
                head += 1
                first = order[head]
            delta = demand[first] - rate  # the smallest slack
            for li in live:
                share = remaining[li] / counts[li]
                if share < delta:
                    delta = share
            if delta < 0.0:
                delta = 0.0

            rate += delta
            for li in live:
                remaining[li] -= delta * counts[li]

            retired = []
            while head < n_flows:
                fi = order[head]
                if out[fi] is None:
                    if not rate >= thresh[fi]:
                        break
                    out[fi] = rate
                    retired.append(fi)
                head += 1
            # Saturation is judged against the round-start counts (still
            # including the just-satisfied flows), matching the reference.
            saturated = [li for li in live if remaining[li] <= _EPSILON]
            if saturated:
                for li in saturated:
                    for fi in link_flows[li]:
                        if out[fi] is None:  # pinned
                            out[fi] = rate
                            retired.append(fi)
            elif not retired and delta <= _EPSILON:
                break  # numerical dead-end; all remaining rates stay put

            if retired:
                active -= len(retired)
                for fi in retired:
                    for li in flow_links[fi]:
                        counts[li] -= 1
                live = [li for li in live if counts[li]]
        if active:
            return [rate if value is None else value for value in out]
        return out


class ComponentBatch:
    """Every component of an instance, concatenated into flat arrays.

    Flows are laid out component-major (components in the order given,
    flows in each component's own order) and links in first-appearance
    order, which is component-major too because components share no
    links.  Component *c* therefore owns the contiguous flow rows
    ``flow_starts[c]:flow_starts[c + 1]`` and link rows
    ``link_starts[c]:link_starts[c + 1]`` — the segments
    ``np.minimum.reduceat`` reduces over.  Building the arrays costs
    O(path length) Python work, so the emulator's incremental engine
    compiles once per component structure and replays :meth:`solve`
    against fresh capacities every tick.
    """

    __slots__ = (
        "flow_ids",
        "link_keys",
        "flow_starts",
        "link_starts",
        "demand",
        "entry_flow",
        "entry_link",
        "counts0",
        "comp_of_flow",
        "comp_of_link",
    )

    def __init__(
        self, components: Sequence[Mapping[Hashable, FlowDemand]]
    ) -> None:
        flow_ids: list[Hashable] = []
        demand: list[float] = []
        link_index: dict[LinkKey, int] = {}
        entry_flow: list[int] = []
        entry_link: list[int] = []
        flow_starts: list[int] = []
        link_starts: list[int] = []
        for component in components:
            flow_starts.append(len(flow_ids))
            link_starts.append(len(link_index))
            for fid, flow in component.items():
                fi = len(flow_ids)
                flow_ids.append(fid)
                demand.append(flow.demand_mbps)
                for key in flow.links:
                    li = link_index.get(key)
                    if li is None:
                        li = link_index[key] = len(link_index)
                    entry_flow.append(fi)
                    entry_link.append(li)
        self.flow_ids = flow_ids
        self.link_keys = list(link_index)
        #: Segment starts per component, plus the end sentinel.
        self.flow_starts = flow_starts + [len(flow_ids)]
        self.link_starts = link_starts + [len(link_index)]
        self.demand = np.array(demand, dtype=np.float64)
        self.entry_flow = np.array(entry_flow, dtype=np.intp)
        self.entry_link = np.array(entry_link, dtype=np.intp)
        #: Flows per link, with multiplicity (a path listing a link
        #: twice counts twice, as in the reference).
        self.counts0 = np.bincount(
            self.entry_link, minlength=len(link_index)
        ).astype(np.float64)
        ids = np.arange(len(components))
        self.comp_of_flow = np.repeat(ids, np.diff(self.flow_starts))
        self.comp_of_link = np.repeat(ids, np.diff(self.link_starts))

    @property
    def n_components(self) -> int:
        return len(self.flow_starts) - 1

    def solve(self, cap: np.ndarray, selected: np.ndarray) -> np.ndarray:
        """Water-fill the ``selected`` components against ``cap``.

        Args:
            cap: capacity per link row (consumed).
            selected: bool per component; unselected components are
                left alone and their rows of the result are meaningless.

        Returns:
            The rate per flow row.

        A partial selection is first compacted to the selected
        components' rows (order kept, indices renumbered), so the round
        loop costs what the dirty part of the instance costs, not what
        the whole instance does.
        """
        sizes_f = np.diff(self.flow_starts)
        sizes_l = np.diff(self.link_starts)
        if selected.all():
            return _water_fill(
                self.demand,
                self.counts0.copy(),
                cap,
                self.entry_flow,
                self.entry_link,
                self.comp_of_flow,
                self.comp_of_link,
                sizes_f,
                sizes_l,
            )
        flow_on = selected[self.comp_of_flow]
        link_on = selected[self.comp_of_link]
        entry_on = flow_on[self.entry_flow]
        renumber_c = np.cumsum(selected) - 1
        renumber_f = np.cumsum(flow_on) - 1
        renumber_l = np.cumsum(link_on) - 1
        rate = np.zeros(flow_on.size, dtype=np.float64)
        rate[flow_on] = _water_fill(
            self.demand[flow_on],
            self.counts0[link_on],
            cap[link_on],
            renumber_f[self.entry_flow[entry_on]],
            renumber_l[self.entry_link[entry_on]],
            renumber_c[self.comp_of_flow[flow_on]],
            renumber_c[self.comp_of_link[link_on]],
            sizes_f[selected],
            sizes_l[selected],
        )
        return rate


def _water_fill(
    demand: np.ndarray,
    counts: np.ndarray,
    cap: np.ndarray,
    entry_flow: np.ndarray,
    entry_link: np.ndarray,
    comp_of_flow: np.ndarray,
    comp_of_link: np.ndarray,
    sizes_f: np.ndarray,
    sizes_l: np.ndarray,
) -> np.ndarray:
    """Water-fill every component of a component-major layout in
    lock-step rounds; ``counts`` and ``cap`` are consumed.

    Each component sees the reference loop's round, op for op, in
    IEEE-754 float64 — results are bit-identical.  The departures are
    purely representational.  A round computes every component's own
    increment (``min`` of its link-headroom and flow-slack segments)
    into ``delta[c]``; flow and link rows read it back through
    ``flow_slot`` / ``link_slot``, which start as the row's component
    and are re-pointed at a spare slot that always holds ``0.0`` once
    the row retires (``x + 0.0`` and ``cap - count * 0.0`` are exact).
    So a retired flow's rate simply stops moving, and a finished
    component — whose increment is ``+inf``, nothing finite being left
    in its segments — is never read at all.  Retired flows also carry
    ``+inf`` demand bounds (the reductions and the satisfaction test
    never pick them) and fully-retired links ``cap=+inf, count=1``
    (they drop out of the headroom minimum and the saturation scan
    exactly like the reference dropping the key from its incidence
    map).
    """
    flow_starts = np.cumsum(sizes_f) - sizes_f
    link_starts = np.cumsum(sizes_l) - sizes_l
    n_links = cap.size
    spare = sizes_f.size
    inf = np.inf
    min_reduceat = np.minimum.reduceat

    flow_slot = comp_of_flow.copy()
    link_slot = comp_of_link.copy()
    n_alive = demand.size
    # Row 0: demand (the slack minuend); row 1: demand - epsilon (the
    # satisfaction threshold).  Both +inf once retired.
    bounds = np.empty((2, demand.size), dtype=np.float64)
    bounds[0] = demand
    bounds[1] = demand - _EPSILON
    demand_shadow, sat_thresh = bounds
    rate = np.zeros(demand.size, dtype=np.float64)
    slots = np.zeros(spare + 1, dtype=np.float64)
    delta = slots[:-1]

    while n_alive:
        d1 = min_reduceat(cap / counts, link_starts)
        d2 = min_reduceat(demand_shadow - rate, flow_starts)
        np.minimum(d1, d2, out=delta)
        np.maximum(delta, 0.0, out=delta)

        rate += slots[flow_slot]
        cap -= counts * slots[link_slot]

        retired = rate >= sat_thresh  # satisfied flows
        rows = retired.nonzero()[0]
        # Saturation is judged against the round-start counts (still
        # including just-satisfied flows), matching the reference.
        saturated = cap <= _EPSILON
        sat_rows = saturated.nonzero()[0]
        if sat_rows.size:
            pinned = np.zeros(rate.size, dtype=bool)
            pinned[entry_flow[saturated[entry_link]]] = True
            pinned &= flow_slot != spare
            retired |= pinned
            rows = retired.nonzero()[0]

        if not delta.min() > _EPSILON:
            # Numerical dead-end: a component that moved by no more
            # than epsilon, satisfied no flow and saturated no link
            # stops; its remaining flows keep their current rates.
            stuck = ~(delta > _EPSILON)
            stuck[comp_of_flow[rows]] = False
            stuck[comp_of_link[sat_rows]] = False
            if stuck.any():
                stuck = np.append(stuck, False)
                frozen = stuck[flow_slot]
                n_alive -= int(np.count_nonzero(frozen))
                flow_slot[frozen] = spare
                bounds[:, frozen] = inf
                frozen = stuck[link_slot]
                link_slot[frozen] = spare
                counts[frozen] = 1.0
                cap[frozen] = inf

        if rows.size:
            n_alive -= rows.size
            flow_slot[rows] = spare
            bounds[:, rows] = inf
            gone = entry_link[retired[entry_flow]]
            counts -= np.bincount(gone, minlength=n_links)
            dead = (counts == 0.0).nonzero()[0]
            if dead.size:
                # Retired links leave the headroom minimum and the
                # saturation scan for good.
                link_slot[dead] = spare
                counts[dead] = 1.0
                cap[dead] = inf

    return rate


class _Component:
    """One link-connected component: its flows and the links they own.

    ``plan`` and ``cap_pos`` (the capacity-array position of each of
    the plan's links) are compiled by the incremental engine the first
    time it water-fills the component below the cutover, and live
    exactly as long as the component does.  They are derived state: a
    pickled component carries neither.
    """

    __slots__ = ("flows", "links", "plan", "cap_pos")

    def __init__(
        self, flows: dict[Hashable, FlowDemand], links: list[LinkKey]
    ) -> None:
        self.flows = flows
        self.links = links
        self.plan: Optional[_Plan] = None
        self.cap_pos: list[int] = []

    def __reduce__(self):
        return _Component, (self.flows, self.links)


def _link_groups(active: Mapping[Hashable, FlowDemand]) -> list[_Component]:
    """Group active flows into link-connected components.

    Two flows are in the same component when their paths are joined by
    a chain of shared directed links.  Components share no links, so
    the max-min allocation of each is independent of the others.  The
    returned list is deterministic: components appear in the order of
    their first flow in ``active``, and flows keep ``active``'s
    iteration order within each component.  Each component also carries
    its links (each once), which is what lets the incremental engine
    find the components a new path touches.
    """
    # link -> the (shared, growing) list of links of its component.
    # A flow joins all its links: new links are appended to the flow's
    # home list, and an already-labelled foreign list is merged into it
    # smaller-into-larger, so total relabelling stays O(E log E).
    label: dict[LinkKey, list[LinkKey]] = {}
    for flow in active.values():
        home: Optional[list[LinkKey]] = None
        for key in flow.links:
            members = label.get(key)
            if members is None:
                if home is None:
                    home = []
                home.append(key)
                label[key] = home
            elif members is not home:
                if home is None:
                    home = members
                    continue
                if len(members) > len(home):
                    home, members = members, home
                home.extend(members)
                for merged in members:
                    label[merged] = home
    groups: dict[int, _Component] = {}
    for fid, flow in active.items():
        links = label[flow.links[0]]
        group = groups.get(id(links))
        if group is None:
            group = groups[id(links)] = _Component({}, links)
        group.flows[fid] = flow
    return list(groups.values())


def link_components(
    active: Mapping[Hashable, FlowDemand],
) -> list[dict[Hashable, FlowDemand]]:
    """The flow groups of :func:`_link_groups`, without their links."""
    return [component.flows for component in _link_groups(active)]


def _use_batch(active_flows: int) -> bool:
    return active_flows >= _BATCH_MIN_FLOWS


def _fill_indexed(
    rates: dict[Hashable, float],
    components: Sequence[Mapping[Hashable, FlowDemand]],
    capacities: Mapping[LinkKey, float],
) -> None:
    """Plan kernel over a whole instance: one component at a time, each
    through a throw-away :class:`_Plan`."""
    for component in components:
        plan = _Plan(component)
        caps = [float(capacities[key]) for key in plan.links]
        rates.update(zip(plan.flow_ids, plan.fill(caps)))


def _fill_batched(
    rates: dict[Hashable, float],
    components: Sequence[Mapping[Hashable, FlowDemand]],
    capacities: Mapping[LinkKey, float],
) -> None:
    """Batched kernel over a whole instance: every component at once."""
    batch = ComponentBatch(components)
    cap = np.array(
        [float(capacities[key]) for key in batch.link_keys],
        dtype=np.float64,
    )
    final = batch.solve(cap, np.ones(len(components), dtype=bool))
    rates.update(zip(batch.flow_ids, final.tolist()))


def max_min_allocation(
    flows: Sequence[FlowDemand],
    capacities: Mapping[LinkKey, float],
) -> dict[Hashable, float]:
    """Compute the demand-bounded max-min fair rates for ``flows``.

    The instance is split into link-connected components, each
    water-filled independently (components share no links, so the
    result is the same max-min fair allocation) — by the batched array
    kernel at ``_BATCH_MIN_FLOWS`` active flows, by the plan kernel
    below.  Both return bit-identical allocations.

    Args:
        flows: flow demands; flows whose paths reference a link absent
            from ``capacities`` raise ``KeyError`` (a wiring bug).
        capacities: directed link capacities in Mbps.

    Returns:
        Mapping from flow id to allocated rate in Mbps.
    """
    rates, active = _partition_flows(flows, capacities)
    fill = _fill_batched if _use_batch(len(active)) else _fill_indexed
    fill(rates, link_components(active), capacities)
    return rates


class IncrementalMaxMin:
    """Stateful max-min re-solver over retained connected components.

    The flow set and the link capacities are both *incrementally
    maintained* inputs.  Between calls the engine keeps the component
    structure of the active flows (which component each flow and each
    link belongs to), the complete allocation, and the capacities that
    allocation was solved against — plus, as derived state compiled on
    first use and dropped with the component, each component's
    water-fill :class:`_Plan`.  The caller reports every flow that
    was added, removed, rerouted or re-demanded with :meth:`touch`; at
    the next :meth:`solve` the engine

    1. pools the flows of every component those changes touch — the
       old component of each touched flow, plus the components owning
       a link of each new path — together with the touched flows' own
       current rows (a flow added and removed again between two solves
       is in neither, so it cancels),
    2. re-runs :func:`_link_groups` on that pool only, which is where
       merges (a bridging flow arrived) and splits (it left) fall out,
       and replaces the pooled components with the result,
    3. water-fills the replacement components — and, when capacities
       moved, retained components too: all of them below
       ``_BATCH_MIN_FLOWS`` active flows (on instances that small
       nearly every capacity change touches every component), only the
       ones owning a moved link at or above it (one dirty-component
       mask over the compiled batch) — and leaves every other
       component's cached rates alone.

    A from-scratch solve (the first one, after :meth:`invalidate`, or
    when the capacity array changes shape) is the same path with the
    pool being every flow.  Because components share no links, a
    component's allocation is a pure, order-independent function of
    its own flows and capacities, so the result is exactly — bitwise —
    what ``max_min_allocation`` computes from scratch
    (``tests/unit/test_fairness_incremental.py`` proves this over
    seeded perturbation sequences, through pickling as well).

    Flow rows are duck-typed (``flow_id`` / ``links`` /
    ``demand_mbps``) and held by reference: the emulator's mutable
    ``Flow`` records serve directly, so a row mutated in place must be
    reported with :meth:`touch` like any other change.

    Counters: ``full_solves`` counts from-scratch structure builds,
    ``partial_solves`` every other solve that water-filled at least
    one component, and ``components_resolved`` the components those
    partial solves water-filled.
    """

    def __init__(self) -> None:
        self._solved_caps: Optional[np.ndarray] = None
        self._rates: dict[Hashable, float] = {}
        self._components: list[_Component] = []
        #: Active flow id -> its component; link -> the component
        #: owning it.  Values are the objects in ``_components``.
        self._member_of: dict[Hashable, _Component] = {}
        self._link_owner: dict[LinkKey, _Component] = {}
        #: Flow ids reported since the last solve (an ordered set).
        self._touched: dict[Hashable, None] = {}
        #: ``(batch, capacity-array position per batch link row)`` —
        #: derived from ``_components``; never serialized.
        self._compiled: Optional[tuple[ComponentBatch, np.ndarray]] = None
        #: Observability counters (deterministic; surfaced as gauges).
        self.full_solves = 0
        self.partial_solves = 0
        self.components_resolved = 0

    @property
    def component_count(self) -> int:
        return len(self._components)

    def touch(self, flow_id: Hashable) -> None:
        """Report that a flow was added, removed, rerouted or re-demanded."""
        self._touched[flow_id] = None

    def invalidate(self) -> None:
        """Drop all cached structure; the next call solves from scratch."""
        self._solved_caps = None

    def __getstate__(self) -> dict:
        """Checkpoints carry the components, not what is compiled from
        them: the batch arrays are dropped here and each component
        pickles without its plan; both are rebuilt on first use."""
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def _batch(
        self, link_index: Mapping[LinkKey, int]
    ) -> tuple[ComponentBatch, np.ndarray]:
        if self._compiled is None:
            batch = ComponentBatch([c.flows for c in self._components])
            cap_pos = np.fromiter(
                (link_index[key] for key in batch.link_keys),
                dtype=np.intp,
                count=len(batch.link_keys),
            )
            self._compiled = (batch, cap_pos)
        return self._compiled

    def _restructure(
        self,
        flows: Mapping[Hashable, FlowDemand],
        touched: Iterable[Hashable],
        link_index: Mapping[LinkKey, int],
    ) -> tuple[list[_Component], list[Hashable]]:
        """Fold the touched flow ids into the component structure.

        Returns the replacement components (appended to
        ``_components``, rates not yet filled) and the touched ids
        whose rate is settled without water-filling (loopback and
        zero-demand flows).
        """
        rates, member_of = self._rates, self._member_of
        link_owner = self._link_owner
        granted, arrivals = _partition_flows(
            [flows[fid] for fid in touched if fid in flows], link_index
        )
        dissolved: dict[int, _Component] = {}
        for fid in touched:
            old = member_of.pop(fid, None)
            if old is not None:
                dissolved[id(old)] = old
            if fid not in granted:
                rates.pop(fid, None)  # the flow is gone
        rates.update(granted)
        for flow in arrivals.values():
            for key in flow.links:
                owner = link_owner.get(key)
                if owner is not None:
                    dissolved[id(owner)] = owner
        pool: dict[Hashable, FlowDemand] = {}
        for component in dissolved.values():
            for key in component.links:
                del link_owner[key]
            for fid, flow in component.flows.items():
                if fid in member_of:  # untouched, so still a member
                    pool[fid] = flow
        pool.update(arrivals)
        fresh = _link_groups(pool)
        for component in fresh:
            for fid in component.flows:
                member_of[fid] = component
            for key in component.links:
                link_owner[key] = component
        if dissolved or fresh:
            self._components = [
                c for c in self._components if id(c) not in dissolved
            ] + fresh
            self._compiled = None
        return fresh, [fid for fid in granted if fid not in arrivals]

    def solve(
        self,
        flows: Mapping[Hashable, FlowDemand],
        link_index: Mapping[LinkKey, int],
        cap_values: np.ndarray,
    ) -> tuple[dict[Hashable, float], list[Hashable]]:
        """(Re-)solve against the current flow table and capacity array.

        Args:
            flows: the full flow table, id -> row (consulted for the
                touched ids only, or entirely when solving from
                scratch).
            link_index: link key -> position in ``cap_values``.
            cap_values: current per-link capacities (not aliased; a
                private copy is kept as the solved-state snapshot).

        Returns:
            ``(rates, changed)`` — the complete allocation (owned by
            the engine; treat as read-only) and the flow ids whose
            rates were recomputed by this call.
        """
        scratch = (
            self._solved_caps is None
            or self._solved_caps.shape != cap_values.shape
        )
        if scratch:
            self._rates, self._components = {}, []
            self._member_of, self._link_owner = {}, {}
            touched: Iterable[Hashable] = flows
            caps_moved = True
        else:
            touched = self._touched
            moved = self._solved_caps != cap_values
            caps_moved = bool(moved.any())
            if not touched and not caps_moved:
                return self._rates, []
        fresh: list[_Component] = []
        changed: list[Hashable] = []
        if scratch or touched:
            fresh, changed = self._restructure(flows, touched, link_index)
            self._touched = {}
        if caps_moved:
            self._solved_caps = cap_values.copy()
        rates, components = self._rates, self._components
        # The batched kernel runs over the one compiled batch of the
        # whole instance, which the capacity-dirty mask needs anyway; a
        # small pool on an instance whose capacities held skips it.
        if _use_batch(len(self._member_of)) and (
            caps_moved or _use_batch(sum(len(c.flows) for c in fresh))
        ):
            batch, cap_pos = self._batch(link_index)
            dirty = np.zeros(len(components), dtype=bool)
            dirty[len(components) - len(fresh):] = True
            if caps_moved and not scratch:
                dirty |= np.logical_or.reduceat(
                    moved[cap_pos], batch.link_starts[:-1]
                )
            filled = dirty.nonzero()[0].tolist()
            if filled:
                values = batch.solve(cap_values[cap_pos], dirty).tolist()
                starts = batch.flow_starts
                for ci in filled:
                    rows = slice(starts[ci], starts[ci + 1])
                    fids = batch.flow_ids[rows]
                    rates.update(zip(fids, values[rows]))
                    changed += fids
            resolved = len(filled)
        else:
            fill = components if caps_moved else fresh
            caps = cap_values.tolist()
            for component in fill:
                plan = component.plan
                if plan is None:
                    plan = component.plan = _Plan(component.flows)
                    component.cap_pos = [link_index[key] for key in plan.links]
                values = plan.fill([caps[pos] for pos in component.cap_pos])
                rates.update(zip(plan.flow_ids, values))
                changed += plan.flow_ids
            resolved = len(fill)
        if scratch:
            self.full_solves += 1
        elif resolved:
            self.partial_solves += 1
            self.components_resolved += resolved
        return rates, changed
