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
  keeps the component, so a capacity-only tick compiles nothing — and
  fills nothing for a component whose every link has room for the
  demands crossing it: the plan certifies that its capacity-free
  rates are what the fill would return, bit for bit (*slack links*,
  below).
* the *batched* kernel (:func:`_water_fill` over a :class:`_Layout`)
  — one segmented NumPy water-fill over the concatenated arrays of
  *every* component laid out.  Each round takes per-component
  increments from ``np.minimum.reduceat`` over the link-headroom and
  flow-slack segments, so a city of regional components costs
  ``max(rounds)`` array rounds instead of ``sum(rounds)`` Python
  rounds.  At city scale a round costs what its NumPy calls cost to
  dispatch, not what they compute (a few hundred flows each), so the
  round is written for few calls: results go into buffers allocated
  once per fill, the live-flow mask is kept rather than rebuilt, the
  links a round saturates pin their flows straight into its retirement
  mask, and the dead-end bookkeeping runs only on the round that
  needs it.  The layout is *gathered*, not compiled: given the flow x
  link incidence as integer COO columns and a component label per
  row, it is two dozen integer gathers whose cost is that of the rows
  laid out — so it is built per solve, for the components to fill
  only.

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
picks the kernel — and with it the form the incremental engine keeps
its structure in; there is no other tuning and no selector.

:class:`IncrementalMaxMin` is the emulator's stateful front end: it
keeps the component structure between calls and takes *both* inputs as
deltas.  A flow that was added, removed, rerouted or re-demanded
re-components and re-solves only the components it leaves and the ones
its new path reaches (a heartbeat or probe flow costs its one
component, not the mesh — and below the cutover nothing at all when it
joins or leaves that component at the top of its fill order on slack
links: *slack admission*, below); a capacity move re-solves, above the cutover,
only the components owning a moved link that is not slack, and below
it only the components whose plan cannot certify its capacity-free
rates.  Every other component's rates are kept verbatim.  That is
exactly equal to a from-scratch solve because a component's allocation
is a pure function of its own flows and capacities, and is blind to a
slack link's capacity.  Below the cutover the structure is component
objects, each with its retained plan; at or above it the structure is
two integer label columns over the caller's flow table
(:class:`~repro.net.flows.FlowArrays`) — re-grouped by merging link
labels (:func:`_merge_links`), filled through one gathered layout —
and no Python loop visits a flow's links.

*Slack links.*  Take a component's fill ``F(c)`` against capacities
``c`` and a link's *load* ``L``: the rates of ``F(c)`` crossing it,
summed with multiplicity.  The link is *slack* under ``c`` when
``c > L + m``, with the margin ``m = 1e-6 * (L + 1)``
(:func:`_slack_bound`).  Then ``F(c)`` is, bit for bit, the fill with
every slack link at ``+inf``.  Both kernels read a link's residual
capacity in two tests only — ``residual / count < delta`` (the link
sets the round's increment) and ``residual <= epsilon`` (it
saturates); everything else reads demands, counts and rates.  Against
``+inf`` both tests are false in every round.  Against ``c`` they are
false too, by induction over the rounds: while they have been, the two
fills took the same branches and hold the same rates, and in exact
arithmetic the link has consumed its retired flows' final rates plus
``count * rate``, while each of its active flows ends at least
``delta`` above ``rate``; so its residual is at least
``c - L + count * delta > m + count * delta``.  Its share exceeds the
increment, and after the round its residual is still above ``m``, so
above epsilon.  Floats add the rounding of at most ``R`` rounds
(``R`` <= flows + 1) and of the load's own sum over its ``n`` entries:
at most ``(2R + n + 4) * 2**-53 * (L + c)`` in all, which is below
``c - L`` whenever ``c > L + m`` and ``R + n`` < 10**9.  A NaN
capacity or a NaN or infinite load is never slack; a ``+inf``
capacity is always slack against a finite load.

Two certificates rest on this.  Below the cutover
:meth:`_Plan.certify` takes ``L`` to be the demand crossing each link
(no flow's rate exceeds its demand, and ``m`` grows with ``L``): when
every link clears it, the fill is the capacity-free fill.  At or above
it the label form keeps each link's load from the fill that last laid
the link out.  A capacity move on a link slack both before and after
it, against that one load, leaves the component's held rates — its
fill against the old capacities, so against ``+inf`` on that link, so
against the new ones — and the component is not re-filled.

*Slack admission* is the third skip, for flow-set changes below the
cutover while the capacities are the ones the held rates were solved
against.  A flow ``f`` of demand ``d`` *arrives* without a fill when
its links touch at most one component ``C`` (none: ``C`` is empty),
``d`` exceeds every demand in ``C`` by more than ``2 * epsilon``, and
every link it crosses is slack under ``L``: the held rates of ``C``'s
flows on it plus ``f``'s grant ``g = r + (d - r)``, each counted as
often as its flow crosses the link, where ``r`` is ``C``'s largest held
rate (``0.0`` for none).  The engine also asks, in floats,
``r < d - epsilon <= g``.  Then ``fill(C + f)`` is ``fill(C)`` on
``C``'s flows and ``g`` on ``f``, bit for bit:

* ``f``'s demand is above every other, so ``f`` sorts last in the fill
  order: while a flow of ``C`` is active ``f`` is never ``first`` (its
  slack never sets ``delta``) and, satisfied flows retiring as a prefix
  of the order, never retires by demand.  The common rate never
  exceeds ``r`` while ``C`` is active, and ``r < d - epsilon``, so
  ``f`` is not satisfied early either.
* The lemma's induction reads ``L`` only through the final rates: each
  active flow ends at least ``delta`` above the round's rate.  Run it
  on ``fill(C + f)`` with the claimed rates — ``C``'s held ones, and
  ``g >= r`` for ``f`` — and ``f``'s links never set ``delta`` nor
  saturate there.  In ``fill(C)`` a link of ``C`` among them carries a
  smaller load, so it is slack and idle there too.  Every other link
  carries the same flows in both fills.  So each round of
  ``fill(C + f)`` takes ``fill(C)``'s increment, retires the same flows
  of ``C`` and saturates the same links, which pin no ``f``.
* When ``C``'s last flow retires the rate is ``r`` and ``f`` is alone
  on its links, whose shares stay above its slack: one more round adds
  ``d - r``, ends at ``g`` and retires ``f`` (``g >= d - epsilon``).
* *The grant, not ``d``, in the load.*  The induction needs the rates
  the fill ends at, and ``f`` ends at ``g``, which can sit an ulp off
  ``d``.  (The margin would absorb that ulp too; with ``g`` the lemma
  applies as stated.)
* *A link crossed twice.*  A link ``f`` crosses ``k`` times gains ``k``
  in its count and gives up ``k * rate`` per round, so ``L`` counts
  ``g`` ``k`` times, as the lemma's load does; a flow of ``C`` crossing
  a link twice counts twice likewise.
* *The dead-end ``break``* is never taken by a plan fill over finite
  demands, so neither fill takes it.  A round with ``delta <= epsilon``
  retires or saturates.  If ``delta`` is a link's share
  ``remaining / count`` (a negative one clamped to ``0.0``), that link
  ends the round within rounding of zero or below it, so at most
  epsilon.  If it is the first flow's slack ``s = d' - rate``, then
  ``rate < d'`` (the flow is not satisfied).  If ``rate >= d' / 2``
  the subtraction is exact (Sterbenz) and ``rate + s`` is ``d'``
  itself.  Otherwise ``s <= epsilon`` puts ``d'`` below
  ``2 * epsilon``, where ``rate + s`` is within a few ulps of ``d'``.
  Either way the rate reaches ``d' - epsilon`` and the flow retires.

A *departure* is the mirror.  The flow ``f`` was removed, and touched
once, so the row the engine holds is the one its rate was solved with.
``C`` cannot split: ``f`` crosses one distinct link, or is ``C``'s only
member.  ``f`` tops ``C``'s other demands by more than ``2 * epsilon``,
and its links are slack under the held load, ``f``'s own rate included.
The held rates are ``fill(C)``, so by the lemma ``f``'s links never
set ``delta`` nor saturate in it.  Without ``f`` a link of ``C - f``
among them keeps at least that headroom, round by round.  ``f`` sorts
last, so its slack sets no increment until ``C - f`` is done, and
``fill(C)``'s rounds restricted to ``C - f`` are ``fill(C - f)``'s.
``f`` is dropped with the links only it crossed.

Either way the component keeps its held rates, loses its plan (its
content changed) and is not filled; every other change takes the fill
path.  The label form has no admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import copysign
from operator import gt
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..sim.derived import Derived, forget

_EPSILON = 1e-9
_INF = float("inf")

#: The one size cutover: instances with at least this many active flows
#: run the batched array kernel, smaller ones the plan kernel.
#: Evidence (``python3 -m bench --trace 1 --seed 11``,
#: ``net.fairness.incremental_s`` of the traced rep with each side
#: forced on the whole engine — kernel, structure and all — plan /
#: batched, 2-core x86_64): below it, socialnet_mesh (~20 active flows)
#: 0.07 / 0.31 s and fleet_epochs (~45 flows in 29 components) 0.08 /
#: 0.39 s; above it, flow_churn (1 200 flows) 0.31 / 0.14 s and
#: city_tick (3 000 flows) 0.42 / 0.10 s, simulated results identical
#: either way.  No ledger workload sits between 45 and 1 200 active
#: flows.
#: Everything else that depends on size follows the same constant.
#: *Capacity*-dirty tracking: only at or above it.  Below it every 5-node
#: trace moves every second, so a moved-link mask would mark every
#: component anyway (socialnet_mesh: all 4 718 capacity-only solves);
#: what spares a component there is its plan's certificate, which asks
#: whether the fill can bind at all rather than whether its links moved
#: (80 % of socialnet_mesh's fills skipped).  The *form* of the
#: incremental engine's structure:
#: component objects with retained plans below, label columns over an
#: integer flow table at or above.  And the emulator's flow table:
#: rebuilt per change below (one flow swapped: socialnet_mesh's ~20
#: rows rebuild in 15 us against 45 us for the delta, fleet_epochs'
#: ~100 in 47 against 46), maintained by delta at or above (1 200
#: rows: 500 us against 85; 10 000: 6.2 ms against 0.55).
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
    the reference solver's first loop computes them — except that a NaN
    demand, which the reference would spin on forever, is a
    ``ValueError``.
    """
    rates: dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    active: dict[Hashable, FlowDemand] = {}
    for flow in flows:
        if not flow.demand_mbps > _EPSILON:
            if flow.demand_mbps != flow.demand_mbps:
                # No kernel terminates on a NaN demand: fail loudly.
                raise ValueError(f"flow {flow.flow_id!r} has a NaN demand")
            continue
        if not flow.links:
            rates[flow.flow_id] = flow.demand_mbps  # loopback
            continue
        for key in flow.links:
            if key not in capacities:
                raise KeyError(f"flow {flow.flow_id!r} uses unknown link {key}")
        active[flow.flow_id] = flow
    return rates, active


def _slack_bound(load):
    """The capacity a link must exceed to be slack under ``load`` (a
    float or an array): the load plus the margin ``1e-6 * (load + 1)``
    (module docstring)."""
    return load + 1e-6 * (load + 1.0)


class _Plan:
    """One component compiled for the ordered small-instance water-fill.

    A plan's content is fixed for its lifetime (the incremental engine
    dissolves a component on any change to a member flow, or drops its
    plan when a slack admission adds or removes one), so everything
    the per-round loop needs is worked out once, as local integers:
    flows and links are numbered in first-appearance order, each flow
    lists its link slots *with multiplicity* (a path crossing a link
    twice counts twice, as in the reference), each link its member
    flows, and ``order`` is the flows by ascending demand.
    :meth:`fill` replays the plan against fresh capacities.

    *The certificate.*  A plan the incremental engine retains across a
    capacity move also derives, on first use, each link slot's
    ``bound`` — :func:`_slack_bound` of ``need``, the demands of its
    member flows summed with multiplicity — and its ``free`` rates,
    ``fill([inf] * len(links))``.  :meth:`certify` accepts capacities
    that all exceed their bound, and then ``fill(caps)`` *is* ``free``,
    bit for bit: every link is slack (module docstring), since no
    flow's rate exceeds its demand.  ``+inf`` capacities are certified
    trivially; a NaN one or an infinite demand never is.  ``gave_free``
    records that the engine's last answer for the component was
    ``free``, so an unchanged answer is not written back.  All three
    are derived state, like the plan itself.
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
        "bound",
        "free",
        "gave_free",
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
        #: The certificate, derived by the first :meth:`certify` (which
        #: also sets ``free`` and ``gave_free``).
        self.bound: Optional[list[float]] = None

    def certify(self, caps: list[float]) -> bool:
        """Whether ``fill(caps)`` is provably :attr:`free` (the class
        docstring has the proof): every capacity exceeds its slot's
        bound."""
        bound = self.bound
        if bound is None:
            demand = self.demand
            bound = []
            for members in self.link_flows:
                need = 0.0
                for fi in members:
                    need += demand[fi]
                bound.append(_slack_bound(need))
            self.bound = bound
            self.free = self.fill([_INF] * len(bound))
            self.gave_free = False
        return all(map(gt, caps, bound))

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


class _Incidence:
    """The flow x link incidence of a sequence of flow rows, as integers.

    The columns of :class:`~repro.net.flows.FlowArrays` that the array
    path reads — ``flow_ids``, ``demand``, ``entry_link`` (link ids,
    flow-major) and ``ptr`` (row *i* owns entries ``ptr[i]:ptr[i + 1]``)
    — for callers that keep no flow table: the stateless
    ``max_min_allocation`` converts its demands once, and an
    :class:`IncrementalMaxMin` driven without a table converts on every
    flow-set change.
    """

    __slots__ = ("flow_ids", "demand", "ptr", "entry_link")

    def __init__(self, rows: Iterable, link_index: Mapping[LinkKey, int]) -> None:
        flow_ids: list[Hashable] = []
        demand: list[float] = []
        entry_link: list[int] = []
        ptr = [0]
        link_id = link_index.__getitem__
        for row in rows:
            flow_ids.append(row.flow_id)
            demand.append(row.demand_mbps)
            entry_link.extend(map(link_id, row.links))
            ptr.append(len(entry_link))
        self.flow_ids = flow_ids
        self.demand = np.array(demand, dtype=np.float64)
        self.ptr = np.array(ptr, dtype=np.intp)
        self.entry_link = np.array(entry_link, dtype=np.intp)


def _entry_runs(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry runs of ``rows`` of a flow-major table, gathered.

    Returns ``(lens, index)``: each row's run length, and the positions
    of their entries row after row — ``entry_link[index]`` is the rows'
    links, flow-major.
    """
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    index = np.arange(ends[-1] if ends.size else 0)
    index += np.repeat(starts - (ends - lens), lens)
    return lens, index


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal adjacent values starts."""
    return np.concatenate(([True], values[1:] != values[:-1])).nonzero()[0]


def _merge_links(
    links: np.ndarray, lens: np.ndarray, n_links: int
) -> tuple[np.ndarray, int]:
    """Union the links each flow crosses; label every link with the
    smallest link id of its component.

    ``links`` is the flow-major concatenation of the flows' link ids and
    ``lens`` their (positive) run lengths.  Returns ``(label per link
    id, rounds taken)``; links no flow crosses keep their own id.

    Consecutive links of a path are the edges of a graph on link ids.
    ``parent`` is a forest over it whose pointers only ever point at
    smaller ids, flattened after every round, so ``parent[x]`` is a
    root.  A round hooks every root that an edge joins to a smaller
    root under the smallest such root, in one sort and one
    ``minimum.reduceat`` (``np.minimum.at`` would do, but is only fast
    from NumPy 1.25).  A root that survives a round un-grown sees only
    smaller roots around it in the next — each neighbour hooked under
    something no larger than it — and hooks then; so the roots at
    least halve every two rounds and ``2 * log2(links) + 1`` rounds
    bound any input, a shuffled chain included (where passing labels
    link to link without hooking the roots takes a round per hop).
    Flattening is pointer doubling: ``log2(depth)`` gathers.
    """
    parent = np.arange(n_links)
    joined = np.ones(links.size, dtype=bool)
    joined[np.cumsum(lens) - 1] = False  # a path's last link has no successor
    at = joined.nonzero()[0]
    a, b = links[at], links[at + 1]
    rounds = 0
    while True:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        if not apart.any():
            return parent, rounds
        rounds += 1
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        high = np.maximum(root_a, root_b)
        order = np.argsort(high, kind="stable")
        high = high[order]
        low = np.minimum(root_a, root_b)[order]
        cuts = _run_starts(high)
        parent[high[cuts]] = np.minimum.reduceat(low, cuts)
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


class _Layout:
    """Some components of a flow table, gathered for :func:`_water_fill`.

    Args:
        demand / ptr / entry_link: the table's columns.
        rows: the table rows to lay out, grouped by component.
        labels: the label of each of ``rows`` (equal labels adjacent).
        n_links: size of the table's link id space.

    Flows are laid out in the order given and links by the component
    of the flows crossing them — both component-major, because
    components share no links.  Component *c* therefore owns contiguous flow and
    link rows, the segments ``np.minimum.reduceat`` reduces over.  Row
    order *inside* a component is immaterial to the result: the round's
    reductions are ``min`` and everything else is element-wise.
    ``links`` holds the table's link id of each link row, which is its
    position in the caller's capacity array.

    Building this is two dozen integer gathers whose cost is that of
    the rows laid out, so it is built per solve, for the dirty
    components only, and thrown away.
    """

    __slots__ = (
        "links",
        "demand",
        "counts0",
        "entry_flow",
        "entry_link",
        "comp_of_flow",
        "comp_of_link",
        "sizes_f",
        "sizes_l",
    )

    def __init__(
        self,
        demand: np.ndarray,
        ptr: np.ndarray,
        entry_link: np.ndarray,
        rows: np.ndarray,
        labels: np.ndarray,
        n_links: int,
    ) -> None:
        lens, index = _entry_runs(ptr, rows)
        crossed = entry_link[index]
        entry_flow = np.repeat(np.arange(rows.size), lens)
        # Number the components in the order given...
        comp_of_flow = np.zeros(rows.size, dtype=np.intp)
        comp_of_flow[_run_starts(labels)[1:]] = 1
        np.cumsum(comp_of_flow, out=comp_of_flow)
        # ...and give each link the component of any flow crossing it.
        comp_of_link = np.full(n_links, -1, dtype=np.intp)
        comp_of_link[crossed] = comp_of_flow[entry_flow]
        links = (comp_of_link >= 0).nonzero()[0]
        comp_of_link = comp_of_link[links]
        order = np.argsort(comp_of_link, kind="stable")
        links, comp_of_link = links[order], comp_of_link[order]
        slot = np.empty(n_links, dtype=np.intp)
        slot[links] = np.arange(links.size)
        self.links = links
        self.demand = demand[rows]
        self.entry_flow = entry_flow
        self.entry_link = slot[crossed]
        #: Flows per link, with multiplicity (a path listing a link
        #: twice counts twice, as in the reference).
        self.counts0 = np.bincount(
            self.entry_link, minlength=links.size
        ).astype(np.float64)
        self.comp_of_flow = comp_of_flow
        self.comp_of_link = comp_of_link
        self.sizes_f = np.bincount(comp_of_flow)
        self.sizes_l = np.bincount(comp_of_link, minlength=self.sizes_f.size)

    @property
    def n_components(self) -> int:
        return self.sizes_f.size

    def fill(
        self, cap_values: np.ndarray, load: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Water-fill against ``cap_values`` (capacity per link id, left
        alone); returns the rate of each row laid out.  ``load`` (per
        link id), when given, gets each laid-out link's load: the rates
        crossing it, summed with multiplicity."""
        rate = _water_fill(
            self.demand,
            self.counts0.copy(),
            cap_values[self.links],
            self.entry_flow,
            self.entry_link,
            self.comp_of_flow,
            self.comp_of_link,
            self.sizes_f,
            self.sizes_l,
        )
        if load is not None:
            load[self.links] = np.bincount(
                self.entry_link,
                weights=rate[self.entry_flow],
                minlength=self.links.size,
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
    a ``+inf`` slack minuend (the reductions never pick them) and a NaN
    satisfaction threshold (``rate >= NaN`` is false even for an
    infinite rate, so a retired row never retires again), and
    fully-retired links ``cap=+inf, count=1`` (they drop out of the
    headroom minimum and the saturation scan exactly like the reference
    dropping the key from its incidence map).  ``live`` is
    ``flow_slot != spare``, kept rather than recomputed: the links a
    round saturates pin only its live flows.  Shares, slacks and masks
    go into buffers allocated once per fill.
    """
    flow_starts = np.cumsum(sizes_f) - sizes_f
    link_starts = np.cumsum(sizes_l) - sizes_l
    n_flows, n_links = demand.size, cap.size
    spare = sizes_f.size
    inf, nan = np.inf, np.nan
    min_reduceat = np.minimum.reduceat

    flow_slot = comp_of_flow.copy()
    link_slot = comp_of_link.copy()
    live = np.ones(n_flows, dtype=bool)
    n_alive = n_flows
    # The slack minuend and the satisfaction threshold.
    demand_shadow = demand.copy()
    sat_thresh = demand - _EPSILON
    rate = np.zeros(n_flows, dtype=np.float64)
    slots = np.zeros(spare + 1, dtype=np.float64)
    delta = slots[:-1]
    flow_buf = np.empty(n_flows, dtype=np.float64)
    link_buf = np.empty(n_links, dtype=np.float64)
    retired = np.empty(n_flows, dtype=bool)
    saturated = np.empty(n_links, dtype=bool)

    free = None
    if n_flows and demand.max() == inf:
        # An infinite demand crossing only unlimited links takes an
        # infinite rate, and nothing else feels it: an unlimited link's
        # share and headroom stay +inf whatever its count.  Settle such
        # rows before the first round, so no round computes inf - inf.
        bound = np.zeros(n_flows, dtype=bool)
        bound[entry_flow[cap[entry_link] < inf]] = True
        free = (demand == inf) & ~bound
        n_alive -= int(np.count_nonzero(free))
        flow_slot[free] = spare
        live[free] = False
        sat_thresh[free] = nan
        gone = entry_link[free[entry_flow]]
        np.subtract.at(counts, gone, 1.0)
        dead = gone[counts[gone] == 0.0]
        link_slot[dead] = spare
        counts[dead] = 1.0

    while n_alive:
        np.divide(cap, counts, out=link_buf)
        np.subtract(demand_shadow, rate, out=flow_buf)
        np.minimum(
            min_reduceat(link_buf, link_starts),
            min_reduceat(flow_buf, flow_starts),
            out=delta,
        )
        np.maximum(delta, 0.0, out=delta)

        rate += slots.take(flow_slot)
        step = slots.take(link_slot)
        step *= counts
        cap -= step

        np.greater_equal(rate, sat_thresh, out=retired)  # satisfied flows
        # Saturation is judged against the round-start counts (still
        # including just-satisfied flows), matching the reference.  Most
        # rounds saturate a link, so the pin is not worth a test first.
        np.less_equal(cap, _EPSILON, out=saturated)
        retired[entry_flow[saturated[entry_link]]] = True
        retired &= live
        rows = retired.nonzero()[0]

        if not np.minimum.reduce(delta) > _EPSILON:
            # Numerical dead-end: a component that moved by no more
            # than epsilon, satisfied no flow and saturated no link
            # stops; its remaining flows keep their current rates.
            stuck = ~(delta > _EPSILON)
            stuck[comp_of_flow[rows]] = False
            stuck[comp_of_link[saturated]] = False
            if stuck.any():
                stuck = np.append(stuck, False)
                frozen = stuck[flow_slot]
                n_alive -= int(np.count_nonzero(frozen))
                flow_slot[frozen] = spare
                live[frozen] = False
                demand_shadow[frozen] = inf
                sat_thresh[frozen] = nan
                frozen = stuck[link_slot]
                link_slot[frozen] = spare
                counts[frozen] = 1.0
                cap[frozen] = inf

        if rows.size:
            n_alive -= rows.size
            flow_slot[rows] = spare
            live[rows] = False
            demand_shadow[rows] = inf
            sat_thresh[rows] = nan
            gone = entry_link[retired[entry_flow]]
            np.subtract.at(counts, gone, 1.0)
            dead = gone[counts[gone] == 0.0]
            if dead.size:
                # Retired links leave the headroom minimum and the
                # saturation scan for good.
                link_slot[dead] = spare
                counts[dead] = 1.0
                cap[dead] = inf

    if free is not None:
        rate[free] = inf
    return rate


class _Component:
    """One link-connected component: its flows and the links they own.

    ``plan`` and ``cap_pos`` (the capacity-array position of each of
    the plan's links) are compiled by the incremental engine the first
    time it water-fills the component below the cutover, and live as
    long as the component keeps its flows (a slack admission drops the
    plan).  They are derived state: a pickled component carries
    neither.
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


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_RATES = np.empty(0, dtype=np.float64)


def _use_batch(active_flows: int) -> bool:
    return active_flows >= _BATCH_MIN_FLOWS


def _write_moved(
    rates: dict[Hashable, float],
    flow_ids: Sequence[Hashable],
    new: Sequence[float],
    changed: list[Hashable],
) -> None:
    """Write the rates of ``new`` that moved from the ones ``rates``
    holds (none held, ``!=``, or a zero of the other sign) and list
    their ids in ``changed``."""
    get = rates.get
    for fid, rate in zip(flow_ids, new):
        old = get(fid)
        if (
            old is None
            or rate != old
            or (not rate and copysign(1.0, rate) != copysign(1.0, old))
        ):
            rates[fid] = rate
            changed.append(fid)


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
    link_index = {key: i for i, key in enumerate(capacities)}
    table = _Incidence(
        (flow for component in components for flow in component.values()),
        link_index,
    )
    labels = np.repeat(
        np.arange(len(components)), [len(component) for component in components]
    )
    layout = _Layout(
        table.demand,
        table.ptr,
        table.entry_link,
        np.arange(labels.size),
        labels,
        len(link_index),
    )
    cap = np.array([float(value) for value in capacities.values()])
    rates.update(zip(table.flow_ids, layout.fill(cap).tolist()))


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


class IncrementalMaxMin(Derived):
    """Stateful max-min re-solver over retained connected components.

    The flow set and the link capacities are both *incrementally
    maintained* inputs.  Between calls the engine keeps the component
    structure of the active flows (which component each flow and each
    link belongs to), the complete allocation, and the capacities that
    allocation was solved against.  The caller reports every flow that
    was added, removed, rerouted or re-demanded with :meth:`touch`; the
    next :meth:`solve` re-components the flows those changes reach,
    water-fills the components that result — plus, when capacities
    moved, the components owning a moved link — and leaves every other
    component's cached rates alone.  Because components share no
    links, a component's allocation is a pure, order-independent
    function of its own flows and capacities, so the result is exactly
    — bitwise — what ``max_min_allocation`` computes from scratch
    (``tests/unit/test_fairness_incremental.py`` proves this over
    seeded perturbation sequences, through pickling as well).

    The structure has two forms, and ``_BATCH_MIN_FLOWS`` on the active
    flow count — the kernel cutover — picks between them.

    *Below it*: ``_Component`` objects and two dicts (flow id -> its
    component, link -> its owner).  A solve pools the flows of every
    component the touched flows leave or whose links their new paths
    reach, re-runs :func:`_link_groups` on the pool — which is where
    merges (a bridging flow arrived) and splits (it left) fall out —
    and water-fills the replacements through each component's retained
    :class:`_Plan`.  While capacities have not moved, a touched flow
    that qualifies for slack admission (module docstring) skips all of
    that: an arrival joins its component, or a new one, at its grant,
    and a departure leaves, both with no water-fill.  The other
    touched flows of the solve still take that path, after the
    admissions, so an admitted flow whose component they reach is
    filled with it.  When capacities moved it visits every retained
    component (on instances that small nearly every capacity change
    touches every component) but re-fills only those its plan cannot
    certify (:meth:`_Plan.certify`): a component whose links all have
    room for its demands gets the plan's capacity-free rates instead,
    and is not even compared when that was already its answer.

    *At or above it*: two label columns over the caller's integer flow
    table (:class:`~repro.net.flows.FlowArrays`, or an
    :class:`_Incidence` the engine converts for itself when driven
    without one).  A component is named by its smallest link id;
    ``_link_comp[l]`` is the component owning link *l* (-1: none) and
    an active row's component is its first link's.  A link is
    *flow-dirtied* when a flow crossing it was added, removed or
    re-demanded; a component is re-grouped iff it owns a flow-dirtied
    link.  That is the same set the dict form dissolves: every piece a
    departing flow splits off was joined to the rest through a link of
    that flow, so it still owns one.  Re-grouping is
    :func:`_merge_links` over the released rows' entries.  A component
    is re-filled iff it owns a flow-dirtied link, or a moved link that
    is not slack: its capacity before or after the move is not above
    ``_slack_bound`` of its load (module docstring).  ``_load[l]`` is
    that load, written for every link a fill lays out.  The fill is one
    :class:`_Layout` gathered for the dirty components.  No Python loop
    visits a flow's links.

    Crossing the cutover converts one form into the other and nothing
    else: labels are a pure function of the table and rates live in
    ``_rates``, so neither direction water-fills or counts as a full
    solve.  The label columns and the loads are derived state — a
    checkpoint carries the pending dirty links, not the labels, and the
    first solve after a restore re-labels the table without filling
    anything.  Loads are re-derived from the held rates whenever the
    labels are built — a from-scratch solve, a conversion to the label
    form, a restore — so they never outlive the rates they sum, and a
    restored engine skips exactly the components the uninterrupted one
    does.

    A from-scratch solve (the first one, after :meth:`invalidate`, or
    when the capacity array changes shape) is the same path with every
    flow touched.

    *What a solve reports.*  ``changed`` is, in both forms, every
    touched flow still in the table plus every other flow whose rate
    moved: ``new != old`` (so a NaN rate always) or a zero whose sign
    flipped.  A touched flow's held rate is dropped before the fill, so
    whatever it is given reads as moved; every filled rate is compared
    with the held one — one vector compare over the layout in the label
    form — and only the moved ones are written.  A caller that keeps
    the rates elsewhere (the emulator's ``Flow.allocated_mbps``) writes
    back just those: every flow not reported already holds its rate,
    and it is the same float object as before.

    Flow rows are duck-typed (``flow_id`` / ``links`` /
    ``demand_mbps``) and held by reference: the emulator's mutable
    ``Flow`` records serve directly, so a row mutated in place must be
    reported with :meth:`touch` like any other change.

    Counters: ``full_solves`` counts from-scratch structure builds,
    ``partial_solves`` every other solve that water-filled at least
    one component, and ``components_resolved`` the components those
    partial solves water-filled (a certified component, or one whose
    moved links were all slack, was not).  An admission is not a fill:
    a solve whose every touched flow was admitted counts nothing.
    """

    DERIVED = {
        # Label form.  ``_table`` is the table the row columns are
        # aligned with; ``_rows`` its active rows sorted by component,
        # ``_labels`` their labels, ``_fids`` their flow ids and
        # ``_held`` their held rates (NaN: none); ``_load`` each link
        # id's load.
        "_link_comp": None, "_load": None, "_table": None,
        "_rows": _NO_ROWS, "_labels": _NO_ROWS, "_fids": _NO_ROWS,
        "_held": _NO_RATES,
    }

    def __init__(self) -> None:
        self._solved_caps: Optional[np.ndarray] = None
        self._rates: dict[Hashable, float] = {}
        #: Whether the structure is in its label form (see above).
        self._batched = False
        #: Dict form.  Active flow id -> its component; link -> the
        #: component owning it.  Values are the objects in
        #: ``_components``.
        self._components: list[_Component] = []
        self._member_of: dict[Hashable, _Component] = {}
        self._link_owner: dict[LinkKey, _Component] = {}
        forget(self)
        #: Label form: active rows and components, kept so a restored
        #: engine still reports.
        self._n_active = 0
        self._n_components = 0
        #: Flow ids reported since the last solve (each mapped to
        #: whether it was reported more than once), and (label form
        #: only) the links they crossed or cross — an ordered set.
        self._touched: dict[Hashable, bool] = {}
        self._touched_links: dict[LinkKey, None] = {}
        #: Observability counters (deterministic; surfaced as gauges).
        self.full_solves = 0
        self.partial_solves = 0
        self.components_resolved = 0

    @property
    def batched(self) -> bool:
        """Whether the last solve left at least ``_BATCH_MIN_FLOWS``
        active flows: the structure is label columns over a flow table,
        which is then worth handing to :meth:`solve`."""
        return self._batched

    @property
    def active_flows(self) -> int:
        return self._n_active if self._batched else len(self._member_of)

    @property
    def component_count(self) -> int:
        return self._n_components if self._batched else len(self._components)

    def touch(self, flow_id: Hashable, links: Iterable[LinkKey] = ()) -> None:
        """Report that a flow was added, removed, rerouted or re-demanded.

        ``links`` are the links it crossed before the change and
        crosses after it.  Only the label form needs them (a removed
        row has left the table by the next solve; the dict form finds
        the old component by flow id).
        """
        # The value records a repeat: a flow touched twice may have had
        # its held row edited in place before it left.
        self._touched[flow_id] = flow_id in self._touched
        if self._batched:
            self._touched_links.update(dict.fromkeys(links))

    def invalidate(self) -> None:
        """Drop all cached structure; the next call solves from scratch."""
        self._solved_caps = None

    def _settle(
        self,
        touched: Iterable[Hashable],
        granted: Mapping[Hashable, float],
        arrivals: Mapping[Hashable, FlowDemand],
    ) -> list[Hashable]:
        """Drop the held rates of the touched flows and grant the ones
        that need no water-filling (loopback, zero demand).

        ``granted`` and ``arrivals`` are what :func:`_partition_flows`
        made of the touched rows still in the table.  Returns the ids
        whose rate is thereby settled.
        """
        rates = self._rates
        for fid in touched:
            # Gone, granted below, or about to be filled: a touched flow
            # holds no rate, so whatever it is given reads as moved.
            rates.pop(fid, None)
        settled = [fid for fid in granted if fid not in arrivals]
        for fid in settled:
            rates[fid] = granted[fid]
        return settled

    # -- dict form --------------------------------------------------------

    def _restructure(
        self,
        flows: Mapping[Hashable, FlowDemand],
        touched: Iterable[Hashable],
        link_index: Mapping[LinkKey, int],
        solved_caps: Optional[np.ndarray] = None,
    ) -> tuple[list[_Component], list[Hashable]]:
        """Fold the touched flow ids into the component structure.

        With ``solved_caps`` — the capacities the held rates were solved
        against, unmoved since — the touched flows that qualify for
        slack admission are folded in first, with no water-fill.
        Returns the replacement components (appended to
        ``_components``, rates not yet filled) and the touched ids whose
        rate is settled without water-filling (admitted arrivals
        included).
        """
        member_of, link_owner = self._member_of, self._link_owner
        granted, arrivals = _partition_flows(
            [flows[fid] for fid in touched if fid in flows], link_index
        )
        admitted: list[Hashable] = []
        if solved_caps is not None:
            touched, admitted = self._admit(
                flows, touched, granted, arrivals, link_index, solved_caps
            )
        settled = self._settle(touched, granted, arrivals)
        if not touched:
            return [], admitted + settled
        dissolved: dict[int, _Component] = {}
        for fid in touched:
            old = member_of.pop(fid, None)
            if old is not None:
                dissolved[id(old)] = old
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
            self._adopt(component)
        if dissolved or fresh:
            self._components = [
                c for c in self._components if id(c) not in dissolved
            ] + fresh
        if admitted and dissolved:
            # An admitted flow whose component a later change dissolved
            # is filled with its new component, and reported there.
            refilled = {id(component) for component in fresh}
            kept = []
            for fid in admitted:
                if id(member_of[fid]) in refilled:
                    del self._rates[fid]
                else:
                    kept.append(fid)
            admitted = kept
        return fresh, admitted + settled

    def _admit(
        self,
        flows: Mapping[Hashable, FlowDemand],
        touched: Mapping[Hashable, bool],
        granted: dict[Hashable, float],
        arrivals: dict[Hashable, FlowDemand],
        link_index: Mapping[LinkKey, int],
        caps: np.ndarray,
    ) -> tuple[list[Hashable], list[Hashable]]:
        """Slack admission (module docstring), one touched flow at a
        time: an active arrival that joins at most one component, and a
        departure touched once (so its held row is the one its rate was
        solved with).  An admitted arrival leaves ``granted`` and
        ``arrivals``.

        Returns the touched ids left to the fill path, and the admitted
        arrivals.
        """
        member_of = self._member_of
        rest: list[Hashable] = []
        admitted: list[Hashable] = []
        for fid, again in touched.items():
            component = member_of.get(fid)
            flow = arrivals.get(fid)
            if flow is not None:
                if (
                    component is None
                    and not _use_batch(len(member_of) + 1)
                    and self._arrive(flow, link_index, caps)
                ):
                    del granted[fid], arrivals[fid]
                    admitted.append(fid)
                    continue
            elif component is not None and not again and fid not in flows:
                if self._depart(fid, component, link_index, caps):
                    continue
            rest.append(fid)
        return rest, admitted

    def _arrive(
        self, flow: FlowDemand, link_index: Mapping[LinkKey, int], caps: np.ndarray
    ) -> bool:
        """Admit ``flow`` if it joins at most one component ``C``, tops
        every demand in ``C`` by more than ``2 * epsilon`` and crosses
        only links that stay slack under ``C``'s held rates plus its
        grant ``r + (d - r)``; ``r`` is ``C``'s largest held rate."""
        link_owner, rates = self._link_owner, self._rates
        load = dict.fromkeys(flow.links, 0.0)
        host: Optional[_Component] = None
        for key in load:
            owner = link_owner.get(key)
            if owner is not None and owner is not host:
                if host is not None:
                    return False  # it would bridge two components
                host = owner
        top, held = -_INF, 0.0
        if host is not None:
            for fid, member in host.flows.items():
                rate = rates[fid]
                if member.demand_mbps > top:
                    top = member.demand_mbps
                if rate > held:
                    held = rate
                for key in member.links:
                    if key in load:
                        load[key] += rate
        demand = flow.demand_mbps
        grant = held + (demand - held)
        thresh = demand - _EPSILON
        if not (demand > top + 2 * _EPSILON and held < thresh <= grant):
            return False
        for key in flow.links:
            load[key] += grant
        for key, carried in load.items():
            if not caps[link_index[key]] > _slack_bound(carried):
                return False
        if host is None:
            host = _Component({}, [])
            self._components.append(host)
        host.plan = None
        host.flows[flow.flow_id] = flow
        self._member_of[flow.flow_id] = host
        for key in load:
            if key not in link_owner:
                host.links.append(key)
                link_owner[key] = host
        rates[flow.flow_id] = grant
        return True

    def _depart(
        self,
        fid: Hashable,
        component: _Component,
        link_index: Mapping[LinkKey, int],
        caps: np.ndarray,
    ) -> bool:
        """Drop the removed flow ``fid`` if ``component`` cannot split
        (the flow crosses one distinct link, or is its only member), it
        tops every other demand there by more than ``2 * epsilon``, and
        its links are slack under the held rates."""
        flow = component.flows[fid]
        load = dict.fromkeys(flow.links, 0.0)
        if len(load) > 1 and len(component.flows) > 1:
            return False
        rates = self._rates
        top = -_INF
        shared: set[LinkKey] = set()
        for mid, member in component.flows.items():
            rate = rates[mid]
            if mid != fid and member.demand_mbps > top:
                top = member.demand_mbps
            for key in member.links:
                if key in load:
                    load[key] += rate
                    if mid != fid:
                        shared.add(key)
        if not flow.demand_mbps > top + 2 * _EPSILON:
            return False
        for key, carried in load.items():
            if not caps[link_index[key]] > _slack_bound(carried):
                return False
        del component.flows[fid], self._member_of[fid], rates[fid]
        link_owner = self._link_owner
        if not component.flows:
            self._components.remove(component)
            for key in component.links:
                del link_owner[key]
            return True
        component.plan = None
        for key in load:
            if key not in shared:
                component.links.remove(key)
                del link_owner[key]
        return True

    def _adopt(self, component: _Component) -> None:
        for fid in component.flows:
            self._member_of[fid] = component
        for key in component.links:
            self._link_owner[key] = component

    def _to_labels(
        self, fresh: list[_Component], link_index: Mapping[LinkKey, int]
    ) -> np.ndarray:
        """Dict form -> label form; returns the labels of ``fresh``
        (the tail of ``_components``)."""
        link_comp = np.full(len(link_index), -1, dtype=np.intp)
        labels = []
        for component in self._components:
            ids = [link_index[key] for key in component.links]
            labels.append(min(ids))
            link_comp[ids] = labels[-1]
        self._components, self._member_of, self._link_owner = [], {}, {}
        self._link_comp = link_comp
        self._batched = True
        return np.array(labels[len(labels) - len(fresh):], dtype=np.intp)

    # -- label form -------------------------------------------------------

    def _release(self, dirty_links: np.ndarray) -> None:
        """Dissolve the components owning any of ``dirty_links``."""
        link_comp = self._link_comp
        owners = link_comp[dirty_links]
        owners = owners[owners >= 0]
        if owners.size:
            gone = np.zeros(link_comp.size + 1, dtype=bool)  # [-1]: unowned
            gone[owners] = True
            link_comp[gone[link_comp]] = -1

    def _align(self, table) -> np.ndarray:
        """Line the row columns up with ``table`` and group the active
        rows no component owns (new, or released).

        Returns the label of each row so grouped — the components so
        formed, repeated — rates not yet filled.
        """
        link_comp = self._link_comp
        ptr, entry_link = table.ptr, table.entry_link
        starts = ptr[:-1]
        rows = ((table.demand > _EPSILON) & (ptr[1:] > starts)).nonzero()[0]
        labels = link_comp[entry_link[starts[rows]]]
        pool = (labels < 0).nonzero()[0]
        fresh = pool
        if pool.size:
            lens, index = _entry_runs(ptr, rows[pool])
            crossed = entry_link[index]
            label_of, _ = _merge_links(crossed, lens, link_comp.size)
            grouped = label_of[crossed]
            link_comp[crossed] = grouped
            fresh = labels[pool] = grouped[np.cumsum(lens) - lens]
        order = np.argsort(labels, kind="stable")
        self._table = table
        self._rows, self._labels = rows[order], labels[order]
        flow_ids = table.flow_ids
        self._fids = np.fromiter(flow_ids, dtype=object, count=len(flow_ids))[
            self._rows
        ]
        self._held = np.fromiter(
            map(self._rates.get, self._fids.tolist(), repeat(np.nan)),
            dtype=np.float64,
            count=self._fids.size,
        )
        self._n_active = rows.size
        self._n_components = int(
            np.count_nonzero(link_comp == np.arange(link_comp.size))
        )
        return fresh

    def _derive_loads(self) -> None:
        """Each link's load from the held rates of the rows just
        aligned; NaN where a row holds none yet (it is about to be
        filled).  Bit for bit what the fills that produced those rates
        wrote: the same sums over the same rows in the same order, a
        component's rows being in table order."""
        table = self._table
        lens, index = _entry_runs(table.ptr, self._rows)
        self._load = np.bincount(
            table.entry_link[index],
            weights=np.repeat(self._held, lens),
            minlength=self._link_comp.size,
        )

    def _to_components(
        self, fresh: np.ndarray, flows: Mapping[Hashable, FlowDemand]
    ) -> list[_Component]:
        """Label form -> dict form; returns the components of the
        ``fresh`` labels."""
        by_label: dict[int, _Component] = {}
        for fid, label in zip(self._fids.tolist(), self._labels.tolist()):
            component = by_label.get(label)
            if component is None:
                component = by_label[label] = _Component({}, [])
            component.flows[fid] = flows[fid]
        for component in by_label.values():
            component.links = list(
                dict.fromkeys(
                    key for flow in component.flows.values() for key in flow.links
                )
            )
            self._adopt(component)
        self._components = list(by_label.values())
        forget(self)
        self._batched = False
        return [by_label[label] for label in dict.fromkeys(fresh.tolist())]

    def _relabel(
        self,
        flows: Mapping[Hashable, FlowDemand],
        touched: Iterable[Hashable],
        link_index: Mapping[LinkKey, int],
        table,
        scratch: bool,
    ) -> tuple[np.ndarray, list[Hashable]]:
        """Fold the touched flows into the label columns.

        Returns the labels of the re-grouped components (rates not yet
        filled) and the touched ids whose rate is settled without
        water-filling.
        """
        fresh, settled = _NO_ROWS, []
        if touched:
            granted, arrivals = _partition_flows(
                [flows[fid] for fid in touched if fid in flows], link_index
            )
            settled = self._settle(touched, granted, arrivals)
        if self._link_comp is None:
            # From scratch, or restored: label the whole table — and,
            # when restored, fill none of it.
            self._link_comp = np.full(len(link_index), -1, dtype=np.intp)
            everything = self._align(table)
            self._derive_loads()
            if scratch:
                return everything, settled
        elif table is not self._table and not touched:
            self._align(table)
        if touched:
            self._release(
                np.fromiter(
                    map(link_index.__getitem__, self._touched_links),
                    dtype=np.intp,
                    count=len(self._touched_links),
                )
            )
            fresh = self._align(table)
        return fresh, settled

    def _bind(self, flows, link_index, table, rows_changed: bool):
        """The integer table to read: the caller's, or one converted
        here — again whenever the rows changed."""
        if table is None:
            table = self._table
            if table is None or rows_changed:
                table = _Incidence(flows.values(), link_index)
        return table

    def solve(
        self,
        flows: Mapping[Hashable, FlowDemand],
        link_index: Mapping[LinkKey, int],
        cap_values: np.ndarray,
        table=None,
    ) -> tuple[dict[Hashable, float], list[Hashable]]:
        """(Re-)solve against the current flow table and capacity array.

        Args:
            flows: the full flow table, id -> row (consulted for the
                touched ids only, or entirely when solving from
                scratch).
            link_index: link key -> position in ``cap_values``.
            cap_values: current per-link capacities (not aliased; a
                private copy is kept as the solved-state snapshot).
            table: ``flows`` as an integer table (``flow_ids`` /
                ``demand`` / ``ptr`` / ``entry_link``, link ids being
                ``link_index`` values), when the caller keeps one.
                Only read in the label form; without it the engine
                converts ``flows`` itself whenever they changed.

        Returns:
            ``(rates, changed)`` — the complete allocation (owned by
            the engine; treat as read-only) and, each once, the ids of
            the touched flows still in ``flows`` plus those of every
            other flow whose rate this call moved (``!=``, or a zero of
            the other sign).  A rate re-filled to the same value is not
            reported unless its flow was touched.
        """
        scratch = (
            self._solved_caps is None
            or self._solved_caps.shape != cap_values.shape
        )
        if scratch:
            self._rates = {}
            self._components, self._member_of, self._link_owner = [], {}, {}
            self._link_comp = self._load = self._table = None
            touched: Iterable[Hashable] = flows
            caps_moved = True
        else:
            touched = self._touched
            solved_caps = self._solved_caps
            moved = solved_caps != cap_values
            caps_moved = bool(moved.any())
            if not touched and not caps_moved:
                return self._rates, []
        # The re-grouped components: labels, or ``_Component`` objects.
        fresh: Sequence = []
        changed: list[Hashable] = []
        if self._batched:
            table = self._bind(flows, link_index, table, bool(touched))
            fresh, changed = self._relabel(
                flows, touched, link_index, table, scratch
            )
            if not _use_batch(self._n_active):
                fresh = self._to_components(fresh, flows)
        elif scratch or touched:
            fresh, changed = self._restructure(
                flows, touched, link_index, None if caps_moved else solved_caps
            )
            if _use_batch(len(self._member_of)):
                table = self._bind(flows, link_index, table, True)
                fresh = self._to_labels(fresh, link_index)
                self._align(table)
                self._derive_loads()
        if scratch or touched:
            self._touched, self._touched_links = {}, {}
        if caps_moved:
            self._solved_caps = cap_values.copy()
        rates = self._rates
        if self._batched:
            dirty = np.zeros(cap_values.size + 1, dtype=bool)  # [-1]: unowned
            dirty[fresh] = True
            if caps_moved and not scratch:
                moved = moved.nonzero()[0]
                bound = _slack_bound(self._load[moved])
                slack = (solved_caps[moved] > bound) & (cap_values[moved] > bound)
                dirty[self._link_comp[moved[~slack]]] = True
                dirty[-1] = False
            picked = dirty[self._labels]
            rows = self._rows[picked]
            resolved = 0
            if rows.size:
                layout = _Layout(
                    table.demand,
                    table.ptr,
                    table.entry_link,
                    rows,
                    self._labels[picked],
                    cap_values.size,
                )
                filled = layout.fill(cap_values, self._load)
                held = self._held[picked]
                moved = filled != held
                moved |= np.signbit(filled) != np.signbit(held)
                self._held[picked] = filled
                moved = moved.nonzero()[0]
                ids = self._fids[picked][moved].tolist()
                rates.update(zip(ids, filled[moved].tolist()))
                changed += ids
                resolved = layout.n_components
        else:
            caps = cap_values.tolist()
            visit, new = fresh, None
            if caps_moved and not scratch:
                # Every component is visited; the ones not just formed
                # are retained, and may be certified instead of filled.
                visit, new = self._components, {id(c) for c in fresh}
            certified = 0
            for component in visit:
                plan = component.plan
                if plan is None:
                    plan = component.plan = _Plan(component.flows)
                    component.cap_pos = [link_index[key] for key in plan.links]
                local = [caps[pos] for pos in component.cap_pos]
                if new is not None and id(component) not in new:
                    if plan.certify(local):
                        certified += 1
                        if not plan.gave_free:
                            plan.gave_free = True
                            _write_moved(rates, plan.flow_ids, plan.free, changed)
                        continue
                    plan.gave_free = False
                _write_moved(rates, plan.flow_ids, plan.fill(local), changed)
            resolved = len(visit) - certified
        if scratch:
            self.full_solves += 1
        elif resolved:
            self.partial_solves += 1
            self.components_resolved += resolved
        return rates, changed
