"""Flow records tracked by the network emulator.

:class:`Flow` is the object API — one record per registered flow.
:class:`FlowArrays` is the integer flow table: the whole flow set as
flat arrays in registration order, with the flow x link incidence in
COO form.  The emulator's tick reads it — per-link offered load and
per-tag traffic accounting are two ``np.bincount`` calls whose
sequential accumulation visits flows in registration order, the same
float additions in the same order as the scalar loops they replace —
and so does the max-min solver, whose array path takes its structure
and its water-fill layout from the same columns.  It is built from
scratch once (and after a restore) and from then on maintained by
delta: :meth:`FlowArrays.update` drops the rows of flows that left,
patches re-demanded ones and appends the arrivals, for the cost of the
rows that changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Optional

import numpy as np

from .fairness import LinkKey


@dataclass
class Flow:
    """A fluid traffic flow between two mesh nodes.

    Attributes:
        flow_id: unique identifier within the emulator.
        src: source node name.
        dst: destination node name.
        demand_mbps: current offered load.
        path: node path the flow is routed on (from traceroute).
        links: directed link keys derived from ``path``.
        tag: origin label — ``"app"`` for application traffic,
            ``"probe"`` for net-monitor probes — used when accounting
            monitoring overhead (§6.3.4).
        allocated_mbps: rate granted by the last max-min computation.
    """

    flow_id: str
    src: str
    dst: str
    demand_mbps: float
    path: tuple[str, ...] = ()
    links: tuple[LinkKey, ...] = ()
    tag: str = "app"
    allocated_mbps: float = 0.0

    @property
    def colocated(self) -> bool:
        """True when src and dst are the same node (loopback traffic)."""
        return self.src == self.dst

    @property
    def goodput_fraction(self) -> float:
        """Achieved / offered rate — the paper's goodput signal (§3.2.2)."""
        if self.demand_mbps <= 0:
            return 1.0
        return min(1.0, self.allocated_mbps / self.demand_mbps)


class FlowArrays:
    """Flat arrays over a flow table, in registration order.

    Attributes:
        flow_ids: flow id per row (row = registration order).
        demand: offered load per flow.
        hops: path length (number of directed links) per flow, as the
            float the tag accounting multiplies by.
        ptr: entry-run starts — row *i* owns entries
            ``ptr[i]:ptr[i + 1]`` (the integer form of ``hops``).
        tags: distinct tags in first-appearance order.
        tag_codes: index into ``tags`` per flow.
        entry_flow / entry_link: the flow x link incidence in COO form,
            flow-major — entry *j* says "flow ``entry_flow[j]`` crosses
            directed link ``entry_link[j]``".  Flow-major entry order is
            what makes the bincounts below bit-identical to the scalar
            accounting loops: ``np.bincount`` accumulates weights
            sequentially in entry order, so each link's (and tag's)
            partial sums are added in exactly the order the object loop
            added them.

    The constructor builds the table from scratch; :meth:`update`
    brings a built table up to date with the flows that changed.
    """

    __slots__ = (
        "flow_ids",
        "demand",
        "hops",
        "ptr",
        "tags",
        "tag_codes",
        "entry_flow",
        "entry_link",
        "_flows",
        "_links",
        "_serials",
        "_serial_of",
        "_offered",
        "_tag_sums",
    )

    def __init__(
        self,
        flows: Mapping[str, Flow],
        link_index: Mapping[LinkKey, int],
    ) -> None:
        self.flow_ids: list[str] = list(flows)
        #: The ``Flow`` and the ``links`` tuple each row was read from:
        #: how :meth:`update` tells a surviving row from a replaced one
        #: and from one re-pathed in place.
        self._flows: list[Flow] = list(flows.values())
        self._links: list[tuple[LinkKey, ...]] = []
        demand: list[float] = []
        hops: list[int] = []
        codes: list[int] = []
        tag_pos: dict[str, int] = {}
        entry_link: list[int] = []
        link_id = link_index.__getitem__
        for flow in self._flows:
            demand.append(flow.demand_mbps)
            links = flow.links
            self._links.append(links)
            hops.append(len(links))
            code = tag_pos.get(flow.tag)
            if code is None:
                code = tag_pos[flow.tag] = len(tag_pos)
            codes.append(code)
            entry_link.extend(map(link_id, links))
        self.tags = list(tag_pos)
        self.demand = np.array(demand, dtype=float)
        self.tag_codes = np.array(codes, dtype=np.intp)
        self.entry_link = np.array(entry_link, dtype=np.intp)
        self._set_runs(np.array(hops, dtype=np.intp))
        #: Row lookup for :meth:`update`, built on its first call: a
        #: serial number per flow id, ascending down the rows.
        self._serials: Optional[np.ndarray] = None
        self._serial_of: dict[str, int] = {}
        #: :meth:`offered_mbps` and the per-tag sums of
        #: :meth:`accumulate_offered_by_tag` (keyed by ``tick_s``), kept
        #: until :meth:`update` next touches the table.  Both stay keyed
        #: by their argument although the emulator always passes the same
        #: ``tick_s`` and link count: its table is shared
        #: (``NetworkEmulator._current_flow_arrays``), and a reader with
        #: another tick length or link count must not leave the tick a
        #: memo of the wrong shape or scale.
        self._offered: Optional[np.ndarray] = None
        self._tag_sums: Optional[tuple[float, list[tuple[str, float]]]] = None

    def _set_runs(self, lens: np.ndarray) -> None:
        """Derive ``hops`` / ``ptr`` / ``entry_flow`` from run lengths."""
        self.hops = lens.astype(float)
        self.ptr = np.zeros(lens.size + 1, dtype=np.intp)
        np.cumsum(lens, out=self.ptr[1:])
        self.entry_flow = np.repeat(np.arange(lens.size), lens)

    def update(
        self,
        flows: Mapping[str, Flow],
        link_index: Mapping[LinkKey, int],
        touched: Iterable[str],
    ) -> None:
        """Bring the table up to date with ``flows``.

        Args:
            flows: the flow table now.
            link_index: as given to the constructor.
            touched: every flow id added, removed, replaced, re-pathed
                or re-demanded since the table was last current.

        Leaves the table equal — every column, element for element —
        to ``FlowArrays(flows, link_index)``, for the cost of the rows
        that changed.  Registration order falls out of dict order: a
        row survives iff its id still maps to the ``Flow`` it was read
        from (a removed-and-re-added id is a new ``Flow``), survivors
        keep their relative order, and everything added since is the
        tail of ``flows``.  A ``Flow`` re-pathed in place keeps its
        position with other entries, which dropping and appending
        cannot express; that (and a row count ``touched`` does not
        account for) rebuilds.
        """
        self._offered = self._tag_sums = None
        if self._serials is None:
            self._serials = np.arange(len(self.flow_ids))
            self._serial_of = dict(zip(self.flow_ids, range(len(self.flow_ids))))
        serial_of = self._serial_of
        known = [fid for fid in touched if fid in serial_of]
        dropped: list[int] = []
        if known:
            rows = np.searchsorted(
                self._serials, [serial_of[fid] for fid in known]
            ).tolist()
            for fid, row in zip(known, rows):
                flow = flows.get(fid)
                if flow is not self._flows[row]:
                    dropped.append(row)
                    del serial_of[fid]
                elif flow.links is not self._links[row]:
                    return self.__init__(flows, link_index)
                else:
                    self.demand[row] = flow.demand_mbps
        arrived = len(flows) - (len(self.flow_ids) - len(dropped))
        if arrived != sum(
            fid in flows and fid not in serial_of for fid in touched
        ):
            return self.__init__(flows, link_index)  # not all was reported
        if not dropped and not arrived:
            return
        tail = list(islice(reversed(flows.values()), arrived))
        tail.reverse()
        lens = np.diff(self.ptr)
        demand, codes, entry_link = self.demand, self.tag_codes, self.entry_link
        serials = self._serials
        if dropped:
            keep = np.ones(lens.size, dtype=bool)
            keep[dropped] = False
            entry_link = entry_link[np.repeat(keep, lens)]
            demand, codes, lens = demand[keep], codes[keep], lens[keep]
            serials = serials[keep]
            dropped.sort(reverse=True)
            for column in (self.flow_ids, self._flows, self._links):
                for row in dropped:
                    del column[row]
        tags = list(self.tags)
        if tail:
            tag_pos = {tag: code for code, tag in enumerate(tags)}
            next_serial = int(self._serials[-1]) + 1 if self._serials.size else 0
            new_codes: list[int] = []
            new_links: list[int] = []
            link_id = link_index.__getitem__
            for flow in tail:
                if flow.flow_id in serial_of:
                    return self.__init__(flows, link_index)
                serial_of[flow.flow_id] = next_serial + len(new_codes)
                code = tag_pos.get(flow.tag)
                if code is None:
                    code = tag_pos[flow.tag] = len(tag_pos)
                new_codes.append(code)
                new_links.extend(map(link_id, flow.links))
            tags = list(tag_pos)
            self.flow_ids += [flow.flow_id for flow in tail]
            self._flows += tail
            self._links += [flow.links for flow in tail]
            demand = np.concatenate((demand, [flow.demand_mbps for flow in tail]))
            codes = np.concatenate((codes, np.array(new_codes, dtype=np.intp)))
            lens = np.concatenate(
                (lens, np.array([len(flow.links) for flow in tail], dtype=np.intp))
            )
            entry_link = np.concatenate(
                (entry_link, np.array(new_links, dtype=np.intp))
            )
            serials = np.concatenate(
                (serials, np.arange(next_serial, next_serial + arrived))
            )
        self.demand, self.entry_link, self._serials = demand, entry_link, serials
        self._set_runs(lens)
        # Tags in first-appearance order over the rows as they are now.
        firsts = sorted(
            (int((codes == code).argmax()), code)
            for code in np.bincount(codes).nonzero()[0].tolist()
        )
        order = [code for _, code in firsts]
        if order != list(range(len(tags))):
            renumber = np.zeros(len(tags), dtype=np.intp)
            renumber[order] = np.arange(len(order))
            codes = renumber[codes]
            tags = [tags[code] for code in order]
        self.tags, self.tag_codes = tags, codes

    def offered_mbps(self, n_links: int) -> np.ndarray:
        """Offered demand per directed link (sum over crossing flows).

        A pure function of the table, so it is computed once per table
        state; the returned array is shared and read-only.
        """
        offered = self._offered
        if offered is None or offered.size != n_links:
            if self.entry_link.size == 0:
                offered = np.zeros(n_links, dtype=float)
            else:
                offered = np.bincount(
                    self.entry_link,
                    weights=self.demand[self.entry_flow],
                    minlength=n_links,
                )
            offered.flags.writeable = False
            self._offered = offered
        return offered

    def accumulate_offered_by_tag(
        self, tick_s: float, accumulator: dict[str, float]
    ) -> None:
        """Add one tick's link-traversal megabits per tag.

        Mirrors the scalar accounting ``demand * tick_s * hops`` per
        flow; a tag present in the flow set always gets (or keeps) a
        key, even when its flows currently traverse zero links.  The
        per-tag sums are computed once per table state and ``tick_s``.
        """
        if not self.tags:
            return
        memo = self._tag_sums
        if memo is None or memo[0] != tick_s:
            terms = self.demand * tick_s * self.hops
            sums = np.bincount(
                self.tag_codes, weights=terms, minlength=len(self.tags)
            )
            memo = self._tag_sums = (tick_s, list(zip(self.tags, sums.tolist())))
        for tag, value in memo[1]:
            accumulator[tag] = accumulator.get(tag, 0.0) + value
