"""The BASS net-monitor (§4.2).

Gathers bandwidth information with two probing modes:

* **Max-capacity probing** — flood a link to learn its full capacity.
  Done once at startup for every link; results are *cached* and served
  to the scheduler and controller until a new full probe is requested.
  The cache is what makes Fig 8's timeline interesting: after a capacity
  drop the controller acts on stale capacity until the full probe
  completes.
* **Headroom probing** — inject a small amount of traffic (10 % of the
  cached capacity for 1 s) to check whether a required amount of spare
  capacity exists, without flooding.

Probe traffic is injected into the network emulator as real flows
tagged ``"probe"``, so the overhead figures of §6.3.4 (0.3 % of link
traffic for headroom probing) come out of the same accounting as
application traffic.

The probe itself is fixed by §4.2 (:data:`HEADROOM_PROBE_FRACTION` of
the cached capacity for :data:`PROBE_DURATION_S`); only the probing
interval varies (``ProbeConfig.headroom_interval_s``), and the
controller, not the monitor, reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from ..errors import RoutingError
from ..net.netem import NetworkEmulator
from ..obs.trace import TracerBase, resolve_tracer

#: How long one probe's traffic stays on the link (§4.2: 1 s).
PROBE_DURATION_S = 1.0
#: Share of the cached link capacity a headroom probe injects (§4.2: 10 %).
HEADROOM_PROBE_FRACTION = 0.10
#: Minimum spacing between max-capacity probes of one link, so a
#: flapping link is not flooded repeatedly.
FULL_PROBE_COOLDOWN_S = 60.0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe."""

    kind: str  # "full" | "headroom"
    src: str
    dst: str
    time: float
    capacity_mbps: float
    available_mbps: float
    headroom_ok: Optional[bool] = None


@dataclass
class MonitorCaches:
    """Probe caches shared between a fleet monitor and its region views.

    Link *capacity* is a physical fact, so the capacity cache and the
    full-probe cooldown clock are keyed on the directed link and shared
    fleet-wide: a region that full-probed a link spares every other
    view the flood.  Probe-event provenance is an observation made by
    one control loop, so it is keyed on ``(region, src, dst)`` — a
    region-scoped view never cites another region's probe, and the
    fleet-wide monitor (region ``""``) keeps its own namespace.
    """

    capacity: dict[tuple[str, str], float] = field(default_factory=dict)
    capacity_time: dict[tuple[str, str], float] = field(default_factory=dict)
    last_full_probe: dict[tuple[str, str], float] = field(default_factory=dict)
    probe_event_ids: dict[tuple[str, str, str], int] = field(
        default_factory=dict
    )


class NetMonitor:
    """Per-mesh bandwidth monitor with capacity caching.

    Args:
        netem: the network emulator to probe and account against.
        region: label of the region this monitor serves; the empty
            string is the fleet-wide (unscoped) monitor.  Region labels
            namespace probe-event provenance, never the capacity cache.
        scope: restrict probing to links with *both* endpoints in this
            node set (None = the whole mesh).  Startup floods and
            path-link enumeration stay inside the scope, so a region
            view never injects cross-region probe traffic.
        caches: share probe caches with another monitor (used by
            :meth:`region_view`); defaults to a private set.
    """

    def __init__(
        self,
        netem: NetworkEmulator,
        *,
        tracer: Optional[TracerBase] = None,
        region: str = "",
        scope: Optional[Iterable[str]] = None,
        caches: Optional[MonitorCaches] = None,
    ) -> None:
        self.netem = netem
        self.tracer = resolve_tracer(tracer)
        self.region = region
        self.scope: Optional[frozenset[str]] = (
            frozenset(scope) if scope is not None else None
        )
        self._caches = caches if caches is not None else MonitorCaches()
        self._capacity_cache = self._caches.capacity
        self._cache_time = self._caches.capacity_time
        self._last_full_probe = self._caches.last_full_probe
        #: Flight-recorder id of the last probe event per (region, link),
        #: so downstream decisions (violations) can cite the measurement
        #: that triggered them; views of different regions never alias
        #: each other's entries.
        self._probe_event_ids = self._caches.probe_event_ids
        self.full_probe_count = 0
        self.headroom_probe_count = 0
        self.probe_log: list[ProbeResult] = []

    def region_view(
        self, region: str, nodes: Iterable[str]
    ) -> "NetMonitor":
        """A region-scoped view sharing this monitor's probe caches.

        The view probes only links inside ``nodes``, keeps its own
        probe counters (per-region overhead accounting), and namespaces
        its probe-event ids under ``region`` while sharing the fleet's
        capacity cache and full-probe cooldowns.
        """
        return NetMonitor(
            self.netem,
            tracer=self.tracer,
            region=region,
            scope=nodes,
            caches=self._caches,
        )

    def in_scope(self, src: str, dst: str) -> bool:
        """Whether a directed link lies inside this monitor's scope."""
        return self.scope is None or (
            src in self.scope and dst in self.scope
        )

    # -- probe traffic injection ---------------------------------------------

    def _inject_probe_traffic(self, src: str, dst: str, rate_mbps: float) -> None:
        """Add a short-lived probe flow so overhead is accounted."""
        if rate_mbps <= 0 or src == dst:
            return
        flow_id = self.netem.next_flow_id("__probe")
        self.netem.add_flow(flow_id, src, dst, rate_mbps, tag="probe")
        self.netem.engine.schedule_in(
            PROBE_DURATION_S,
            partial(self.netem.remove_flow, flow_id),
        )

    # -- max-capacity probing --------------------------------------------------

    def full_probe(self, src: str, dst: str) -> ProbeResult:
        """Flood the direct link ``src -> dst`` to learn its capacity.

        The measured value replaces the cache entry.  Respecting
        :data:`FULL_PROBE_COOLDOWN_S` is the *caller's* job (the controller
        checks :meth:`full_probe_allowed`); calling this directly always
        probes.
        """
        capacity = self.netem.capacity(src, dst)
        self._inject_probe_traffic(src, dst, capacity)
        key = (src, dst)
        now = self.netem.now
        self._capacity_cache[key] = capacity
        self._cache_time[key] = now
        self._last_full_probe[key] = now
        self.full_probe_count += 1
        result = ProbeResult(
            kind="full",
            src=src,
            dst=dst,
            time=now,
            capacity_mbps=capacity,
            available_mbps=self.netem.available_bandwidth(src, dst),
        )
        self.probe_log.append(result)
        if self.tracer.enabled:
            self._probe_event_ids[(self.region, src, dst)] = self.tracer.emit(
                "probe.max_capacity",
                now,
                src=src,
                dst=dst,
                capacity_mbps=result.capacity_mbps,
                available_mbps=result.available_mbps,
            )
        return result

    def full_probe_allowed(self, src: str, dst: str) -> bool:
        """Whether the per-link full-probe cooldown has elapsed."""
        last = self._last_full_probe.get((src, dst))
        if last is None:
            return True
        return self.netem.now - last >= FULL_PROBE_COOLDOWN_S

    def probe_all_links(self) -> int:
        """Startup round: max-capacity probe of every directed link (§4.2).

        Honours the per-link :data:`FULL_PROBE_COOLDOWN_S`: links this
        monitor full-probed within the cooldown are *not* re-flooded, so
        on a shared fleet monitor, deploying a second application moments
        after the first triggers no duplicate startup flood.

        Returns:
            The number of links actually probed.
        """
        probed = 0
        for src, dst, _ in self.netem.topology.iter_directed_links():
            if not self.in_scope(src, dst):
                continue  # region views never flood another region
            if self.full_probe_allowed(src, dst):
                self.full_probe(src, dst)
                probed += 1
        return probed

    # -- headroom probing ----------------------------------------------------------

    def headroom_probe(
        self, src: str, dst: str, headroom_mbps: float
    ) -> ProbeResult:
        """Check that ``headroom_mbps`` of spare capacity exists on the
        direct link, injecting only a small probe (never a flood).

        Every request probes.  The probe is sized from the link's cached
        capacity, read live only for a link never full-probed.
        """
        cached = self.cached_capacity(src, dst)
        probe_rate = min(cached * HEADROOM_PROBE_FRACTION, headroom_mbps)
        self._inject_probe_traffic(src, dst, probe_rate)
        available = self.netem.available_bandwidth(src, dst)
        self.headroom_probe_count += 1
        result = ProbeResult(
            kind="headroom",
            src=src,
            dst=dst,
            time=self.netem.now,
            capacity_mbps=cached,
            available_mbps=available,
            headroom_ok=available >= headroom_mbps,
        )
        self.probe_log.append(result)
        if self.tracer.enabled:
            self._probe_event_ids[(self.region, src, dst)] = self.tracer.emit(
                "probe.headroom",
                result.time,
                src=src,
                dst=dst,
                capacity_mbps=cached,
                available_mbps=available,
                required_mbps=headroom_mbps,
                headroom_ok=result.headroom_ok,
            )
        return result

    def probe_event_id(self, src: str, dst: str) -> Optional[int]:
        """Trace-event id of the link's most recent probe *by this
        monitor's region* (None when the link was never probed under an
        enabled tracer)."""
        return self._probe_event_ids.get((self.region, src, dst))

    # -- cached views (what the scheduler/controller believe) ---------------------

    def cached_capacity(self, src: str, dst: str) -> float:
        """Last full-probe capacity of the direct link (or live value if
        the link was never probed)."""
        key = (src, dst)
        if key in self._capacity_cache:
            return self._capacity_cache[key]
        return self.netem.capacity(src, dst)

    def cache_age(self, src: str, dst: str) -> float:
        """Seconds since the link's capacity was last full-probed."""
        key = (src, dst)
        if key not in self._cache_time:
            return float("inf")
        return self.netem.now - self._cache_time[key]

    # -- passive measurement ----------------------------------------------------------

    def goodput(self, flow_id: str) -> float:
        """Achieved/offered fraction for an application flow (§3.2.2)."""
        if not self.netem.has_flow(flow_id):
            return 1.0
        return self.netem.flow(flow_id).goodput_fraction

    # -- overhead accounting (§6.3.4) ----------------------------------------------------

    def probe_events_per_hour(self) -> float:
        """Probe events (full + headroom) per simulated hour so far."""
        if self.netem.now <= 0:
            return 0.0
        return len(self.probe_log) * 3600.0 / self.netem.now

    def probe_overhead_fraction(self) -> float:
        """Probe traffic as a fraction of all traffic carried so far."""
        by_tag = self.netem.offered_mbit_by_tag()
        probe = by_tag.get("probe", 0.0)
        total = sum(by_tag.values())
        if total <= 0:
            return 0.0
        return probe / total

    def links_of_path(self, src: str, dst: str) -> list[tuple[str, str]]:
        """Directed link keys along the route (for per-link probing).

        An unroutable pair (crashed node, partition) has no links to
        probe — probing requires a path to send traffic over.
        """
        try:
            path = self.netem.router.traceroute(src, dst)
        except RoutingError:
            return []
        if len(path) == 1:
            return []
        links = list(zip(path, path[1:]))
        if self.scope is None:
            return links
        # A region view only probes the links it owns; segments of a
        # path that cross into another region are that region's to
        # observe.
        return [(a, b) for a, b in links if self.in_scope(a, b)]
