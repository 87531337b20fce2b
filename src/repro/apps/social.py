"""A DeathStarBench-like social network of 27 microservices.

"A collection of 27 microservices, consisting of front end servers,
backend services, caches, and databases ... predominantly performs RPC
calls" (§6.1).  The end-to-end latency of a request depends on which
service pairs are co-located: "complex patterns of interaction between
the component microservices can induce bandwidth dependence".

The service graph mirrors DeathStarBench's socialNetwork: an nginx
frontend fans out to read (home-timeline, user-timeline) and write
(compose-post) paths; each stateful service has its cache (memcached /
redis) and store (mongodb); writes propagate to followers' home
timelines through a rabbitmq-fed fan-out service.

Three request types drive the traffic, with DeathStarBench's default
read-heavy mix:

* ``read_home_timeline`` (60 %), ``read_user_timeline`` (30 %),
  ``compose_post`` (10 %).

Each type is a sequential chain of RPC steps (src, dst, payload, service
time).  A request's latency is the sum over its steps of service time
plus — when the two services sit on different nodes — the payload's
transfer time and the path's propagation + queueing delay.  Edge
*demand* in Mbps is the per-request bytes on that edge times the offered
request rate, so throttling a link under a hot edge first saturates it,
then grows its queue — producing the order-of-magnitude latency
inflation of Fig 5.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.binding import Crossing, DeploymentBinding, EdgeCosts
from ..core.dag import Component, ComponentDAG
from ..errors import ConfigError
from ..sim.derived import Derived, forget
from .base import Application

# -- service inventory (27 components) -------------------------------------

#: (name, cpu cores, memory MiB) for every microservice.  CPU totals
#: ~11.9 cores so the whole application fits the paper's smallest
#: cluster (four 4-core d710 machines, §6.2.2).
SERVICES: list[tuple[str, float, float]] = [
    ("nginx-frontend", 1.0, 512),
    ("compose-post-service", 0.5, 512),
    ("text-service", 0.5, 256),
    ("unique-id-service", 0.25, 128),
    ("media-service", 0.5, 512),
    ("user-service", 0.5, 256),
    ("url-shorten-service", 0.25, 256),
    ("user-mention-service", 0.25, 256),
    ("post-storage-service", 0.75, 512),
    ("post-storage-memcached", 0.25, 512),
    ("post-storage-mongodb", 0.5, 1024),
    ("user-timeline-service", 0.75, 512),
    ("user-timeline-redis", 0.25, 512),
    ("user-timeline-mongodb", 0.5, 1024),
    ("home-timeline-service", 0.75, 512),
    ("home-timeline-redis", 0.25, 512),
    ("social-graph-service", 0.5, 256),
    ("social-graph-redis", 0.25, 512),
    ("social-graph-mongodb", 0.5, 1024),
    ("write-home-timeline-service", 0.5, 256),
    ("write-home-timeline-rabbitmq", 0.25, 512),
    ("user-memcached", 0.25, 512),
    ("user-mongodb", 0.5, 1024),
    ("media-memcached", 0.25, 512),
    ("media-mongodb", 0.5, 1024),
    ("url-shorten-memcached", 0.25, 512),
    ("url-shorten-mongodb", 0.5, 1024),
]


@dataclass(frozen=True)
class RpcStep:
    """One RPC hop of a request chain.

    Attributes:
        src: calling service.
        dst: called service.
        payload_kb: bytes moved over the edge per request (both
            directions combined), in kilobytes.
        service_ms: compute time spent at ``dst`` for this call.
    """

    src: str
    dst: str
    payload_kb: float
    service_ms: float


#: Request chains.  Payloads and service times are DeathStarBench-scale:
#: timelines move tens of KB of post data; writes fan out through many
#: small RPCs.  Baseline (all-local) latency is a few hundred ms.
REQUEST_CHAINS: dict[str, list[RpcStep]] = {
    "read_home_timeline": [
        RpcStep("nginx-frontend", "home-timeline-service", 20.0, 25.0),
        RpcStep("home-timeline-service", "home-timeline-redis", 8.0, 15.0),
        RpcStep("home-timeline-service", "post-storage-service", 40.0, 25.0),
        RpcStep("post-storage-service", "post-storage-memcached", 25.0, 15.0),
        RpcStep("post-storage-service", "post-storage-mongodb", 15.0, 30.0),
    ],
    "read_user_timeline": [
        RpcStep("nginx-frontend", "user-timeline-service", 20.0, 25.0),
        RpcStep("user-timeline-service", "user-timeline-redis", 8.0, 15.0),
        RpcStep("user-timeline-service", "user-timeline-mongodb", 12.0, 30.0),
        RpcStep("user-timeline-service", "post-storage-service", 40.0, 25.0),
        RpcStep("post-storage-service", "post-storage-memcached", 25.0, 15.0),
    ],
    "compose_post": [
        RpcStep("nginx-frontend", "compose-post-service", 15.0, 25.0),
        RpcStep("compose-post-service", "text-service", 10.0, 15.0),
        RpcStep("text-service", "url-shorten-service", 3.0, 10.0),
        RpcStep("url-shorten-service", "url-shorten-memcached", 2.0, 8.0),
        RpcStep("url-shorten-service", "url-shorten-mongodb", 2.0, 15.0),
        RpcStep("text-service", "user-mention-service", 3.0, 10.0),
        RpcStep("user-mention-service", "user-memcached", 2.0, 8.0),
        RpcStep("compose-post-service", "unique-id-service", 1.0, 5.0),
        RpcStep("compose-post-service", "media-service", 60.0, 20.0),
        RpcStep("media-service", "media-memcached", 30.0, 8.0),
        RpcStep("media-service", "media-mongodb", 60.0, 30.0),
        RpcStep("compose-post-service", "user-service", 2.0, 10.0),
        RpcStep("user-service", "user-mongodb", 2.0, 15.0),
        RpcStep("compose-post-service", "post-storage-service", 30.0, 20.0),
        RpcStep("post-storage-service", "post-storage-mongodb", 30.0, 30.0),
        RpcStep("compose-post-service", "user-timeline-service", 6.0, 15.0),
        RpcStep("user-timeline-service", "user-timeline-redis", 6.0, 10.0),
        RpcStep(
            "compose-post-service", "write-home-timeline-rabbitmq", 6.0, 8.0
        ),
        RpcStep(
            "write-home-timeline-rabbitmq",
            "write-home-timeline-service",
            6.0,
            10.0,
        ),
        RpcStep(
            "write-home-timeline-service", "social-graph-service", 3.0, 12.0
        ),
        RpcStep("social-graph-service", "social-graph-redis", 3.0, 8.0),
        RpcStep("social-graph-service", "social-graph-mongodb", 3.0, 15.0),
        RpcStep(
            "write-home-timeline-service", "home-timeline-redis", 8.0, 10.0
        ),
    ],
}

#: DeathStarBench's default read-heavy mix.
DEFAULT_MIX: dict[str, float] = {
    "read_home_timeline": 0.60,
    "read_user_timeline": 0.30,
    "compose_post": 0.10,
}

_KB_TO_MBIT = 8.0 / 1000.0

#: Per-step service times (ms) of each chain.
_SERVICE_MS: dict[str, tuple[float, ...]] = {
    request_type: tuple(step.service_ms for step in chain)
    for request_type, chain in REQUEST_CHAINS.items()
}


class SocialNetworkApp(Application, Derived):
    """The 27-microservice social network.

    Args:
        annotate_rps: request rate used to compute the DAG's bandwidth
            annotations (the paper profiles offline at the expected
            load; §5).
        mix: request-type fractions (must sum to 1).
        jitter_rel_std: relative std of per-step service-time noise.

    Example:
        >>> app = SocialNetworkApp(annotate_rps=50)
        >>> len(app.build_dag())
        27
    """

    name = "socialnet"

    DERIVED = {
        # ``(crossings table, {request type: compiled chain})``: see
        # :meth:`_chain`.
        "_chains": (None, {}),
        # ``(crossings table, key, {request type: fixed addends})``:
        # see :meth:`_tables`.
        "_priced": (None, None, {}),
    }

    def __init__(
        self,
        annotate_rps: float = 50.0,
        *,
        mix: Optional[dict[str, float]] = None,
        jitter_rel_std: float = 0.10,
    ) -> None:
        if not (math.isfinite(annotate_rps) and annotate_rps > 0):
            raise ConfigError("annotate_rps must be positive and finite")
        if not (math.isfinite(jitter_rel_std) and jitter_rel_std >= 0):
            raise ConfigError("jitter_rel_std must be finite and >= 0")
        self.annotate_rps = annotate_rps
        self._mix = dict(mix) if mix is not None else dict(DEFAULT_MIX)
        # A NaN fraction passes the sum check and a negative one breaks
        # the CDF's monotonicity, which the sampler's draw relies on.
        bad = {
            request_type: fraction
            for request_type, fraction in self._mix.items()
            if not (math.isfinite(fraction) and fraction >= 0)
        }
        if bad:
            raise ConfigError(f"request mix fractions must be finite and >= 0: {bad}")
        if abs(sum(self._mix.values()) - 1.0) > 1e-6:
            raise ConfigError("request mix fractions must sum to 1")
        unknown = set(self._mix) - set(REQUEST_CHAINS)
        if unknown:
            raise ConfigError(f"unknown request types in mix: {sorted(unknown)}")
        # The sampler draws request types by inverting this CDF, built
        # exactly as ``Generator.choice(p=weights / weights.sum())``
        # builds its own, so the draws are the ones ``choice`` makes.
        # Kept as a list: ``bisect_right`` over a monotone CDF is
        # ``searchsorted(side="right")``.
        weights = np.array(list(self._mix.values()))
        self._mix_types = tuple(self._mix)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._mix_cdf = cdf.tolist()
        self.jitter_rel_std = jitter_rel_std
        #: Fixed cost per inter-node RPC hop (ms): TCP/Istio-sidecar
        #: proxying and (de)serialization that loopback calls skip.
        self.inter_node_overhead_ms = 5.0
        self._per_request_mbit = self._compute_per_request_mbit()
        self.current_rps = annotate_rps
        forget(self)

    @property
    def mix(self) -> Mapping[str, float]:
        """Request-type fractions (read-only: the edge demands, DAG
        weights and sampling CDF are all derived from them once)."""
        return MappingProxyType(self._mix)

    # -- traffic profile ----------------------------------------------------

    def _compute_per_request_mbit(self) -> dict[tuple[str, str], float]:
        """Expected megabits per offered request on each edge (mix-weighted)."""
        per_edge: dict[tuple[str, str], float] = {}
        for request_type, fraction in self._mix.items():
            for step in REQUEST_CHAINS[request_type]:
                key = (step.src, step.dst)
                per_edge[key] = per_edge.get(key, 0.0) + (
                    fraction * step.payload_kb * _KB_TO_MBIT
                )
        return per_edge

    def edge_demand_mbps(self, src: str, dst: str, rps: float) -> float:
        """Offered Mbps on an edge at a given request rate."""
        return self._per_request_mbit.get((src, dst), 0.0) * rps

    # -- DAG ------------------------------------------------------------------

    def build_dag(self) -> ComponentDAG:
        dag = ComponentDAG(self.name)
        for name, cpu, memory_mb in SERVICES:
            dag.add_component(Component(name, cpu=cpu, memory_mb=memory_mb))
        for (src, dst), mbit in self._per_request_mbit.items():
            dag.add_dependency(src, dst, mbit * self.annotate_rps)
        return dag.validate()

    # -- workload coupling -------------------------------------------------------

    def set_rps(self, rps: float) -> None:
        """Set the instantaneous offered request rate."""
        if not (math.isfinite(rps) and rps >= 0):
            raise ConfigError("rps must be finite and >= 0")
        self.current_rps = rps

    def update_demands(self, binding: DeploymentBinding, t: float) -> None:
        """Scale every edge's demand to the current request rate."""
        scale = self.current_rps / self.annotate_rps
        binding.set_global_scale(scale)
        binding.sync_flows()

    # -- latency sampling ------------------------------------------------------------

    def request_latency_s(
        self,
        request_type: str,
        binding: DeploymentBinding,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Latency of one request of ``request_type`` right now (seconds)."""
        if request_type not in REQUEST_CHAINS:
            raise ConfigError(f"unknown request type {request_type!r}")
        return self._latencies_s([request_type], binding, rng)[0]

    def sample_latencies_s(
        self,
        binding: DeploymentBinding,
        n: int,
        rng: np.random.Generator,
    ) -> list[float]:
        """``n`` request latencies drawn from the request mix."""
        cdf, types = self._mix_cdf, self._mix_types
        return self._latencies_s(
            [types[bisect_right(cdf, u)] for u in rng.random(n).tolist()],
            binding,
            rng,
        )

    def _latencies_s(
        self,
        request_types: Sequence[str],
        binding: DeploymentBinding,
        rng: Optional[np.random.Generator],
    ) -> list[float]:
        """Latencies of the given requests, all issued right now.

        Nothing a request's latency depends on moves within the call,
        so each distinct type's compiled chain (:meth:`_chain`) is
        priced once into a table of per-step fixed addends
        (:meth:`_tables`, which keeps them across calls until what they
        read moves); per request only the jittered service terms
        differ.  They are drawn in one
        batch (the same values, in the same order, as one scalar draw
        per step) and each latency is summed step by step in chain
        order, ``ms * max(0.1, z) / 1000.0`` then the step's addends:
        the floats the per-step loop added.
        """
        if not request_types:
            return []
        tables = self._tables(request_types, binding)
        if rng is not None and self.jitter_rel_std > 0:
            size = sum(len(_SERVICE_MS[t]) for t in request_types)
            jitter = iter(rng.normal(1.0, self.jitter_rel_std, size=size).tolist())
        else:
            jitter = repeat(1.0)  # ms * 1.0 / 1000.0 == ms / 1000.0
        latencies = []
        for request_type in request_types:
            latency_s = 0.0
            # ``zip`` stops on the service times, so each request draws
            # exactly its own steps' jitter from the shared iterator.
            for ms, addends, z in zip(
                _SERVICE_MS[request_type], tables[request_type], jitter
            ):
                latency_s += ms * (z if z > 0.1 else 0.1) / 1000.0  # max(0.1, z)
                for addend in addends:
                    latency_s += addend
            latencies.append(latency_s)
        return latencies

    def _tables(
        self, request_types: Sequence[str], binding: DeploymentBinding
    ) -> dict[str, list[list[float]]]:
        """Each distinct type's fixed-addend table (:meth:`_fixed_addends`)
        under the binding's placement, right now.

        A table reads the placement (the binding's :meth:`crossings`
        table, kept until a migration), the emulator's path delays and
        flow rates, and ``inter_node_overhead_ms``.  So it is kept, and
        handed out again, until the crossings table is replaced or the
        emulator's :meth:`~repro.net.netem.NetworkEmulator.observation_key`
        or the overhead moves.  Two tables are never kept: one priced
        while a restart stall is open (the stall shrinks as the clock
        moves), and one that priced a payload at the path's spare
        bandwidth, which follows the link capacities.
        """
        netem = binding.netem
        types = dict.fromkeys(request_types)
        if binding.deployment.restarting(netem.now):
            costs = EdgeCosts(binding)
            return {t: self._fixed_addends(t, costs) for t in types}
        crossings = binding.crossings()
        key = (netem.observation_key(), self.inter_node_overhead_ms)
        kept_crossings, kept_key, kept = self._priced
        if kept_crossings is not crossings or kept_key != key:
            kept = {}
            self._priced = (crossings, key, kept)
        tables = {}
        costs = None  # built for the first type not kept
        for request_type in types:
            table = kept.get(request_type)
            if table is None:
                if costs is None:
                    costs = EdgeCosts(binding)
                spare_priced = costs.spare_priced
                table = self._fixed_addends(request_type, costs)
                if costs.spare_priced == spare_priced:
                    kept[request_type] = table
            tables[request_type] = table
        return tables

    def _fixed_addends(
        self,
        request_type: str,
        costs: EdgeCosts,
    ) -> list[list[float]]:
        """What each step of a chain adds beyond its service time, in
        the order charged: restart stalls (a service stalls a request
        once, where the chain first touches it), the inter-node hop
        overhead, the payload's transfer time (left out when zero).
        A co-located step with nobody restarting adds nothing."""
        overhead_s = self.inter_node_overhead_ms / 1000.0
        price = costs.crossing_cost_s
        stalls = costs.stalls
        stalled: set[str] = set()
        table = []
        for crossing, payload_mbit, src, dst in self._chain(
            request_type, costs.crossings
        ):
            addends = []
            if stalls:
                for service in (src, dst):
                    if service in stalls and service not in stalled:
                        stalled.add(service)
                        addends.append(stalls[service])
            if crossing is not None:
                addends.append(overhead_s)
                transfer_s = price(crossing, payload_mbit)
                if transfer_s:
                    addends.append(transfer_s)
            table.append(addends)
        return table

    def _chain(
        self, request_type: str, crossings: Mapping[tuple[str, str], Crossing]
    ) -> list[tuple[Crossing, float, str, str]]:
        """``request_type``'s chain as ``(crossing, payload Mbit, src,
        dst)`` per step under the placement ``crossings`` describes.

        Compiled the first time the type is priced under that table and
        kept until the binding hands out a new one (a migration); a type
        with an undeployed service raises
        :class:`~repro.errors.SchedulingError` here, at its first such
        step, and is never kept.
        """
        table, chains = self._chains
        if table is not crossings:
            chains = {}
            self._chains = (crossings, chains)
        chain = chains.get(request_type)
        if chain is None:
            chain = chains[request_type] = self._compile(request_type, crossings)
        return chain

    @staticmethod
    def _compile(
        request_type: str, crossings: Mapping[tuple[str, str], Crossing]
    ) -> list[tuple[Crossing, float, str, str]]:
        return [
            (
                crossings[(step.src, step.dst)],
                step.payload_kb * _KB_TO_MBIT,
                step.src,
                step.dst,
            )
            for step in REQUEST_CHAINS[request_type]
        ]

    def hottest_edges(self, top: int = 5) -> list[tuple[str, str, float]]:
        """The highest-traffic edges (per-request Mbit), descending —
        the pairs whose (non-)co-location §6.2.2 says drives latency."""
        ranked = sorted(
            self._per_request_mbit.items(), key=lambda kv: -kv[1]
        )
        return [(src, dst, mbit) for (src, dst), mbit in ranked[:top]]
