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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.binding import DeploymentBinding, EdgeCosts
from ..core.dag import Component, ComponentDAG
from ..errors import ConfigError
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

#: Per-step service times (ms) of each chain, as one array per type.
_SERVICE_MS: dict[str, np.ndarray] = {
    request_type: np.array([step.service_ms for step in chain])
    for request_type, chain in REQUEST_CHAINS.items()
}


class SocialNetworkApp(Application):
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

    def __init__(
        self,
        annotate_rps: float = 50.0,
        *,
        mix: Optional[dict[str, float]] = None,
        jitter_rel_std: float = 0.10,
    ) -> None:
        if not annotate_rps > 0:  # NaN included
            raise ConfigError("annotate_rps must be positive")
        self.annotate_rps = annotate_rps
        self._mix = dict(mix) if mix is not None else dict(DEFAULT_MIX)
        if abs(sum(self._mix.values()) - 1.0) > 1e-6:
            raise ConfigError("request mix fractions must sum to 1")
        unknown = set(self._mix) - set(REQUEST_CHAINS)
        if unknown:
            raise ConfigError(f"unknown request types in mix: {sorted(unknown)}")
        # The sampler draws request types by inverting this CDF, built
        # exactly as ``Generator.choice(p=weights / weights.sum())``
        # builds its own, so the draws are the ones ``choice`` makes.
        weights = np.array(list(self._mix.values()))
        self._mix_types = tuple(self._mix)
        self._mix_cdf = (weights / weights.sum()).cumsum()
        self._mix_cdf /= self._mix_cdf[-1]
        self.jitter_rel_std = jitter_rel_std
        #: Fixed cost per inter-node RPC hop (ms): TCP/Istio-sidecar
        #: proxying and (de)serialization that loopback calls skip.
        self.inter_node_overhead_ms = 5.0
        self._per_request_mbit = self._compute_per_request_mbit()
        self.current_rps = annotate_rps

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
        if not rps >= 0:  # NaN included
            raise ConfigError("rps must be >= 0")
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
        draws = self._mix_cdf.searchsorted(rng.random(n), side="right")
        return self._latencies_s(
            [self._mix_types[i] for i in draws], binding, rng
        )

    def _latencies_s(
        self,
        request_types: Sequence[str],
        binding: DeploymentBinding,
        rng: Optional[np.random.Generator],
    ) -> list[float]:
        """Latencies of the given requests, all issued right now.

        Nothing a request's latency depends on moves within the call,
        so each distinct type's chain is walked once into a table of
        per-step fixed addends; per request only the jittered service
        terms differ.  They are drawn in one batch (the same values,
        in the same order, as one scalar draw per step) and each
        latency is summed step by step in chain order.
        """
        if not request_types:
            return []
        costs = EdgeCosts(binding)
        tables = {
            request_type: self._fixed_addends(request_type, costs)
            for request_type in dict.fromkeys(request_types)
        }
        service_ms = np.concatenate([_SERVICE_MS[t] for t in request_types])
        if rng is not None and self.jitter_rel_std > 0:
            service_ms = service_ms * np.maximum(
                0.1, rng.normal(1.0, self.jitter_rel_std, size=len(service_ms))
            )
        service_s = iter((service_ms / 1000.0).tolist())
        latencies = []
        for request_type in request_types:
            latency_s = 0.0
            # ``zip`` stops on the table, so each request draws exactly
            # its own steps' service terms from the shared iterator.
            for addends, service in zip(tables[request_type], service_s):
                latency_s += service
                for addend in addends:
                    latency_s += addend
            latencies.append(latency_s)
        return latencies

    def _fixed_addends(
        self,
        request_type: str,
        costs: EdgeCosts,
    ) -> list[tuple[float, ...]]:
        """What each step of a chain adds beyond its service time, in
        the order charged: restart stalls (a service stalls a request
        once, where the chain first touches it), the inter-node hop
        overhead, the payload's transfer time (left out when zero).
        A co-located step with nobody restarting adds nothing and costs
        one probe of the binding's edge table."""
        overhead_s = self.inter_node_overhead_ms / 1000.0
        stalls = costs.stalls
        stalled: set[str] = set()
        table = []
        for step in REQUEST_CHAINS[request_type]:
            addends = []
            if stalls:
                for service in (step.src, step.dst):
                    if service in stalls and service not in stalled:
                        stalled.add(service)
                        addends.append(stalls[service])
            transfer_s = costs.crossing_time_s(
                step.src, step.dst, step.payload_kb * _KB_TO_MBIT
            )
            if transfer_s is not None:
                addends.append(overhead_s)
                if transfer_s:
                    addends.append(transfer_s)
            table.append(tuple(addends))
        return table

    def hottest_edges(self, top: int = 5) -> list[tuple[str, str, float]]:
        """The highest-traffic edges (per-request Mbit), descending —
        the pairs whose (non-)co-location §6.2.2 says drives latency."""
        ranked = sorted(
            self._per_request_mbit.items(), key=lambda kv: -kv[1]
        )
        return [(src, dst, mbit) for (src, dst), mbit in ranked[:top]]
