"""The migration what-if prices the candidate's neighbourhood, not the fleet.

``MigrationPlanner._estimate_achievable`` solves the component's
hypothetical edges together with only the flows
``NetworkEmulator.linked_flows`` reaches from their paths.  Max-min
decomposes over link-connected components, so that is exact: these
tests hold it bit for bit against the frozen whole-fleet what-if
(``tests.oracles.whole_fleet_estimate``) on regional meshes with many
tenants, and check that the draws reach the cases the scoping could get
wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.deployment import Deployment
from repro.core import migration
from repro.core.binding import DeploymentBinding
from repro.core.dag import Component, ComponentDAG
from repro.core.migration import MigrationPlanner
from repro.errors import RoutingError
from repro.mesh.topology import regional_mesh
from repro.net.fairness import _BATCH_MIN_FLOWS, _EPSILON, FlowDemand, link_components
from repro.net.netem import NetworkEmulator
from tests import oracles
from tests.oracles import whole_fleet_estimate


@dataclass(frozen=True)
class Tenant:
    """One application: ``placement[i]`` is component ``c{i}``'s node,
    ``edges`` are ``(src, dst, mbps)`` with ``src < dst`` (acyclic), and
    component ``restarting`` (if any) is mid-restart, so its flows are
    registered at zero demand."""

    placement: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]
    restarting: Optional[int] = None


@dataclass(frozen=True)
class Case:
    """A regional mesh, its tenants, an optional crashed node, and the
    what-if to price: tenant ``tenant``'s component ``c{component}`` on
    ``node``."""

    n_regions: int
    nodes_per_region: int
    limits: tuple[tuple[str, str, float], ...]
    tenants: tuple[Tenant, ...]
    crashed: Optional[str]
    tenant: int
    component: int
    node: str


def _nodes(n_regions: int, nodes_per_region: int) -> list[str]:
    return [
        f"r{i}n{j + 1}" for i in range(n_regions) for j in range(nodes_per_region)
    ]


@st.composite
def tenants(draw, regions: list[list[str]], nodes: list[str]) -> Tenant:
    size = draw(st.integers(2, 5))
    home = draw(st.sampled_from(regions))
    # Mostly at home (regional components); now and then a stray node,
    # whose edges cross the backbone and join regions.
    placement = tuple(
        draw(st.sampled_from(nodes if draw(st.integers(0, 5)) == 0 else home))
        for _ in range(size)
    )
    mbps = st.sampled_from([0.0, 0.5, 2.0, 5.0, 8.0, 12.5, 20.0, 30.0])
    edges = [(i, i + 1, draw(mbps)) for i in range(size - 1)]
    for i in range(size):
        for j in range(i + 2, size):
            if draw(st.integers(0, 3)) == 0:
                edges.append((i, j, draw(mbps)))
    restarting = draw(st.none() | st.integers(0, size - 1))
    return Tenant(placement, tuple(edges), restarting)


@st.composite
def cases(draw) -> Case:
    n_regions = draw(st.integers(1, 4))
    per_region = draw(st.integers(2, 4))
    nodes = _nodes(n_regions, per_region)
    regions = [nodes[i * per_region:(i + 1) * per_region] for i in range(n_regions)]
    pairs = [link.id for link in regional_mesh(n_regions, per_region).links]
    limits = tuple(
        (*pair, draw(st.sampled_from([3.0, 7.5, 10.0, 16.0, 25.0])))
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    )
    drawn = tuple(
        draw(tenants(regions, nodes))
        for _ in range(draw(st.integers(1, 40)))
    )
    crashed = draw(st.none() | st.sampled_from(nodes))
    tenant = draw(st.integers(0, len(drawn) - 1))
    component = draw(st.integers(0, len(drawn[tenant].placement) - 1))
    return Case(
        n_regions,
        per_region,
        limits,
        drawn,
        crashed,
        tenant,
        component,
        draw(st.sampled_from(nodes)),
    )


def _crowded_case() -> Case:
    """Forty regional tenants on 4 x 4 nodes: the fleet's what-if has
    well over ``_BATCH_MIN_FLOWS`` active flows, a region's far fewer."""
    rng = random.Random(7)
    nodes = _nodes(4, 4)
    drawn = []
    for t in range(40):
        home = nodes[(t % 4) * 4:(t % 4) * 4 + 4]
        placement = tuple(rng.choice(home) for _ in range(5))
        edges = tuple(
            (i, j, rng.choice([2.0, 5.0, 8.0, 12.5]))
            for i in range(5)
            for j in range(i + 1, 5)
            if j == i + 1 or rng.random() < 0.3
        )
        drawn.append(Tenant(placement, edges))
    return Case(4, 4, (("r0n1", "r0n2", 10.0),), tuple(drawn), None, 0, 1, "r0n3")


#: Hand-placed draws, one per case the scoping could get wrong (which
#: one each covers is checked by ``test_the_examples_cover_every_case``).
EXAMPLES = (
    _crowded_case(),
    # The candidate's path r0n3 -> r0n2 carries nothing but the tenant's
    # own flow; another tenant loads r0n1 -> r0n2.
    Case(
        1, 3, (), (Tenant(("r0n1", "r0n2"), ((0, 1, 5.0),)),
                   Tenant(("r0n1", "r0n2"), ((0, 1, 8.0),))),
        None, 0, 0, "r0n3",
    ),
    # c0's flow across the backbone is the only thing joining the two
    # regions' traffic; priced from r0n3 it leaves r0n2 -> r0n1.
    Case(
        2, 3, (("r0n1", "r1n1", 10.0),),
        (
            Tenant(("r0n2", "r1n2"), ((0, 1, 6.0),)),
            Tenant(("r0n2", "r0n1"), ((0, 1, 9.0),)),
            Tenant(("r1n1", "r1n2"), ((0, 1, 9.0),)),
        ),
        None, 0, 0, "r0n3",
    ),
    # c0's peers: c1 on the candidate (loopback) and c2 on a crashed
    # node (unreachable); c3 is reached over r0n3 -> r0n1.
    Case(
        2, 3, (),
        (
            Tenant(
                ("r0n2", "r0n3", "r1n2", "r0n1"),
                ((0, 1, 4.0), (0, 2, 3.0), (0, 3, 5.0)),
            ),
            Tenant(("r0n3", "r0n1"), ((0, 1, 7.0),)),
        ),
        "r1n2", 0, 0, "r0n3",
    ),
    # The candidate's path r0n3 -> r0n1 -> r1n1 crosses a zero-weight
    # flow and a restart-silenced one; the silenced flow also touches
    # r1n1 -> r1n2, where a loaded flow runs.
    Case(
        2, 3, (),
        (
            Tenant(("r0n2", "r1n1"), ((0, 1, 6.0),)),
            Tenant(("r0n3", "r0n1"), ((0, 1, 0.0),)),
            Tenant(("r0n3", "r1n2"), ((0, 1, 4.0),), restarting=1),
            Tenant(("r1n1", "r1n2"), ((0, 1, 9.0),)),
        ),
        None, 0, 0, "r0n3",
    ),
)


def _build(case: Case):
    topo = regional_mesh(case.n_regions, case.nodes_per_region)
    for a, b, limit in case.limits:
        topo.link(a, b).set_rate_limit(limit)
    netem = NetworkEmulator(topo)
    apps = []
    for t, tenant in enumerate(case.tenants):
        dag = ComponentDAG(f"t{t}")
        names = [f"c{i}" for i in range(len(tenant.placement))]
        for name in names:
            dag.add_component(Component(name, cpu=1, memory_mb=10))
        for i, j, mbps in tenant.edges:
            dag.add_dependency(names[i], names[j], mbps)
        deployment = Deployment(dag.app)
        for i, node in enumerate(tenant.placement):
            deployment.bind(
                names[i], node, available_at=30.0 if i == tenant.restarting else 0.0
            )
        DeploymentBinding(dag, deployment, netem).sync_flows()
        apps.append((dag, deployment))
    if case.crashed is not None:
        topo.set_node_up(case.crashed, False)
        netem.on_topology_change()
    netem.recompute()
    return netem, apps


def _spied(module, call, *args):
    """``call(*args)`` with ``module.max_min_allocation`` recorded:
    returns the result and the one solve's demands and rates."""
    solves = []
    solve = module.max_min_allocation

    def spy(demands, capacities):
        rates = solve(demands, capacities)
        solves.append((list(demands), rates))
        return rates

    with mock.patch.object(module, "max_min_allocation", spy):
        result = call(*args)
    (solved,) = solves
    return result, solved


def _price(case: Case):
    """Both what-ifs of ``case``, each with its solve."""
    netem, apps = _build(case)
    dag, deployment = apps[case.tenant]
    planner = MigrationPlanner(dag)
    component = f"c{case.component}"
    scoped = _spied(
        migration, planner._estimate_achievable,
        component, case.node, deployment, netem, netem.capacities_now(),
    )
    whole = _spied(
        oracles, whole_fleet_estimate,
        planner, component, case.node, deployment, netem,
    )
    return netem, planner, deployment, component, scoped, whole


def _active(demands) -> list[FlowDemand]:
    return [d for d in demands if d.demand_mbps > _EPSILON and d.links]


def _features(case: Case) -> set[str]:
    """Which of the cases the scoping could get wrong ``case`` reaches."""
    netem, planner, deployment, component, scoped, whole = _price(case)
    (_, (priced, _)), (_, (fleet, _)) = scoped, whole
    hypothetical = [d for d in priced if not netem.has_flow(d.flow_id)]
    priced_live = [netem.flow(d.flow_id) for d in priced if netem.has_flow(d.flow_id)]
    own = {d.flow_id for d in _active(netem.flows)} - {d.flow_id for d in fleet}
    found = set()
    if len(_active(fleet)) >= _BATCH_MIN_FLOWS > len(_active(priced)):
        found.add("kernel switch")
    if any(
        not set(h.links) & {key for flow in priced_live for key in flow.links}
        for h in hypothetical
    ):
        found.add("path meets no flow")
    live = {d.flow_id: d for d in _active(netem.flows)}
    for members in link_components(live):
        if own & set(members):
            rest = {fid: d for fid, d in members.items() if fid not in own}
            if len(link_components(rest)) >= 2:
                found.add("removing own flows splits a component")
    for peer, _, mbps in planner._component_edges(component):
        if mbps <= 0 or not deployment.is_deployed(peer):
            continue
        peer_node = deployment.node_of(peer)
        if peer_node == case.node:
            found.add("loopback peer")
            continue
        try:
            netem.router.traceroute(case.node, peer_node)
        except RoutingError:
            found.add("unreachable peer")
    path_links = {key for h in hypothetical for key in h.links}
    if any(not f.demand_mbps and set(f.links) & path_links for f in priced_live):
        found.add("zero demand on the path")
    return found


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


class TestScopedWhatIf:
    @_with_examples
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_scoped_equals_whole_fleet_bit_for_bit(self, case):
        netem, _, _, _, scoped, whole = _price(case)
        (estimate, (priced, rates)), (oracle, (_, fleet_rates)) = scoped, whole
        assert estimate.hex() == oracle.hex()
        # Every flow priced gets the rate the whole fleet gives it.
        for demand in priced:
            assert rates[demand.flow_id].hex() == fleet_rates[demand.flow_id].hex()
        # Nothing left out shares a link with anything priced.
        priced_ids = {demand.flow_id for demand in priced}
        priced_links = {key for demand in priced for key in demand.links}
        for fid in fleet_rates.keys() - priced_ids:
            assert not set(netem.flow(fid).links) & priced_links

    def test_the_examples_cover_every_case(self):
        covered = set().union(*(_features(case) for case in EXAMPLES))
        assert covered == {
            "kernel switch",
            "path meets no flow",
            "removing own flows splits a component",
            "loopback peer",
            "unreachable peer",
            "zero demand on the path",
        }
