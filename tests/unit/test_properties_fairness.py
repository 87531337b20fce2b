"""Property-based tests for max-min fairness invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.invariants import max_min_certificate
from repro.net.fairness import FlowDemand, max_min_allocation

_EPS = 1e-6

LINKS = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("b", "d")]


@st.composite
def scenarios(draw):
    capacities = {
        link: draw(st.floats(min_value=0.5, max_value=100.0))
        for link in LINKS
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for i in range(n_flows):
        path_len = draw(st.integers(min_value=1, max_value=3))
        links = tuple(
            draw(st.sampled_from(LINKS)) for _ in range(path_len)
        )
        # De-duplicate links within one flow (a flow crosses a link once).
        links = tuple(dict.fromkeys(links))
        demand = draw(st.floats(min_value=0.0, max_value=150.0))
        flows.append(FlowDemand(flow_id=f"f{i}", links=links, demand_mbps=demand))
    return flows, capacities


class TestMaxMinProperties:
    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_feasible(self, scenario):
        flows, capacities = scenario
        rates = max_min_allocation(flows, capacities)
        for link, capacity in capacities.items():
            load = sum(
                rates[f.flow_id] for f in flows if link in f.links
            )
            assert load <= capacity + _EPS

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_demand_bounded_and_nonnegative(self, scenario):
        flows, capacities = scenario
        rates = max_min_allocation(flows, capacities)
        for flow in flows:
            assert -_EPS <= rates[flow.flow_id] <= flow.demand_mbps + _EPS

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_pareto_unsatisfied_flows_hit_a_saturated_link(self, scenario):
        """If a flow got less than its demand, some link on its path is
        (numerically) saturated — otherwise the allocation wasted
        capacity it could have handed out."""
        flows, capacities = scenario
        rates = max_min_allocation(flows, capacities)
        loads = {
            link: sum(rates[f.flow_id] for f in flows if link in f.links)
            for link in capacities
        }
        for flow in flows:
            if not flow.links:
                continue
            if rates[flow.flow_id] < flow.demand_mbps - 1e-3:
                assert any(
                    loads[link] >= capacities[link] - 1e-3
                    for link in flow.links
                )

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_max_min_certificate_holds(self, scenario):
        """Feasible, demand-bounded, and every unsatisfied flow the
        largest on some saturated link (so single-link sharers get equal
        shares and no capacity is wasted)."""
        flows, capacities = scenario
        rates = max_min_allocation(flows, capacities)
        assert max_min_certificate(flows, capacities, rates) == []

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, scenario):
        flows, capacities = scenario
        assert max_min_allocation(flows, capacities) == max_min_allocation(
            flows, capacities
        )

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_single_link_fair_share(self, scenario):
        """On each link, two unsatisfied single-link flows sharing only
        that link receive (near) equal rates — the fairness core."""
        flows, capacities = scenario
        rates = max_min_allocation(flows, capacities)
        for link in capacities:
            sharers = [
                f
                for f in flows
                if f.links == (link,)
                and rates[f.flow_id] < f.demand_mbps - 1e-3
            ]
            if len(sharers) >= 2:
                values = [rates[f.flow_id] for f in sharers]
                assert max(values) - min(values) <= 1e-3
