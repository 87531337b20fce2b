"""Unit tests for max-min fair allocation."""

import pytest

from repro.invariants import max_min_certificate
from repro.net.fairness import FlowDemand, max_min_allocation


def flow(fid, links, demand):
    return FlowDemand(flow_id=fid, links=tuple(links), demand_mbps=demand)


class TestBasics:
    def test_single_flow_gets_demand_when_it_fits(self):
        rates = max_min_allocation(
            [flow("f", [("a", "b")], 4.0)], {("a", "b"): 10.0}
        )
        assert rates["f"] == pytest.approx(4.0)

    def test_single_flow_capped_by_capacity(self):
        rates = max_min_allocation(
            [flow("f", [("a", "b")], 15.0)], {("a", "b"): 10.0}
        )
        assert rates["f"] == pytest.approx(10.0)

    def test_equal_split_between_equal_demands(self):
        rates = max_min_allocation(
            [
                flow("f1", [("a", "b")], 10.0),
                flow("f2", [("a", "b")], 10.0),
            ],
            {("a", "b"): 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)

    def test_small_demand_satisfied_rest_to_big(self):
        rates = max_min_allocation(
            [
                flow("small", [("a", "b")], 2.0),
                flow("big", [("a", "b")], 100.0),
            ],
            {("a", "b"): 10.0},
        )
        assert rates["small"] == pytest.approx(2.0)
        assert rates["big"] == pytest.approx(8.0)

    def test_loopback_flow_gets_full_demand(self):
        rates = max_min_allocation([flow("f", [], 42.0)], {})
        assert rates["f"] == 42.0

    def test_zero_demand_gets_zero(self):
        rates = max_min_allocation(
            [flow("f", [("a", "b")], 0.0)], {("a", "b"): 10.0}
        )
        assert rates["f"] == 0.0

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError):
            max_min_allocation([flow("f", [("x", "y")], 1.0)], {})

    def test_empty_input(self):
        assert max_min_allocation([], {("a", "b"): 1.0}) == {}


class TestMultiHop:
    def test_flow_limited_by_bottleneck(self):
        rates = max_min_allocation(
            [flow("f", [("a", "b"), ("b", "c")], 100.0)],
            {("a", "b"): 10.0, ("b", "c"): 4.0},
        )
        assert rates["f"] == pytest.approx(4.0)

    def test_crossing_flows_share_common_link(self):
        # f1: a->b->c, f2: b->c only; the b->c link is the bottleneck.
        rates = max_min_allocation(
            [
                flow("f1", [("a", "b"), ("b", "c")], 100.0),
                flow("f2", [("b", "c")], 100.0),
            ],
            {("a", "b"): 100.0, ("b", "c"): 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)

    def test_bottlenecked_flow_frees_capacity_elsewhere(self):
        # f1 is pinned to 1 by its private link, so f2 gets the rest of
        # the shared link — the defining max-min property.
        rates = max_min_allocation(
            [
                flow("f1", [("x", "a"), ("a", "b")], 100.0),
                flow("f2", [("a", "b")], 100.0),
            ],
            {("x", "a"): 1.0, ("a", "b"): 10.0},
        )
        assert rates["f1"] == pytest.approx(1.0)
        assert rates["f2"] == pytest.approx(9.0)

    def test_three_way_share(self):
        rates = max_min_allocation(
            [
                flow("f1", [("a", "b")], 100.0),
                flow("f2", [("a", "b")], 100.0),
                flow("f3", [("a", "b")], 100.0),
            ],
            {("a", "b"): 9.0},
        )
        for fid in ("f1", "f2", "f3"):
            assert rates[fid] == pytest.approx(3.0)


class TestInvariants:
    def test_feasibility_no_link_oversubscribed(self):
        flows = [
            flow("f1", [("a", "b"), ("b", "c")], 7.0),
            flow("f2", [("b", "c")], 9.0),
            flow("f3", [("a", "b")], 2.0),
        ]
        caps = {("a", "b"): 5.0, ("b", "c"): 6.0}
        rates = max_min_allocation(flows, caps)
        assert max_min_certificate(flows, caps, rates) == []

    def test_no_flow_exceeds_demand(self):
        flows = [flow("f1", [("a", "b")], 3.0), flow("f2", [("a", "b")], 1.0)]
        caps = {("a", "b"): 100.0}
        rates = max_min_allocation(flows, caps)
        assert max_min_certificate(flows, caps, rates) == []

    def test_zero_capacity_link(self):
        rates = max_min_allocation(
            [flow("f", [("a", "b")], 5.0)], {("a", "b"): 0.0}
        )
        assert rates["f"] == pytest.approx(0.0)
