"""Region layouts, claim epochs, and the fleet arbiter's
eventually-consistent conflict resolution."""

import pytest

from repro.core.controlplane import FleetArbiter
from repro.core.netmonitor import NetMonitor
from repro.core.regions import (
    HandoffRequest,
    RegionClaim,
    RegionController,
    RegionMap,
    RegionSpec,
)
from repro.errors import TopologyError
from repro.mesh.topology import line_topology, regional_mesh, regional_specs
from repro.net.netem import NetworkEmulator


def make_map():
    return RegionMap(
        [
            RegionSpec("east", frozenset({"a", "b"})),
            RegionSpec("west", frozenset({"c"})),
        ]
    )


def make_request(**overrides):
    fields = dict(
        epoch=3,
        source_region="east",
        target_region="west",
        app="appA",
        component="sink",
        source_node="a",
        target_node="c",
        severity=1.5,
        requested_at=100.0,
    )
    fields.update(overrides)
    return HandoffRequest(**fields)


class TestRegionMap:
    def test_specs_validate(self):
        with pytest.raises(TopologyError):
            RegionSpec("", frozenset({"a"}))
        with pytest.raises(TopologyError):
            RegionSpec("east", frozenset())
        with pytest.raises(TopologyError):
            RegionMap([])
        with pytest.raises(TopologyError):
            RegionMap(
                [
                    RegionSpec("east", frozenset({"a"})),
                    RegionSpec("east", frozenset({"b"})),
                ]
            )
        with pytest.raises(TopologyError):  # overlapping node
            RegionMap(
                [
                    RegionSpec("east", frozenset({"a"})),
                    RegionSpec("west", frozenset({"a", "b"})),
                ]
            )

    def test_region_of_and_spec(self):
        region_map = make_map()
        assert region_map.region_of("a") == "east"
        assert region_map.region_of("c") == "west"
        assert region_map.names == ["east", "west"]
        assert region_map.spec("west").nodes == frozenset({"c"})
        with pytest.raises(TopologyError):
            region_map.region_of("nope")
        with pytest.raises(TopologyError):
            region_map.spec("nope")

    def test_home_of_nodes_majority_and_ties(self):
        region_map = make_map()
        assert region_map.home_of_nodes(["a", "b", "c"]) == "east"
        # One pod each: the tie breaks to region-name order.
        assert region_map.home_of_nodes(["b", "c"]) == "east"
        assert region_map.home_of_nodes(["c"]) == "west"
        with pytest.raises(TopologyError):
            region_map.home_of_nodes([])

    def test_validate_covers(self):
        topology = regional_mesh(2, 2)
        specs = regional_specs(2, 2)
        region_map = RegionMap(
            [RegionSpec(name, frozenset(nodes)) for name, nodes in specs]
        )
        assert region_map.validate_covers(topology) is region_map
        with pytest.raises(TopologyError):
            make_map().validate_covers(topology)

    def test_specs_naming_unknown_nodes_are_refused(self):
        """A layout must name only the mesh's nodes: a region holding a
        node the topology lacks is refused, naming that node."""
        from repro.config import FleetConfig

        topology = line_topology([10.0, 10.0])  # node1..node3
        config = FleetConfig(
            region_specs=(
                ("a", ("node1", "node2", "node3")),
                ("b", ("ghost",)),
            )
        )
        with pytest.raises(TopologyError, match="'ghost'"):
            RegionMap.from_config(topology, config)

    def test_one_region_does_no_all_pairs_work(self):
        """The default plane's map is the node list — one region named
        ``region0`` — and it is the map an explicit one-spec layout
        describes."""
        from repro.config import FleetConfig

        topology = regional_mesh(4, 5)
        everything = frozenset(topology.node_names)
        for config in (
            FleetConfig(),
            FleetConfig(region_specs=(("region0", tuple(everything)),)),
        ):
            derived = RegionMap.from_config(topology, config)
            assert [(s.name, s.nodes) for s in derived.specs] == [
                ("region0", everything)
            ]


class TestArbiterResolution:
    def test_simultaneous_cross_region_claims_on_same_node(self):
        """Two regions race for one node in the same fleet round: the
        higher-severity claim wins the published slot, the loser is
        recorded as a conflict (its migration already ran — eventual
        consistency trades post-hoc accounting for lock freedom)."""
        arbiter = FleetArbiter()
        low = RegionClaim(10.0, 1, "east", "appA", "sink", "n3", 1.0)
        high = RegionClaim(10.0, 1, "west", "appB", "sink", "n3", 2.0)
        arbiter.submit_batch([low])
        arbiter.submit_batch([high])
        collisions = arbiter.resolve(10.0)
        assert [(loser.app, winner.app) for loser, winner in collisions] == [
            ("appA", "appB")
        ]
        assert arbiter.conflict_count == 1
        assert arbiter.published_claims() == {"n3": ("west", "appB")}

    def test_tied_severity_orders_by_epoch_then_region(self):
        arbiter = FleetArbiter()
        older = RegionClaim(10.0, 1, "west", "appB", "sink", "n3", 1.0)
        newer = RegionClaim(10.0, 2, "east", "appA", "sink", "n3", 1.0)
        arbiter.submit_batch([newer, older])
        collisions = arbiter.resolve(10.0)
        assert [(c[0].app, c[1].app) for c in collisions] == [
            ("appA", "appB")
        ]
        # Same epoch and severity: region name is the final total order.
        arbiter.submit_batch(
            [
                RegionClaim(20.0, 3, "west", "appB", "sink", "n4", 1.0),
                RegionClaim(20.0, 3, "east", "appA", "sink", "n4", 1.0),
            ]
        )
        collisions = arbiter.resolve(20.0)
        assert arbiter.published_claims()["n4"] == ("east", "appA")
        assert [c[0].app for c in collisions] == ["appB"]

    def test_same_tenant_claims_do_not_conflict(self):
        arbiter = FleetArbiter()
        arbiter.submit_batch(
            [
                RegionClaim(10.0, 1, "east", "appA", "sink", "n3", 2.0),
                RegionClaim(10.0, 1, "east", "appA", "src", "n3", 1.0),
            ]
        )
        assert arbiter.resolve(10.0) == []
        assert arbiter.conflict_count == 0

    def test_resolution_clears_pending_and_replaces_board(self):
        arbiter = FleetArbiter()
        arbiter.submit_batch(
            [RegionClaim(10.0, 1, "east", "appA", "sink", "n3", 1.0)]
        )
        arbiter.resolve(10.0)
        assert arbiter.resolve(11.0) == []  # pending drained
        assert arbiter.published_claims() == {}  # board is per-round

    def test_handoff_reservation_pins_and_releases_target(self):
        arbiter = FleetArbiter()
        request = make_request()
        arbiter.reserve_for_handoff(request)
        held = arbiter.board_claim("c")
        assert held is not None and held.app == "appA"
        # A different tenant's release must not evict the reservation.
        other = make_request(app="appB")
        arbiter.release_handoff_reservation(other)
        assert arbiter.board_claim("c") is not None
        arbiter.release_handoff_reservation(request)
        assert arbiter.board_claim("c") is None


class TestRegionController:
    def make_controller(self):
        topology = regional_mesh(2, 2)
        netem = NetworkEmulator(topology)
        monitor = NetMonitor(netem)
        specs = regional_specs(2, 2)
        region_map = RegionMap(
            [RegionSpec(name, frozenset(nodes)) for name, nodes in specs]
        )
        region = RegionController(
            region_map.spec("region0"),
            monitor.region_view("region0", region_map.spec("region0").nodes),
            region_map=region_map,
        )
        return region

    def test_claims_merge_local_and_stale_views(self):
        region = self.make_controller()
        region.begin_round(
            1,
            {
                "r1n1": ("region1", "appB"),  # other region: visible
                "r0n2": ("region0", "appC"),  # own region: dropped, local
            },  # knowledge is fresher
        )
        region.claim(10.0, "appA", "sink", "r0n1", 1.5)
        assert region.nodes_claimed_by_others("appA") == {"r1n1"}
        assert region.nodes_claimed_by_others("appB") == {"r0n1"}
        batch = region.drain_batch()
        assert len(batch) == 1
        assert batch[0].severity == 1.5
        assert batch[0].region == "region0"
        assert region.drain_batch() == []

    def test_queue_handoff_resolves_target_region(self):
        region = self.make_controller()
        region.begin_round(1, {})
        request = region.queue_handoff(
            time=10.0,
            app="appA",
            component="sink",
            source_node="r0n2",
            target_node="r1n2",
            severity=2.0,
        )
        assert request.target_region == "region1"
        assert region.has_pending_handoff("appA", "sink")
        assert region.queued_handoffs == 1
        assert region.drain_handoffs() == [request]
        assert region.queued_handoffs == 0
        # Still pending (in the broker's hands) until settled.
        assert region.has_pending_handoff("appA", "sink")
        request.phase = "denied"
        region.handoff_settled(request)
        assert not region.has_pending_handoff("appA", "sink")

    def test_handoff_latency_only_when_committed(self):
        request = make_request()
        assert request.latency_s is None
        request.phase = "committed"
        request.completed_at = 104.5
        assert request.latency_s == pytest.approx(4.5)
