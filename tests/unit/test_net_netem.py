"""Unit tests for the network emulator."""

import pickle

import pytest

from repro.errors import SimulationError, TopologyError
from repro.mesh.topology import full_mesh_topology, line_topology
from repro.mesh.traces import BandwidthTrace
from repro.net.fairness import max_min_allocation
from repro.net.netem import NetworkEmulator


def offered_on_link(emu, src, dst):
    """Offered demand crossing a directed link, read through the
    reverse index that ``linked_flows`` walks."""
    key = (src, dst)
    return sum(f.demand_mbps for f in emu.linked_flows([key]) if key in f.links)


def make_emulator(capacities=(10.0,), **kwargs):
    return NetworkEmulator(line_topology(list(capacities)), **kwargs)


class TestFlowManagement:
    def test_add_and_query_flow(self):
        emu = make_emulator()
        flow = emu.add_flow("f", "node1", "node2", 4.0)
        assert flow.path == ("node1", "node2")
        assert emu.has_flow("f")

    def test_duplicate_flow_raises(self):
        emu = make_emulator()
        emu.add_flow("f", "node1", "node2", 1.0)
        with pytest.raises(SimulationError):
            emu.add_flow("f", "node1", "node2", 1.0)

    def test_negative_demand_raises(self):
        emu = make_emulator()
        with pytest.raises(SimulationError):
            emu.add_flow("f", "node1", "node2", -1.0)

    def test_remove_flow_idempotent(self):
        emu = make_emulator()
        emu.add_flow("f", "node1", "node2", 1.0)
        emu.remove_flow("f")
        emu.remove_flow("f")
        assert not emu.has_flow("f")

    def test_unknown_flow_raises(self):
        with pytest.raises(SimulationError):
            make_emulator().flow("ghost")

    def test_colocated_flow_has_empty_links(self):
        emu = make_emulator()
        flow = emu.add_flow("f", "node1", "node1", 5.0)
        assert flow.links == ()
        emu.recompute()
        assert flow.allocated_mbps == 5.0

    def test_set_demand(self):
        emu = make_emulator()
        emu.add_flow("f", "node1", "node2", 1.0)
        emu.set_demand("f", 3.0)
        emu.recompute()
        assert emu.flow("f").allocated_mbps == pytest.approx(3.0)

    def test_reroute_flow(self):
        emu = NetworkEmulator(full_mesh_topology(3))
        emu.add_flow("f", "node1", "node2", 5.0)
        flow = emu.reroute_flow("f", "node1", "node3")
        assert flow.dst == "node3"
        assert flow.demand_mbps == 5.0


class TestAllocation:
    def test_allocation_respects_capacity(self):
        emu = make_emulator([10.0])
        emu.add_flow("f1", "node1", "node2", 8.0)
        emu.add_flow("f2", "node1", "node2", 8.0)
        emu.recompute()
        assert emu.flow("f1").allocated_mbps == pytest.approx(5.0)
        assert emu.flow("f2").allocated_mbps == pytest.approx(5.0)

    def test_goodput_fraction(self):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 20.0)
        emu.recompute()
        assert emu.flow("f").goodput_fraction == pytest.approx(0.5)

    def test_capacity_follows_trace_over_time(self):
        emu = make_emulator([10.0])
        emu.topology.link("node1", "node2").set_trace(
            BandwidthTrace([0, 5], [10.0, 2.0])
        )
        emu.add_flow("f", "node1", "node2", 20.0)
        emu.start()
        emu.engine.run_until(6.0)
        assert emu.flow("f").allocated_mbps == pytest.approx(2.0)

    def test_link_queries(self):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 4.0)
        emu.recompute()
        assert emu.link_allocated("node1", "node2") == pytest.approx(4.0)
        assert offered_on_link(emu, "node1", "node2") == pytest.approx(4.0)
        assert emu.link_utilization("node1", "node2") == pytest.approx(0.4)
        assert emu.available_bandwidth("node1", "node2") == pytest.approx(6.0)
        # Reverse direction is idle.
        assert emu.link_allocated("node2", "node1") == 0.0

    def test_path_available_bandwidth_is_bottleneck(self):
        emu = make_emulator([10.0, 4.0])
        emu.add_flow("f", "node1", "node2", 2.0)
        emu.recompute()
        assert emu.path_available_bandwidth("node1", "node3") == pytest.approx(
            4.0
        )

    def test_path_available_same_node_infinite(self):
        emu = make_emulator()
        assert emu.path_available_bandwidth("node1", "node1") == float("inf")


class TestQueuesAndDelay:
    def test_overload_builds_queue_delay(self):
        emu = make_emulator([10.0], buffer_mbit=100.0)
        emu.add_flow("f", "node1", "node2", 20.0)
        emu.start()
        emu.engine.run_until(5.0)
        assert emu.queue_delay_s("node1", "node2") > 0
        assert emu.path_delay_s("node1", "node2") > 0

    def test_no_delay_without_overload(self):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 5.0)
        emu.start()
        emu.engine.run_until(5.0)
        assert emu.queue_delay_s("node1", "node2") == 0.0

    def test_loss_after_buffer_fills(self):
        emu = make_emulator([10.0], buffer_mbit=5.0)
        emu.add_flow("f", "node1", "node2", 50.0)
        emu.start()
        emu.engine.run_until(5.0)
        assert emu.path_loss_fraction("node1", "node2") > 0.3

    def test_queue_delay_unknown_link_raises(self):
        with pytest.raises(TopologyError):
            make_emulator().queue_delay_s("node1", "node3")

    def test_path_delay_includes_propagation(self):
        emu = make_emulator([10.0, 10.0])
        expected = 2 * emu.topology.link("node1", "node2").latency_ms / 1000.0
        assert emu.path_delay_s("node1", "node3") == pytest.approx(expected)


class TestAccounting:
    def test_offered_mbit_by_tag(self):
        emu = make_emulator([10.0])
        emu.add_flow("app", "node1", "node2", 4.0, tag="app")
        emu.add_flow("probe", "node1", "node2", 1.0, tag="probe")
        emu.start()
        emu.engine.run_until(10.0)
        by_tag = emu.offered_mbit_by_tag()
        assert by_tag["app"] == pytest.approx(40.0)
        assert by_tag["probe"] == pytest.approx(10.0)

    def test_capacities_now_keys(self):
        emu = make_emulator([10.0])
        caps = emu.capacities_now()
        assert caps[("node1", "node2")] == 10.0
        assert caps[("node2", "node1")] == 10.0

    def test_start_stop(self):
        emu = make_emulator()
        emu.start()
        emu.start()  # idempotent
        emu.stop()
        emu.stop()

    def test_bad_tick_raises(self):
        with pytest.raises(SimulationError):
            make_emulator(tick_s=0.0)

    @pytest.mark.parametrize("tick_s", [float("nan"), float("inf")])
    def test_non_finite_tick_raises(self, tick_s):
        with pytest.raises(SimulationError):
            make_emulator(tick_s=tick_s)

    def test_nan_buffer_raises(self):
        with pytest.raises(SimulationError):
            make_emulator(buffer_mbit=float("nan"))

    def test_unbounded_buffer_queues_without_loss(self):
        emu = make_emulator([10.0], buffer_mbit=float("inf"))
        emu.add_flow("f", "node1", "node2", 50.0)
        emu.start()
        emu.engine.run_until(5.0)
        assert emu.path_loss_fraction("node1", "node2") == 0.0
        assert emu.queue_delay_s("node1", "node2") > 0


class TestAllocationCaching:
    def _solve_counter(self, emu, monkeypatch):
        # Every non-what-if solve goes through the retained incremental
        # engine; the fingerprint check sits in front of it, so counting
        # its calls counts actual solves.
        calls = {"n": 0}
        real = emu._incremental.solve

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(emu._incremental, "solve", counting)
        return calls

    def test_fingerprint_skips_unchanged_recompute(self, monkeypatch):
        emu = make_emulator([10.0, 10.0])
        emu.add_flow("f", "node1", "node3", 4.0)
        calls = self._solve_counter(emu, monkeypatch)
        emu.recompute()
        assert calls["n"] == 1
        # Nothing moved: static capacities, same flows, same demands.
        emu.recompute()
        emu.recompute()
        assert calls["n"] == 1
        assert emu.flow("f").allocated_mbps == 4.0

    def test_demand_change_invalidates_fingerprint(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 4.0)
        calls = self._solve_counter(emu, monkeypatch)
        emu.recompute()
        emu.set_demand("f", 6.0)
        emu.recompute()
        assert calls["n"] == 2
        assert emu.flow("f").allocated_mbps == 6.0

    def test_same_value_set_demand_is_a_no_op(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 4.0)
        emu.recompute()
        calls = self._solve_counter(emu, monkeypatch)
        before = (emu._flows_rev, emu.solver_stats(), emu._alloc_fingerprint)
        emu.set_demand("f", 4.0)
        assert not emu._dirty
        emu.recompute()
        assert calls["n"] == 0
        assert before == (
            emu._flows_rev, emu.solver_stats(), emu._alloc_fingerprint
        )
        emu.set_demand("f", 6.0)
        assert emu._dirty
        emu.recompute()
        assert calls["n"] == 1
        assert emu._flows_rev == before[0] + 1
        # A demand change re-solves the flow's one component; it is not
        # a from-scratch structure build.
        after = emu.solver_stats()
        assert after["full_solves"] == before[1]["full_solves"]
        assert after["partial_solves"] == before[1]["partial_solves"] + 1
        assert (
            after["components_resolved"]
            == before[1]["components_resolved"] + 1
        )
        assert emu.flow("f").allocated_mbps == 6.0
        assert emu._alloc_fingerprint != before[2]
        with pytest.raises(SimulationError):
            emu.set_demand("ghost", 6.0)

    def test_capacity_change_invalidates_fingerprint(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 8.0)
        calls = self._solve_counter(emu, monkeypatch)
        emu.recompute()
        emu.topology.link("node1", "node2").set_rate_limit(5.0)
        emu.recompute()
        assert calls["n"] == 2
        assert emu.flow("f").allocated_mbps == 5.0

    def test_flow_add_remove_invalidates_fingerprint(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("a", "node1", "node2", 4.0)
        calls = self._solve_counter(emu, monkeypatch)
        emu.recompute()
        emu.add_flow("b", "node1", "node2", 4.0)
        emu.recompute()
        emu.remove_flow("b")
        emu.recompute()
        assert calls["n"] == 3

    def test_tick_scans_capacities_once(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 4.0)
        scans = {"n": 0}
        real = emu._scan_capacities

        def counting():
            scans["n"] += 1
            return real()

        monkeypatch.setattr(emu, "_scan_capacities", counting)
        emu.tick()
        assert scans["n"] == 1

    def test_static_capacity_ticks_skip_the_solver(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.add_flow("f", "node1", "node2", 4.0)
        calls = self._solve_counter(emu, monkeypatch)
        for _ in range(5):
            emu.tick()
        assert calls["n"] == 1  # first tick solves, the rest are cache hits
        assert emu.flow("f").allocated_mbps == 4.0

    def test_traced_capacity_ticks_resolve(self, monkeypatch):
        emu = make_emulator([10.0])
        emu.topology.link("node1", "node2").set_trace(
            BandwidthTrace([0.0, 1.0, 2.0], [10.0, 6.0, 3.0])
        )
        emu.add_flow("f", "node1", "node2", 8.0)
        emu.start()
        calls = self._solve_counter(emu, monkeypatch)
        emu.engine.run_until(2.0)  # ticks at t=1 (6 Mbps) and t=2 (3 Mbps)
        assert calls["n"] == 2
        assert emu.flow("f").allocated_mbps == 3.0


class TestFlowsByLinkIndex:
    def _index_totals(self, emu, key):
        brute_alloc = sum(
            f.allocated_mbps for f in emu.flows if key in f.links
        )
        brute_off = sum(f.demand_mbps for f in emu.flows if key in f.links)
        return brute_alloc, brute_off

    def test_link_queries_match_full_scan(self):
        emu = NetworkEmulator(full_mesh_topology(4))
        emu.add_flow("a", "node1", "node2", 4.0)
        emu.add_flow("b", "node2", "node3", 2.0)
        emu.add_flow("c", "node1", "node2", 1.0)
        emu.add_flow("loop", "node1", "node1", 9.0)
        emu.recompute()
        for key in (("node1", "node2"), ("node2", "node3"), ("node3", "node4")):
            alloc, offered = self._index_totals(emu, key)
            assert emu.link_allocated(*key) == alloc
            assert offered_on_link(emu, *key) == offered

    def test_index_tracks_remove_and_reroute(self):
        emu = NetworkEmulator(full_mesh_topology(3))
        emu.add_flow("a", "node1", "node2", 4.0)
        emu.add_flow("b", "node1", "node2", 2.0)
        emu.remove_flow("a")
        emu.recompute()
        assert offered_on_link(emu, "node1", "node2") == 2.0
        emu.reroute_flow("b", "node1", "node3")
        emu.recompute()
        assert offered_on_link(emu, "node1", "node2") == 0.0
        assert offered_on_link(emu, "node1", "node3") == 2.0

    def test_index_follows_topology_reconvergence(self):
        emu = NetworkEmulator(full_mesh_topology(3))
        emu.add_flow("f", "node1", "node2", 2.0)
        emu.topology.set_link_up("node1", "node2", False)
        emu.on_topology_change()
        emu.recompute()
        assert emu.flow("f").path == ("node1", "node3", "node2")
        assert offered_on_link(emu, "node1", "node3") == 2.0
        assert offered_on_link(emu, "node3", "node2") == 2.0
        assert offered_on_link(emu, "node1", "node2") == 0.0

    def test_torn_down_flow_leaves_no_index_entries(self):
        emu = NetworkEmulator(line_topology([10.0, 10.0]))
        emu.add_flow("f", "node1", "node3", 2.0)
        emu.topology.set_node_up("node2", False)
        result = emu.on_topology_change()
        assert result["removed"] == ["f"]
        assert emu._flows_by_link == {}


class TestFlowSetDeltasReachTheSolver:
    """Flow changes cost the components they touch, not the mesh."""

    #: A rate the solver can never produce: planted on a flow, it shows
    #: whether a recompute wrote that flow's ``allocated_mbps``.
    UNWRITTEN = -1.0

    def _islands(self):
        """Six nodes in a line, three flows on disjoint links: three
        components."""
        emu = make_emulator([10.0] * 5)
        emu.add_flow("a", "node1", "node2", 4.0)
        emu.add_flow("b", "node3", "node4", 8.0)
        emu.add_flow("c", "node5", "node6", 4.0)
        emu.recompute()
        assert emu.solver_stats()["components"] == 3
        return emu

    def _scratch_rates(self, emu):
        return max_min_allocation(emu.flows, emu.capacities_now())

    def _assert_rates_exact(self, emu):
        want = self._scratch_rates(emu)
        assert {f.flow_id: f.allocated_mbps for f in emu.flows} == want

    def test_probe_resolves_only_its_component(self):
        emu = self._islands()
        before = emu.solver_stats()
        emu.flow("a").allocated_mbps = self.UNWRITTEN
        emu.flow("c").allocated_mbps = self.UNWRITTEN
        emu.add_flow("__probe_1", "node3", "node4", 6.0, tag="probe")
        emu.recompute()
        assert emu.flow("b").allocated_mbps == 5.0
        assert emu.flow("__probe_1").allocated_mbps == 5.0
        emu.remove_flow("__probe_1")
        emu.recompute()
        assert emu.flow("b").allocated_mbps == 8.0
        after = emu.solver_stats()
        assert after["full_solves"] == before["full_solves"]
        assert after["partial_solves"] == before["partial_solves"] + 2
        assert (
            after["components_resolved"] == before["components_resolved"] + 2
        )
        assert after["components"] == 3
        assert emu.flow("a").allocated_mbps == self.UNWRITTEN
        assert emu.flow("c").allocated_mbps == self.UNWRITTEN

    def test_probe_at_the_top_of_a_slack_link_costs_no_fill(self):
        """A probe above ``a``'s demand whose link keeps room for both
        is granted its demand and leaves again with no water-fill; the
        other components' rates are not even rewritten."""
        emu = self._islands()
        before = emu.solver_stats()
        emu.flow("c").allocated_mbps = self.UNWRITTEN
        emu.add_flow("__probe_1", "node1", "node2", 5.0, tag="probe")
        assert emu.available_bandwidth("node1", "node2") == 1.0
        assert emu.flow("__probe_1").allocated_mbps == 5.0
        emu.remove_flow("__probe_1")
        assert emu.available_bandwidth("node1", "node2") == 6.0
        assert emu.solver_stats() == before
        assert emu.flow("c").allocated_mbps == self.UNWRITTEN
        emu.flow("c").allocated_mbps = 4.0
        self._assert_rates_exact(emu)

    def test_probe_added_and_removed_between_solves_costs_nothing(self):
        emu = self._islands()
        before = emu.solver_stats()
        emu.add_flow("__probe_1", "node3", "node4", 6.0, tag="probe")
        emu.remove_flow("__probe_1")
        emu.recompute()
        assert emu.solver_stats() == before
        self._assert_rates_exact(emu)

    def test_bridging_probe_merges_then_splits(self):
        emu = self._islands()
        emu.flow("c").allocated_mbps = self.UNWRITTEN
        emu.add_flow("__probe_1", "node1", "node4", 9.0, tag="probe")
        emu.recompute()
        assert emu.solver_stats()["components"] == 2
        emu.flow("c").allocated_mbps = 4.0
        self._assert_rates_exact(emu)
        emu.remove_flow("__probe_1")
        emu.recompute()
        assert emu.solver_stats()["components"] == 3
        assert emu.solver_stats()["full_solves"] == 1
        self._assert_rates_exact(emu)

    def test_reroute_flow_reaches_the_solver(self):
        emu = self._islands()
        emu.flow("a").allocated_mbps = self.UNWRITTEN
        emu.reroute_flow("c", "node3", "node4")  # joins b's component
        emu.recompute()
        stats = emu.solver_stats()
        assert stats["full_solves"] == 1 and stats["components"] == 2
        assert emu.flow("b").allocated_mbps == 6.0
        assert emu.flow("c").allocated_mbps == 4.0
        assert emu.flow("a").allocated_mbps == self.UNWRITTEN

    def test_demand_to_zero_and_back_leaves_and_rejoins(self):
        emu = self._islands()
        emu.set_demand("b", 0.0)
        emu.recompute()
        assert emu.solver_stats()["components"] == 2
        assert emu.flow("b").allocated_mbps == 0.0
        emu.set_demand("b", 12.0)
        emu.recompute()
        assert emu.solver_stats()["components"] == 3
        assert emu.flow("b").allocated_mbps == 10.0
        assert emu.solver_stats()["full_solves"] == 1

    def test_topology_change_reroutes_and_removals_reach_the_solver(self):
        emu = NetworkEmulator(full_mesh_topology(4))
        emu.add_flow("f", "node1", "node2", 2.0)
        emu.add_flow("g", "node3", "node4", 3.0)
        emu.add_flow("h", "node1", "node4", 1.0)
        emu.recompute()
        emu.topology.set_link_up("node1", "node2", False)
        emu.topology.set_node_up("node4", False)
        result = emu.on_topology_change()
        assert result["rerouted"] == ["f"]
        assert sorted(result["removed"]) == ["g", "h"]
        assert set(emu._incremental._touched) == {"f", "g", "h"}
        full = emu.solver_stats()["full_solves"]
        emu.recompute()
        # The topology version moved, so this one starts over.
        assert emu.solver_stats()["full_solves"] == full + 1
        assert emu.flow("f").links == (
            ("node1", "node3"), ("node3", "node2"),
        )
        self._assert_rates_exact(emu)
        assert emu._incremental._touched == {}

    def test_restored_emulator_applies_pending_flow_changes(self):
        emu = self._islands()
        emu.add_flow("__probe_1", "node3", "node4", 6.0, tag="probe")
        restored = pickle.loads(pickle.dumps(emu))
        for each in (emu, restored):
            each.recompute()
            each.remove_flow("__probe_1")
            each.recompute()
        assert restored.solver_stats() == emu.solver_stats()
        assert restored.solver_stats()["full_solves"] == 1
        assert [f.allocated_mbps for f in restored.flows] == [
            f.allocated_mbps for f in emu.flows
        ]
        self._assert_rates_exact(restored)
