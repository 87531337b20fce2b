"""Unit tests for the network emulator."""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.mesh.topology import full_mesh_topology, line_topology
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator


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
        assert emu.link_offered("node1", "node2") == pytest.approx(4.0)
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

    def test_transfer_time(self):
        emu = make_emulator([10.0])
        assert emu.transfer_time_s("node1", "node2", 5.0) == pytest.approx(0.5)
        assert emu.transfer_time_s("node1", "node1", 5.0) == 0.0
        assert emu.transfer_time_s("node1", "node2", 0.0) == 0.0


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
        assert emu.solver_stats()["full_solves"] == before[1]["full_solves"] + 1
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
            assert emu.link_offered(*key) == offered

    def test_index_tracks_remove_and_reroute(self):
        emu = NetworkEmulator(full_mesh_topology(3))
        emu.add_flow("a", "node1", "node2", 4.0)
        emu.add_flow("b", "node1", "node2", 2.0)
        emu.remove_flow("a")
        emu.recompute()
        assert emu.link_offered("node1", "node2") == 2.0
        emu.reroute_flow("b", "node1", "node3")
        emu.recompute()
        assert emu.link_offered("node1", "node2") == 0.0
        assert emu.link_offered("node1", "node3") == 2.0

    def test_index_follows_topology_reconvergence(self):
        emu = NetworkEmulator(full_mesh_topology(3))
        emu.add_flow("f", "node1", "node2", 2.0)
        emu.topology.set_link_up("node1", "node2", False)
        emu.on_topology_change()
        emu.recompute()
        assert emu.flow("f").path == ("node1", "node3", "node2")
        assert emu.link_offered("node1", "node3") == 2.0
        assert emu.link_offered("node3", "node2") == 2.0
        assert emu.link_offered("node1", "node2") == 0.0

    def test_torn_down_flow_leaves_no_index_entries(self):
        emu = NetworkEmulator(line_topology([10.0, 10.0]))
        emu.add_flow("f", "node1", "node3", 2.0)
        emu.topology.set_node_up("node2", False)
        result = emu.on_topology_change()
        assert result["removed"] == ["f"]
        assert emu._flows_by_link == {}
