"""The structure-of-arrays tick core: parity and round-trips.

The emulator's hot path stores queue and flow state in flat NumPy
arrays (:class:`repro.net.queues.QueueArrays`,
:class:`repro.net.flows.FlowArrays`).  Everything here pins the
refactor's contract:

* the vectorized queue step replays the scalar ``LinkQueue.update``
  (the oracle in ``tests/oracles.py``) bit for bit;
* the flow-incidence arrays accumulate offered load in the scalar
  loop's exact addition order;
* the grid-grouped capacity scan only bumps the allocation epoch when
  a capacity actually changes, and rebuilds itself on topology or
  shaping changes;
* a pickled emulator restores into a byte-identical continuation.
"""

import pickle

import numpy as np
import pytest

from repro.mesh.node import MeshNode
from repro.mesh.topology import MeshTopology
from repro.mesh.traces import BandwidthTrace
from repro.net.flows import FlowArrays
from repro.net.netem import NetworkEmulator
from repro.net.queues import QueueArrays
from repro.sim.engine import Engine
from tests.oracles import LinkQueue


def random_sequences(n_queues, n_steps, seed):
    rng = np.random.default_rng(seed)
    offered = rng.uniform(0.0, 40.0, size=(n_steps, n_queues))
    offered[rng.random(offered.shape) < 0.15] = 0.0  # idle steps
    capacity = rng.uniform(0.0, 25.0, size=(n_steps, n_queues))
    capacity[rng.random(capacity.shape) < 0.1] = 0.0  # dead links
    return offered, capacity


class TestQueueArraysParity:
    def test_update_all_matches_scalar_queues_bit_for_bit(self):
        n, steps = 13, 400
        buffers = np.linspace(5.0, 40.0, n)
        arrays = QueueArrays(buffers)
        scalars = [LinkQueue(buffer_mbit=float(b)) for b in buffers]
        offered, capacity = random_sequences(n, steps, seed=42)
        for s in range(steps):
            arrays.update_all(0.5, offered[s], capacity[s])
            for i, q in enumerate(scalars):
                q.update(0.5, float(offered[s, i]), float(capacity[s, i]))
                assert arrays.backlog_mbit[i] == q.backlog_mbit
                assert arrays.last_loss_fraction[i] == q.last_loss_fraction
                assert arrays.dropped_mbit_total[i] == q.dropped_mbit_total

    def test_rejects_negative_dt_and_bad_buffers(self):
        arrays = QueueArrays([10.0])
        with pytest.raises(Exception):
            arrays.update_all(-0.1, np.zeros(1), np.zeros(1))
        with pytest.raises(Exception):
            QueueArrays([10.0, 0.0])
        with pytest.raises(Exception):
            QueueArrays([[10.0]])

    def test_pickle_round_trip_preserves_state(self):
        arrays = QueueArrays([10.0, 20.0])
        arrays.update_all(1.0, np.array([30.0, 5.0]), np.array([5.0, 5.0]))
        clone = pickle.loads(pickle.dumps(arrays))
        assert np.array_equal(clone.backlog_mbit, arrays.backlog_mbit)
        assert np.array_equal(
            clone.dropped_mbit_total, arrays.dropped_mbit_total
        )
        # Scratch buffers are rebuilt, not serialized, and updates work.
        clone.update_all(1.0, np.array([1.0, 1.0]), np.array([5.0, 5.0]))


def build_traced_emulator(*, trace_dt=2.0):
    """Three nodes in a line; the a-b link follows a coarse trace."""
    topo = MeshTopology()
    for name in ("a", "b", "c"):
        topo.add_node(MeshNode(name, cpu_cores=4, memory_mb=4096))
    ab = topo.add_link("a", "b", capacity_mbps=10.0)
    topo.add_link("b", "c", capacity_mbps=20.0)
    ab.set_trace(
        BandwidthTrace(
            [0.0, trace_dt, 2 * trace_dt], [10.0, 6.0, 14.0], loop=True
        )
    )
    emu = NetworkEmulator(topo)
    emu.add_flow("f1", "a", "c", 8.0)
    emu.add_flow("f2", "a", "b", 5.0)
    return emu


class TestFlowArraysParity:
    def test_offered_matches_scalar_accumulation_order(self):
        rng = np.random.default_rng(3)
        n_flows, n_links = 60, 15
        link_index = {(f"n{i}", f"n{i + 1}"): i for i in range(n_links)}
        keys = list(link_index)

        class Flow:
            def __init__(self, fid, links, demand, tag):
                self.flow_id = fid
                self.links = links
                self.demand_mbps = demand
                self.tag = tag

        flows = {}
        for i in range(n_flows):
            start = int(rng.integers(0, n_links))
            hops = int(rng.integers(0, 4))
            links = tuple(keys[(start + h) % n_links] for h in range(hops))
            flows[f"f{i}"] = Flow(
                f"f{i}", links, float(rng.uniform(0.0, 30.0)), f"t{i % 3}"
            )
        arrays = FlowArrays(flows, link_index)
        offered = arrays.offered_mbps(n_links)
        # The scalar loop the arrays replace: registration order, one
        # add per path entry.
        expected = np.zeros(n_links)
        for flow in flows.values():
            for key in flow.links:
                expected[link_index[key]] += flow.demand_mbps
        assert np.array_equal(offered, expected)

    def test_tag_accounting_keeps_every_tag_and_sums_terms(self):
        link_index = {("a", "b"): 0}

        class Flow:
            def __init__(self, fid, links, demand, tag):
                self.flow_id = fid
                self.links = links
                self.demand_mbps = demand
                self.tag = tag

        flows = {
            "f1": Flow("f1", (("a", "b"),), 4.0, "video"),
            "f2": Flow("f2", (("a", "b"),), 2.0, "video"),
            "f3": Flow("f3", (), 9.0, "idle"),  # loopback: zero hops
        }
        arrays = FlowArrays(flows, link_index)
        acc = {"video": 1.0}
        arrays.accumulate_offered_by_tag(0.5, acc)
        assert acc["video"] == 1.0 + (4.0 * 0.5 * 1 + 2.0 * 0.5 * 1)
        assert acc["idle"] == 0.0  # present even though it moved nothing


class TestCapacityScanEpoch:
    def test_static_mesh_never_bumps_epoch(self):
        topo = MeshTopology()
        for name in ("a", "b"):
            topo.add_node(MeshNode(name, cpu_cores=4, memory_mb=4096))
        topo.add_link("a", "b", capacity_mbps=10.0)
        emu = NetworkEmulator(topo)
        emu.add_flow("f", "a", "b", 5.0)
        emu.tick()
        epoch = emu._cap_epoch
        for _ in range(5):
            emu.engine.run_until(emu.engine.now + emu.tick_s)
            emu.tick()
        assert emu._cap_epoch == epoch

    def test_epoch_bumps_only_on_trace_boundaries(self):
        emu = build_traced_emulator(trace_dt=2.0)
        emu.tick()
        epochs = [emu._cap_epoch]
        for _ in range(6):
            emu.engine.run_until(emu.engine.now + 1.0)
            emu.tick()
            epochs.append(emu._cap_epoch)
        bumps = [b - a for a, b in zip(epochs, epochs[1:])]
        # Trace steps every 2 s, ticks every 1 s: every other tick is a
        # pure cache hit on the held segment.
        assert bumps == [0, 1, 0, 1, 0, 1]

    def test_shaping_change_is_seen_without_a_topology_change(self):
        emu = build_traced_emulator()
        emu.tick()
        before = emu.capacity("b", "c")
        emu.topology.link("b", "c").set_rate_limit(3.0)
        assert emu.capacity("b", "c") == 3.0 != before

    def test_what_if_recompute_restores_live_allocations(self):
        emu = build_traced_emulator()
        emu.tick()
        live = {f.flow_id: f.allocated_mbps for f in emu.flows}
        emu.recompute({("a", "b"): 1.0, ("b", "a"): 1.0,
                       ("b", "c"): 1.0, ("c", "b"): 1.0})
        throttled = {f.flow_id: f.allocated_mbps for f in emu.flows}
        assert throttled != live
        emu.recompute()
        assert {f.flow_id: f.allocated_mbps for f in emu.flows} == live


class TestCheckpointRoundTrip:
    def run_ticks(self, engine, emu, n):
        for _ in range(n):
            engine.run_until(engine.now + emu.tick_s)
            emu.tick()

    def test_restored_emulator_continues_byte_identically(self):
        """Cut a traced run mid-flight, restore the pickle, and drive
        both copies forward: every observable — and a re-pickle of the
        whole state — must match byte for byte."""
        emu = build_traced_emulator()
        engine = emu.engine
        self.run_ticks(engine, emu, 7)
        blob = pickle.dumps((engine, emu))

        self.run_ticks(engine, emu, 9)
        engine2, emu2 = pickle.loads(blob)
        self.run_ticks(engine2, emu2, 9)

        assert {f.flow_id: f.allocated_mbps for f in emu.flows} == {
            f.flow_id: f.allocated_mbps for f in emu2.flows
        }
        assert emu.offered_mbit_by_tag() == emu2.offered_mbit_by_tag()
        assert np.array_equal(
            emu._queue_arrays.backlog_mbit, emu2._queue_arrays.backlog_mbit
        )
        assert pickle.dumps((engine, emu)) == pickle.dumps(
            (engine2, emu2)
        )

    def test_restore_rebuilds_scan_without_epoch_bump(self):
        """Derived scan state is dropped from the pickle; the rebuild
        re-reads the same capacities, so the allocation fingerprint
        stays valid and the first post-restore tick does not re-solve."""
        emu = build_traced_emulator()
        engine = emu.engine
        self.run_ticks(engine, emu, 4)
        emu2 = pickle.loads(pickle.dumps((engine, emu)))[1]
        epoch = emu2._cap_epoch
        assert emu2._scan_rev is None  # derived state not serialized
        emu2.capacities_now()  # forces the rebuild + rescan
        assert emu2._cap_epoch == epoch
