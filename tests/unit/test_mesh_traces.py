"""Unit tests for bandwidth traces."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mesh.topology import line_topology
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator

NAN, INF = float("nan"), float("inf")


class TestConstruction:
    def test_length_mismatch_raises(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0, 1], [1.0])

    def test_empty_raises(self):
        with pytest.raises(TraceError):
            BandwidthTrace([], [])

    def test_non_increasing_times_raise(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0, 0], [1.0, 2.0])

    def test_negative_values_raise(self):
        with pytest.raises(TraceError):
            BandwidthTrace([0, 1], [1.0, -2.0])

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0, 1, 2], [10.0, NAN, 10.0]),
            ([0, 1], [1.0, INF]),
            ([0, 1], [1.0, -INF]),
            ([0, NAN, 2], [1.0, 2.0, 3.0]),
            ([0, 1, INF], [1.0, 2.0, 3.0]),
            ([-INF, 0], [1.0, 2.0]),
        ],
        ids=["nan-value", "inf-value", "neg-inf-value", "nan-time", "inf-time", "neg-inf-time"],
    )
    def test_non_finite_samples_raise(self, times, values):
        # ``values < 0`` and ``diff(times) <= 0`` are false for NaN, and
        # an infinite time or value broke neither check.
        with pytest.raises(TraceError):
            BandwidthTrace(times, values)

    def test_nan_capacity_no_longer_reaches_a_link(self):
        """A NaN sample used to leave the link's backlog NaN for good:
        ``path_delay_s`` still read NaN at 5.5 s with the capacity back
        at 10 Mbps.  The trace is now refused before it is attached."""
        topology = line_topology([10.0])
        (link,) = topology.links
        with pytest.raises(TraceError):
            link.set_trace(BandwidthTrace([0, 1, 2], [10.0, NAN, 10.0]))
        emu = NetworkEmulator(topology)
        emu.add_flow("f", "node1", "node2", 4.0)
        emu.start()
        emu.engine.run_until(5.5)
        assert np.isfinite(emu.path_delay_s("node1", "node2"))

    def test_scaled_and_clipped_stay_finite(self):
        trace = BandwidthTrace([0, 1], [0.0, 2.0])
        assert np.isfinite(trace.clipped().values).all()
        assert np.isfinite(trace.clipped(max_mbps=INF).values).all()
        with pytest.raises(TraceError):
            trace.scaled(INF)  # 0 * inf is NaN, 2 * inf is inf

    def test_from_samples_sorts(self):
        trace = BandwidthTrace.from_samples([(10.0, 2.0), (0.0, 1.0)])
        assert trace.value_at(0.0) == 1.0
        assert trace.value_at(10.0) == 2.0

    def test_from_samples_empty_raises(self):
        with pytest.raises(TraceError):
            BandwidthTrace.from_samples([])


class TestLookup:
    def test_step_interpolation(self):
        trace = BandwidthTrace([0, 10, 20], [5.0, 8.0, 3.0])
        assert trace.value_at(0.0) == 5.0
        assert trace.value_at(9.99) == 5.0
        assert trace.value_at(10.0) == 8.0
        assert trace.value_at(15.0) == 8.0
        assert trace.value_at(20.0) == 3.0

    def test_before_first_sample_uses_first_value(self):
        trace = BandwidthTrace([5, 10], [2.0, 4.0], loop=False)
        assert trace.value_at(5.0) == 2.0

    def test_looping_wraps(self):
        trace = BandwidthTrace([0, 10], [5.0, 8.0])
        # period = 20 (10 + median spacing 10)
        assert trace.value_at(20.0) == 5.0
        assert trace.value_at(30.0) == 8.0
        assert trace.value_at(45.0) == 5.0

    def test_non_looping_raises_past_end(self):
        trace = BandwidthTrace([0, 10], [5.0, 8.0], loop=False)
        with pytest.raises(TraceError):
            trace.value_at(100.0)

    def test_constant_trace(self):
        trace = BandwidthTrace.constant(7.5)
        for t in (0.0, 1.5, 100.0, 12345.6):
            assert trace.value_at(t) == 7.5


class TestStats:
    def test_stats_values(self):
        trace = BandwidthTrace([0, 1, 2, 3], [2.0, 4.0, 6.0, 8.0])
        stats = trace.stats()
        assert stats.mean_mbps == 5.0
        assert stats.min_mbps == 2.0
        assert stats.max_mbps == 8.0
        assert stats.rel_std == pytest.approx(np.std([2, 4, 6, 8]) / 5.0)

    def test_rel_std_zero_mean(self):
        trace = BandwidthTrace([0, 1], [0.0, 0.0])
        assert trace.stats().rel_std == 0.0


class TestTransforms:
    def test_rolling_mean_smooths(self):
        values = [0.0, 10.0] * 50
        trace = BandwidthTrace(range(100), values)
        smoothed = trace.rolling_mean(10.0)
        assert smoothed.values[50:].std() < np.asarray(values).std()

    def test_rolling_mean_first_sample_unchanged(self):
        trace = BandwidthTrace([0, 1, 2], [4.0, 8.0, 2.0])
        assert trace.rolling_mean(1.5).values[0] == 4.0

    def test_rolling_mean_window_must_be_positive(self):
        trace = BandwidthTrace.constant(1.0)
        with pytest.raises(TraceError):
            trace.rolling_mean(0.0)

    def test_scaled(self):
        trace = BandwidthTrace([0, 1], [2.0, 4.0]).scaled(2.0)
        assert trace.value_at(0.0) == 4.0
        assert trace.value_at(1.0) == 8.0

    def test_scaled_negative_raises(self):
        with pytest.raises(TraceError):
            BandwidthTrace.constant(1.0).scaled(-1.0)

    def test_clipped(self):
        trace = BandwidthTrace([0, 1, 2], [1.0, 5.0, 10.0]).clipped(2.0, 8.0)
        assert trace.value_at(0.0) == 2.0
        assert trace.value_at(1.0) == 5.0
        assert trace.value_at(2.0) == 8.0
