"""Unit tests for synthetic trace generation."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mesh.tracegen import (
    ar1_trace,
    citylab_link_trace,
    citylab_stable_link_trace,
    citylab_variable_link_trace,
    trace_with_fades,
)
from tests.oracles import ar1_values_reference


class TestAr1:
    def test_hits_target_mean(self):
        trace = ar1_trace(20.0, 0.1, 3600.0, rng=np.random.default_rng(0))
        assert trace.stats().mean_mbps == pytest.approx(20.0, rel=0.05)

    def test_hits_target_std(self):
        trace = ar1_trace(20.0, 0.1, 7200.0, rng=np.random.default_rng(1))
        assert trace.stats().rel_std == pytest.approx(0.10, abs=0.03)

    def test_values_floored(self):
        trace = ar1_trace(
            1.0, 2.0, 600.0, rng=np.random.default_rng(2), floor_mbps=0.5
        )
        assert trace.stats().min_mbps >= 0.5

    def test_deterministic_given_rng(self):
        a = ar1_trace(10.0, 0.2, 100.0, rng=np.random.default_rng(3))
        b = ar1_trace(10.0, 0.2, 100.0, rng=np.random.default_rng(3))
        assert (a.values == b.values).all()

    def test_bad_phi_raises(self):
        with pytest.raises(TraceError):
            ar1_trace(10.0, 0.1, 100.0, phi=1.0)

    def test_bad_duration_raises(self):
        with pytest.raises(TraceError):
            ar1_trace(10.0, 0.1, 0.0)

    def test_negative_rel_std_raises(self):
        with pytest.raises(TraceError):
            ar1_trace(10.0, -0.1, 100.0)

    def test_zero_rel_std_is_constant(self):
        trace = ar1_trace(10.0, 0.0, 100.0, rng=np.random.default_rng(4))
        assert trace.stats().std_mbps == 0.0


class TestAr1MatchesTheScalarLoop:
    """The recursion runs over Python floats; the bytes must be those of
    the numpy-scalar loop it replaced, for every profile's parameters
    (``citylab_link_trace``'s low / moderate / high, Fig 2's stable and
    variable links) and a mean that arrives as a numpy scalar."""

    @pytest.mark.parametrize(
        "mean, rel_std, phi",
        [
            (np.float64(23.7), 0.08, 0.97),
            (np.float64(11.2), 0.15, 0.95),
            (np.float64(5.4), 0.27, 0.92),
            (19.9, 0.10, 0.97),
            (7.62, 0.22, 0.92),
            (3, 2.0, 0.5),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_bytes_equal(self, mean, rel_std, phi, seed):
        got = ar1_trace(
            mean, rel_std, 1200.0, phi=phi, rng=np.random.default_rng(seed)
        )
        want = ar1_values_reference(
            mean, rel_std, 1200.0, phi=phi, rng=np.random.default_rng(seed)
        )
        assert got.values.dtype == want.dtype
        assert got.values.tobytes() == want.tobytes()


class TestFades:
    def test_fades_reduce_capacity(self):
        base = ar1_trace(20.0, 0.0, 3600.0, rng=np.random.default_rng(5))
        faded = trace_with_fades(
            base,
            fade_rate_per_hour=30.0,
            fade_depth=(0.5, 0.5),
            rng=np.random.default_rng(6),
        )
        assert faded.stats().min_mbps <= 10.5
        assert faded.stats().mean_mbps < base.stats().mean_mbps

    def test_zero_rate_leaves_trace_unchanged(self):
        base = ar1_trace(20.0, 0.1, 600.0, rng=np.random.default_rng(7))
        faded = trace_with_fades(
            base, fade_rate_per_hour=0.0, rng=np.random.default_rng(8)
        )
        assert (faded.values == base.values).all()

    def test_negative_rate_raises(self):
        base = ar1_trace(20.0, 0.1, 60.0)
        with pytest.raises(TraceError):
            trace_with_fades(base, fade_rate_per_hour=-1.0)


class TestCityLabProfiles:
    def test_stable_link_matches_fig2(self):
        trace = citylab_stable_link_trace(7200.0, rng=np.random.default_rng(9))
        stats = trace.stats()
        assert stats.mean_mbps == pytest.approx(19.9, rel=0.15)
        assert stats.rel_std == pytest.approx(0.10, abs=0.06)

    def test_variable_link_matches_fig2(self):
        trace = citylab_variable_link_trace(
            7200.0, rng=np.random.default_rng(10)
        )
        stats = trace.stats()
        assert stats.mean_mbps == pytest.approx(7.62, rel=0.2)
        assert stats.rel_std == pytest.approx(0.27, abs=0.12)

    def test_variable_link_noisier_than_stable(self):
        rng = np.random.default_rng(11)
        stable = citylab_stable_link_trace(3600.0, rng=rng)
        variable = citylab_variable_link_trace(3600.0, rng=rng)
        assert variable.stats().rel_std > stable.stats().rel_std

    def test_link_trace_variability_classes(self):
        rng = np.random.default_rng(12)
        low = citylab_link_trace(15.0, 3600.0, variability="low", rng=rng)
        high = citylab_link_trace(15.0, 3600.0, variability="high", rng=rng)
        assert high.stats().rel_std > low.stats().rel_std

    def test_unknown_variability_raises(self):
        with pytest.raises(TraceError):
            citylab_link_trace(15.0, variability="extreme")
