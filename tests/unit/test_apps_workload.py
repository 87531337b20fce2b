"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.apps.workload import ExponentialArrivals, FixedRate
from repro.errors import ConfigError


class TestFixedRate:
    def test_constant_rate(self):
        workload = FixedRate(50.0)
        assert workload.mean_rps == 50.0

    def test_counts(self):
        counts = list(FixedRate(10.0).counts(5.0))
        assert counts == [10.0] * 5

    def test_negative_rate_raises(self):
        with pytest.raises(ConfigError):
            FixedRate(-1.0)


class TestExponentialArrivals:
    def test_mean_converges(self):
        workload = ExponentialArrivals(50.0, rng=np.random.default_rng(0))
        counts = list(workload.counts(2000.0))
        assert np.mean(counts) == pytest.approx(50.0, rel=0.05)

    def test_counts_are_bursty(self):
        workload = ExponentialArrivals(50.0, rng=np.random.default_rng(1))
        counts = np.asarray(list(workload.counts(1000.0)))
        # Poisson: variance ~= mean, far from the fixed-rate zero.
        assert counts.std() > 4.0

    def test_reproducible_given_rng(self):
        a = list(
            ExponentialArrivals(20.0, rng=np.random.default_rng(2)).counts(50)
        )
        b = list(
            ExponentialArrivals(20.0, rng=np.random.default_rng(2)).counts(50)
        )
        assert a == b

    def test_negative_mean_raises(self):
        with pytest.raises(ConfigError):
            ExponentialArrivals(-5.0)

    def test_mean_rps_property(self):
        assert ExponentialArrivals(30.0).mean_rps == 30.0
