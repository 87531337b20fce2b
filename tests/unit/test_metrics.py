"""Unit tests for metric summaries."""

import math

import pytest

from repro.metrics.summary import cdf_points, percentile, rolling_mean, summarize


class TestSummaries:
    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_cdf_points(self):
        values, fractions = cdf_points([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(fractions) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_empty(self):
        values, fractions = cdf_points([])
        assert len(values) == 0 and len(fractions) == 0

    def test_rolling_mean(self):
        times = [0.0, 1.0, 2.0, 3.0]
        values = [0.0, 10.0, 0.0, 10.0]
        smoothed = rolling_mean(times, values, window_s=10.0)
        assert smoothed[-1] == pytest.approx(5.0)
        assert smoothed[0] == 0.0

    def test_rolling_mean_window_excludes_old(self):
        times = [0.0, 100.0]
        values = [1000.0, 2.0]
        smoothed = rolling_mean(times, values, window_s=10.0)
        assert smoothed[1] == 2.0


class TestPercentileHelpers:
    def test_p50_p95_p99(self):
        from repro.metrics.summary import p50, p95, p99

        values = list(range(1, 101))
        assert p50(values) == pytest.approx(50.5)
        assert p95(values) == pytest.approx(95.05)
        assert p99(values) == pytest.approx(99.01)

    def test_empty_is_nan(self):
        from repro.metrics.summary import p50, p95, p99

        for helper in (p50, p95, p99):
            assert math.isnan(helper([]))

    def test_single_sample(self):
        from repro.metrics.summary import p50, p95, p99

        for helper in (p50, p95, p99):
            assert helper([7.0]) == 7.0


class TestTextHistogram:
    def test_basic_shape(self):
        from repro.metrics.summary import text_histogram

        lines = text_histogram(list(range(100)), bins=4).splitlines()
        assert len(lines) == 4
        for line in lines:
            assert "|" in line and ".." in line

    def test_counts_sum_to_sample_size(self):
        from repro.metrics.summary import text_histogram

        lines = text_histogram([1.0, 2.0, 2.5, 9.0], bins=3).splitlines()
        counts = [int(line.rsplit("|", 1)[1]) for line in lines]
        assert sum(counts) == 4

    def test_empty(self):
        from repro.metrics.summary import text_histogram

        assert text_histogram([]) == "(no samples)"

    def test_single_sample_full_bar(self):
        from repro.metrics.summary import text_histogram

        line = text_histogram([3.0], width=10)
        assert "##########" in line
        assert line.rstrip().endswith("1")

    def test_zero_range_many_samples(self):
        from repro.metrics.summary import text_histogram

        line = text_histogram([2.0] * 5)
        assert "\n" not in line
        assert line.rstrip().endswith("5")

    def test_invalid_bins(self):
        from repro.metrics.summary import text_histogram

        with pytest.raises(ValueError):
            text_histogram([1.0], bins=0)


class TestRecoveryTimelineStats:
    def timeline(self):
        # 1.0 until the fault at t=10, zero for 10 s, then back to 1.0.
        times = list(range(30))
        values = [1.0] * 10 + [0.0] * 10 + [1.0] * 10
        return times, values

    def test_dip_and_recovery_measured(self):
        from repro.metrics.summary import recovery_timeline_stats

        times, values = self.timeline()
        stats = recovery_timeline_stats(times, values, fault_at_s=10.0)
        assert stats.pre_mean == pytest.approx(1.0)
        assert stats.dip_min == pytest.approx(0.0)
        assert stats.post_mean == pytest.approx(1.0)
        assert stats.time_to_recover_s == pytest.approx(10.0)
        assert stats.recovered

    def test_never_recovered_is_none(self):
        from repro.metrics.summary import recovery_timeline_stats

        times = list(range(20))
        values = [1.0] * 10 + [0.0] * 10
        stats = recovery_timeline_stats(times, values, fault_at_s=10.0)
        assert stats.time_to_recover_s is None
        assert not stats.recovered
        assert math.isnan(stats.post_mean)

    def test_bounce_counts_final_return_only(self):
        from repro.metrics.summary import recovery_timeline_stats

        times = list(range(8))
        values = [1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        stats = recovery_timeline_stats(times, values, fault_at_s=2.0)
        assert stats.time_to_recover_s == pytest.approx(4.0)

    def test_no_dip_recovers_instantly(self):
        from repro.metrics.summary import recovery_timeline_stats

        times = list(range(10))
        values = [1.0] * 10
        stats = recovery_timeline_stats(times, values, fault_at_s=5.0)
        assert stats.time_to_recover_s == 0.0

    def test_mismatched_lengths_rejected(self):
        from repro.metrics.summary import recovery_timeline_stats

        with pytest.raises(ValueError):
            recovery_timeline_stats([1.0], [1.0, 2.0], fault_at_s=0.0)
