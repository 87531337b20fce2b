"""Unit tests for Prometheus-style instruments."""

import pickle

import pytest

from repro.obs.instruments import InstrumentRegistry, StandardInstruments
from repro.obs.trace import Tracer


class TestCounter:
    def test_accumulates(self):
        registry = InstrumentRegistry()
        counter = registry.counter("hits")
        counter.inc(0.0)
        counter.inc(1.0, 2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InstrumentRegistry().counter("hits").inc(0.0, -1.0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = InstrumentRegistry().gauge("active")
        gauge.set(0.0, 4.0)
        gauge.inc(1.0)
        gauge.inc(2.0, -3.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        histogram = InstrumentRegistry().histogram(
            "latency", buckets=(1.0, 5.0, 10.0)
        )
        for value in (0.5, 3.0, 7.0, 50.0):
            histogram.observe(0.0, value)
        # le=1: 1 obs; le=5: 2; le=10: 3; +Inf: all 4.
        assert histogram.bucket_counts == [1, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(60.5)

    def test_empty_histogram_counts_nothing(self):
        histogram = InstrumentRegistry().histogram("x", buckets=(1.0, 5.0))
        assert histogram.bucket_counts == [0, 0, 0]
        assert (histogram.count, histogram.sum) == (0, 0.0)


class TestRegistry:
    def test_memoizes_by_name_and_labels(self):
        registry = InstrumentRegistry()
        a = registry.counter("probes", mode="full")
        b = registry.counter("probes", mode="full")
        c = registry.counter("probes", mode="headroom")
        assert a is b and a is not c

    def test_family_mismatch_raises(self):
        registry = InstrumentRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_items_lists_instruments_in_exposition_order(self):
        registry = InstrumentRegistry()
        headroom = registry.counter("probes", mode="headroom")
        full = registry.counter("probes", mode="full")
        hits = registry.gauge("hits")
        assert registry.items() == [
            ("hits", (), hits),
            ("probes", (("mode", "full"),), full),
            ("probes", (("mode", "headroom"),), headroom),
        ]


class TestStandardInstruments:
    def test_full_event_stream(self):
        tracer = Tracer.with_instruments()
        probe = tracer.emit(
            "probe.headroom", 10.0,
            capacity_mbps=100.0, available_mbps=25.0,
        )
        tracer.emit("probe.max_capacity", 10.0, capacity_mbps=100.0)
        violation = tracer.emit("violation.detected", 10.0, cause=probe)
        tracer.emit("violation.cleared", 40.0, duration_s=30.0)
        tracer.emit("migration.deflected", 40.0, cause=violation)
        tracer.emit("restart", 40.0, restart_s=8.0)
        registry = tracer.instruments.registry

        assert registry.counter("bass_probes_total", mode="headroom").value == 1
        assert registry.counter("bass_probes_total", mode="full").value == 1
        assert registry.counter("bass_violations_total").value == 1
        assert registry.counter("bass_migration_deflections_total").value == 1
        assert registry.counter("bass_migrations_total").value == 1
        assert registry.histogram("bass_restart_seconds").count == 1
        assert registry.histogram("bass_violation_seconds").sum == 30.0
        utilization = registry.histogram(
            "bass_link_utilization",
            buckets=(0.1, 0.25, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0),
        )
        # 0.75 lands in the le=0.8 bucket and every one above it.
        assert utilization.bucket_counts == [0, 0, 0, 0, 1, 1, 1, 1, 1]
        assert utilization.sum == pytest.approx(0.75)

    def test_utilization_clamped_on_stale_capacity(self):
        tracer = Tracer.with_instruments()
        # Live availability above the stale cached capacity must not
        # record a negative utilization.
        tracer.emit(
            "probe.headroom", 1.0, capacity_mbps=25.0, available_mbps=1000.0
        )
        histogram = tracer.instruments.registry.histogram(
            "bass_link_utilization",
            buckets=(0.1, 0.25, 0.5, 0.65, 0.8, 0.9, 0.95, 1.0),
        )
        assert (histogram.count, histogram.sum) == (1, 0.0)
        assert histogram.bucket_counts == [1] * 9

    def test_unknown_kinds_ignored(self):
        instruments = StandardInstruments()
        tracer = Tracer(instruments=instruments)
        tracer.emit("run.start", 0.0, seed=1)  # must not raise
        assert instruments.registry.items() == []

    def test_tick_profile_event_sets_phase_and_solver_gauges(self):
        tracer = Tracer.with_instruments()
        tracer.emit(
            "profile.tick_phases", 120.0,
            ticks=120,
            phase_seconds={
                "capacity_scan": 0.5, "bookkeeping": 0.25, "solve": 1.5,
            },
            solver={
                "full_solves": 2, "partial_solves": 17,
                "components_resolved": 40, "components": 8,
            },
        )
        registry = tracer.instruments.registry
        assert registry.gauge("bass_tick_count").value == 120.0
        assert (
            registry.gauge("bass_tick_phase_seconds", phase="solve").value
            == 1.5
        )
        assert (
            registry.gauge(
                "bass_tick_phase_seconds", phase="capacity_scan"
            ).value
            == 0.5
        )
        assert registry.gauge("bass_solver_partial_solves").value == 17.0
        assert registry.gauge("bass_solver_components").value == 8.0

    def test_tick_profile_event_tolerates_missing_fields(self):
        tracer = Tracer.with_instruments()
        tracer.emit("profile.tick_phases", 5.0)  # must not raise
        assert tracer.instruments.registry.gauge("bass_tick_count").value == 0.0


class TestBoundedState:
    def test_instrument_state_does_not_grow_with_the_event_count(self):
        """Instruments hold values, not samples: the pickled instrument
        set is the same size after 10 000 probes as after 1 000 (both
        counts pickle as two-byte integers; below 256 they take one)."""

        def pickled_size(events):
            instruments = StandardInstruments()
            tracer = Tracer(instruments=instruments)
            for index in range(events):
                tracer.emit(
                    "probe.headroom", float(index),
                    capacity_mbps=100.0, available_mbps=25.0,
                )
            return len(pickle.dumps(instruments))

        assert pickled_size(10_000) == pickled_size(1_000)
