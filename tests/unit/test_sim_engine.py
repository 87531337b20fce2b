"""Unit tests for the discrete-event engine."""

import pickle
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class Recorder:
    """A picklable callback target (lambdas cannot enter snapshots)."""

    def __init__(self, engine):
        self.engine = engine
        self.fired = []

    def hit(self):
        self.fired.append(self.engine.now)

    def chain(self):
        self.fired.append(self.engine.now)
        if self.engine.now < 30.0:
            self.engine.schedule_in(10.0, self.chain)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(2.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(3.0, lambda: fired.append("c"))
        engine.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        fired = []
        for label in ("first", "second", "third"):
            engine.schedule_at(1.0, lambda lab=label: fired.append(lab))
        engine.run_until(2.0)
        assert fired == ["first", "second", "third"]

    def test_schedule_in_is_relative(self):
        engine = Engine()
        seen = []
        engine.schedule_in(4.0, lambda: seen.append(engine.now))
        engine.run_until(10.0)
        assert seen == [4.0]

    def test_scheduling_in_the_past_raises(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().schedule_in(-1.0, lambda: None)

    def test_nan_time_is_refused_and_the_queue_stays_ordered(self):
        """A NaN key compares false both ways; once in the heap it made
        30 random events dispatch out of order or not at all."""
        for seed in range(20):
            fired = self._random_events_around_a_nan(seed)
            assert len(fired) == 30
            assert fired == sorted(fired)

    @staticmethod
    def _random_events_around_a_nan(seed):
        rng = random.Random(seed)
        engine = Engine()
        fired = []

        def record():
            fired.append(engine.now)

        for i in range(30):
            if i == 15:
                with pytest.raises(SimulationError):
                    engine.schedule_at(float("nan"), record)
                with pytest.raises(SimulationError):
                    engine.schedule_in(float("nan"), record)
            engine.schedule_at(rng.uniform(0.0, 100.0), record)
        engine.run_until(100.0)
        return fired

    def test_nan_horizon_raises(self):
        with pytest.raises(SimulationError):
            Engine().run_until(float("nan"))

    def test_clock_advances_to_end_time_even_when_queue_drains(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        engine.run_until(100.0)
        assert engine.now == 100.0

    def test_run_until_before_now_raises(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_events_scheduled_during_run_execute(self):
        engine = Engine()
        fired = []

        def chain():
            fired.append(engine.now)
            if engine.now < 3.0:
                engine.schedule_in(1.0, chain)

        engine.schedule_at(1.0, chain)
        engine.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_events_after_horizon_stay_queued(self):
        engine = Engine()
        fired = []
        engine.schedule_at(50.0, lambda: fired.append("late"))
        engine.run_until(10.0)
        assert fired == []
        assert engine.pending_events == 1
        engine.run_until(60.0)
        assert fired == ["late"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run_until(5.0)
        assert fired == []

    def test_cancelled_events_not_counted_pending(self):
        engine = Engine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        event.cancel()
        assert engine.pending_events == 1

    def test_processed_event_count(self):
        engine = Engine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        engine.run_until(2.5)
        assert engine.processed_events == 2


class TestPeriodicTask:
    def test_fires_every_interval(self):
        engine = Engine()
        times = []
        engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_stop_prevents_future_firings(self):
        engine = Engine()
        times = []
        task = engine.every(10.0, lambda: times.append(engine.now))
        engine.schedule_at(25.0, task.stop)
        engine.run_until(100.0)
        assert times == [10.0, 20.0]
        assert task.stopped

    def test_stop_is_idempotent(self):
        engine = Engine()
        task = engine.every(1.0, lambda: None)
        task.stop()
        task.stop()
        assert task.stopped

    def test_stop_from_inside_callback(self):
        engine = Engine()
        times = []

        def callback():
            times.append(engine.now)
            if len(times) == 2:
                task.stop()

        task = engine.every(5.0, callback)
        engine.run_until(100.0)
        assert times == [5.0, 10.0]

    def test_zero_interval_raises(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_interval_raises(self, interval):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.every(interval, lambda: None)
        assert engine.pending_events == 0


class TestRunAll:
    def test_run_all_drains_queue(self):
        engine = Engine()
        fired = []
        for t in (1.0, 5.0, 9.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run_all()
        assert fired == [1.0, 5.0, 9.0]
        assert engine.now == 9.0

    def test_run_all_event_cap(self):
        engine = Engine()

        def forever():
            engine.schedule_in(1.0, forever)

        engine.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=100)


class TestProfiling:
    def test_disabled_by_default(self):
        assert Engine().profiler is None

    def test_profiles_callback_sites(self):
        from repro.sim.engine import EngineProfiler

        engine = Engine()
        profiler = engine.enable_profiling()
        assert isinstance(profiler, EngineProfiler)

        class Worker:
            def tick(self):
                pass

        worker = Worker()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, worker.tick)
        engine.run_until(10.0)
        stats = profiler.stats()
        assert len(stats) == 1
        assert stats[0].count == 3
        assert stats[0].total_s >= 0.0
        assert stats[0].site.endswith("Worker.tick")

    def test_periodic_task_charges_payload_not_trampoline(self):
        engine = Engine()
        profiler = engine.enable_profiling()

        def payload():
            pass

        task = engine.every(5.0, payload)
        engine.run_until(20.0)
        task.stop()
        sites = [s.site for s in profiler.stats()]
        assert any(site.endswith("payload") for site in sites)
        assert not any("_fire" in site for site in sites)

    def test_enable_is_idempotent(self):
        engine = Engine()
        first = engine.enable_profiling()
        assert engine.enable_profiling() is first

    def test_exceptions_still_charged(self):
        engine = Engine()
        profiler = engine.enable_profiling()

        def boom():
            raise RuntimeError("boom")

        engine.schedule_at(1.0, boom)
        with pytest.raises(RuntimeError):
            engine.run_until(2.0)
        assert sum(s.count for s in profiler.stats()) == 1

    def test_render_table(self):
        engine = Engine()
        profiler = engine.enable_profiling()
        assert profiler.render() == "(no events profiled)"
        engine.schedule_at(1.0, lambda: None)
        engine.run_until(2.0)
        rows = profiler.table()
        assert len(rows) == 1
        site, count, total_s, mean_us = rows[0]
        assert count == 1 and total_s >= 0.0 and mean_us >= 0.0
        assert "events" in profiler.render()

    def test_mean_us_zero_count(self):
        from repro.sim.engine import CallbackSiteStats

        assert CallbackSiteStats("x").mean_us == 0.0


class TestPendingEventAccounting:
    def test_pending_counts_live_events(self):
        engine = Engine()
        events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(6)]
        assert engine.pending_events == 6
        events[0].cancel()
        events[1].cancel()
        assert engine.pending_events == 4

    def test_pending_matches_brute_force_under_churn(self):
        engine = Engine()
        events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(50)]
        for event in events[::3]:
            event.cancel()
        live = sum(1 for e in engine._queue if not e.cancelled)
        assert engine.pending_events == live

    def test_cancel_is_idempotent_for_the_counter(self):
        engine = Engine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert engine.pending_events == 1

    def test_cancel_after_execution_does_not_skew_count(self):
        engine = Engine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(5.0, lambda: None)
        engine.run_until(2.0)
        event.cancel()  # already ran; must be a no-op
        assert engine.pending_events == 1
        engine.run_until(10.0)
        assert engine.pending_events == 0

    def test_compaction_evicts_cancelled_majority(self):
        engine = Engine()
        events = [engine.schedule_at(float(i + 1), lambda: None) for i in range(100)]
        for event in events[:60]:
            event.cancel()
        # Once tombstones exceeded half the queue the heap compacted, so
        # dead entries no longer dominate the live ones.
        assert len(engine._queue) < 60
        assert engine.pending_events == 40
        live = sum(1 for e in engine._queue if not e.cancelled)
        assert live == 40

    def test_compacted_engine_still_fires_in_order(self):
        engine = Engine()
        fired = []
        keep = []
        for i in range(20):
            event = engine.schedule_at(
                float(i + 1), lambda t=i + 1: fired.append(t)
            )
            if i % 2:
                event.cancel()
            else:
                keep.append(i + 1)
        engine.run_until(30.0)
        assert fired == keep
        assert engine.pending_events == 0

    def test_cancelled_event_popped_before_compaction_updates_counter(self):
        engine = Engine()
        a = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.schedule_at(3.0, lambda: None)
        a.cancel()  # 1 of 3 cancelled: below the compaction threshold
        assert engine.pending_events == 2
        engine.run_until(1.5)  # pops the tombstone
        assert engine.pending_events == 2
        engine.run_until(10.0)
        assert engine.pending_events == 0

    def test_periodic_stop_storm_compacts(self):
        """Tearing down many periodic tasks leaves no tombstone debt."""
        engine = Engine()
        tasks = [engine.every(1.0, lambda: None) for _ in range(40)]
        for task in tasks:
            task.stop()
        assert engine.pending_events == 0
        assert len(engine._queue) == 0

    def test_explicit_compact_preserves_order(self):
        """compact() is a public no-op on semantics: live events keep
        their (time, seq) order, tombstones are gone."""
        engine = Engine()
        fired = []
        keep = []
        for i in range(10):
            event = engine.schedule_at(
                float(i + 1), lambda t=i + 1: fired.append(t)
            )
            if i in (2, 3):
                event.cancel()
            else:
                keep.append(i + 1)
        engine.compact()
        assert all(not e.cancelled for e in engine._queue)
        assert engine.pending_events == len(engine._queue) == 8
        engine.compact()  # idempotent
        engine.run_until(20.0)
        assert fired == keep


class TestPickleRoundTrip:
    """The engine serializes into checkpoints (repro.snap): clock, seq
    counter, and the live heap must survive a pickle round trip."""

    def test_restored_engine_fires_same_times_and_order(self):
        engine = Engine()
        recorder = Recorder(engine)
        for t in (5.0, 15.0, 25.0):
            engine.schedule_at(t, recorder.hit)
        engine.run_until(10.0)

        restored = pickle.loads(pickle.dumps(engine))
        engine.run_until(40.0)
        restored_recorder = restored._queue[0].callback.__self__
        restored.run_until(40.0)

        assert restored.now == engine.now == 40.0
        # Pre-checkpoint history plus identical post-restore firings.
        assert restored_recorder.fired == recorder.fired == [5.0, 15.0, 25.0]
        assert restored.processed_events == engine.processed_events

    def test_events_scheduled_after_restore_interleave_identically(self):
        engine = Engine()
        recorder = Recorder(engine)
        engine.schedule_at(10.0, recorder.chain)
        engine.run_until(12.0)

        restored = pickle.loads(pickle.dumps(engine))
        restored_recorder = restored._queue[0].callback.__self__
        engine.run_until(100.0)
        restored.run_until(100.0)
        assert restored_recorder.fired == recorder.fired
        # Seq counter travelled too: fresh schedules tie-break the same.
        assert restored._seq == engine._seq

    def test_cancelled_events_do_not_enter_the_snapshot(self):
        engine = Engine()
        recorder = Recorder(engine)
        keep = engine.schedule_at(5.0, recorder.hit)
        engine.schedule_at(6.0, recorder.hit).cancel()
        restored = pickle.loads(pickle.dumps(engine))
        assert len(restored._queue) == 1
        assert restored._queue[0].time == keep.time

    def test_restored_engine_is_runnable(self):
        """__getstate__ normalizes _running so a snapshot written from
        inside an executing event restores into a runnable engine."""
        engine = Engine()
        engine._running = True  # as if mid-callback
        restored = pickle.loads(pickle.dumps(engine))
        restored.run_until(1.0)  # must not raise "already running"
        assert restored.now == 1.0
