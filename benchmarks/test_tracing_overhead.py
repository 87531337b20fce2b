"""Flight-recorder overhead: tracing must be free when disabled.

Two measurements:

* **Disabled guard** — the per-site cost of an instrumented hot path
  when tracing is off is one attribute check (``if tracer.enabled:``).
  A tight micro-benchmark asserts it stays deep in the noise floor
  (well under a microsecond per call), so leaving instrumentation in
  hot loops is always safe.
* **Scenario cost** — a quick fig13-style run untraced vs traced.  The
  enabled-mode cost is *recorded* (not asserted: absolute wall times on
  shared CI are noisy) into ``benchmarks/results/`` alongside the event
  count, so regressions show up in the persisted tables.
"""

import time

import pytest

from repro.experiments.migration import fig13_socialnet_migration
from repro.obs.stream import StreamingSink
from repro.obs.trace import NULL_TRACER, Tracer, set_default_tracer

from _reporting import fmt, save_table

_GUARD_ITERATIONS = 200_000


def _timed_guard_loop(tracer, iterations=_GUARD_ITERATIONS):
    """Time the instrumented-site pattern: guard, emit only if enabled."""
    started = time.perf_counter()
    for index in range(iterations):
        if tracer.enabled:
            tracer.emit("probe.headroom", float(index), src="a", dst="b")
    return time.perf_counter() - started


def _run_fig13_quick():
    return fig13_socialnet_migration(
        intervals=(30.0,), total_s=160.0, restrict_for_s=120.0
    )


def test_disabled_guard_is_nanoseconds():
    """The disabled-mode guard costs ~ns; assert < 1 µs per call."""
    _timed_guard_loop(NULL_TRACER, iterations=1000)  # warm up
    elapsed = _timed_guard_loop(NULL_TRACER)
    per_call_us = elapsed / _GUARD_ITERATIONS * 1e6
    assert per_call_us < 1.0, (
        f"disabled tracing guard costs {per_call_us:.3f} us/call; "
        "expected effectively free"
    )


@pytest.mark.benchmark(group="tracing")
def test_tracing_overhead(benchmark):
    def scenario():
        # Untraced twice: the first run absorbs one-time warmup (imports,
        # numpy caches), the second is the honest baseline.
        _run_fig13_quick()
        untraced_start = time.perf_counter()
        _run_fig13_quick()
        untraced_s = time.perf_counter() - untraced_start

        tracer = Tracer.with_instruments()
        previous = set_default_tracer(tracer)
        try:
            traced_start = time.perf_counter()
            _run_fig13_quick()
            traced_s = time.perf_counter() - traced_start
        finally:
            set_default_tracer(previous)
        return untraced_s, traced_s, len(tracer.events)

    untraced_s, traced_s, events = benchmark.pedantic(
        scenario, rounds=1, iterations=1, warmup_rounds=0
    )

    guard = _timed_guard_loop(NULL_TRACER)
    emit = _timed_guard_loop(Tracer())
    overhead_pct = (traced_s / untraced_s - 1.0) * 100.0
    save_table(
        "tracing_overhead",
        ["measure", "value"],
        [
            ["untraced fig13-quick (s)", fmt(untraced_s, 3)],
            ["traced fig13-quick (s)", fmt(traced_s, 3)],
            ["overhead (%)", fmt(overhead_pct, 1)],
            ["events recorded", events],
            ["disabled guard (ns/call)",
             fmt(guard / _GUARD_ITERATIONS * 1e9, 1)],
            ["enabled emit (us/call)",
             fmt(emit / _GUARD_ITERATIONS * 1e6, 2)],
        ],
        note="enabled-mode cost is recorded, not asserted; the disabled "
             "guard is asserted < 1 us/call in test_disabled_guard_is_"
             "nanoseconds",
    )
    assert events > 0


_STREAM_EVENTS = 1_000_000
_STREAM_WINDOW = 4096


def test_streaming_sink_cost_and_residency(tmp_path):
    """The streaming leg: emit-to-disk cost within 1.25x of the
    in-memory path plus its ``to_jsonl`` export (the like-for-like
    comparison: both end with the trace on disk), and resident events
    bounded by the ring window under a 1M-event synthetic load (the
    whole point of the sink)."""
    _timed_guard_loop(Tracer(), iterations=1000)  # warm up

    in_memory = Tracer()
    in_memory_s = _timed_guard_loop(in_memory, iterations=_STREAM_EVENTS)
    # What the buffered path still owes before its trace is on disk,
    # which the streaming leg has already paid.
    started = time.perf_counter()
    in_memory.to_jsonl(tmp_path / "buffered.jsonl")
    export_s = time.perf_counter() - started

    sink = StreamingSink(
        tmp_path / "shards", window=_STREAM_WINDOW, shard_events=100_000
    )
    streaming = Tracer(sink=sink)
    streaming_s = _timed_guard_loop(streaming, iterations=_STREAM_EVENTS)
    streaming.close()

    # Bounded residency: only the ring window stays in memory while the
    # full stream landed on disk.
    assert len(sink.recent) == _STREAM_WINDOW
    assert sink.total_events == _STREAM_EVENTS
    assert len(streaming) == _STREAM_EVENTS
    assert sink.published_shards == _STREAM_EVENTS // 100_000

    ratio = streaming_s / (in_memory_s + export_s)
    save_table(
        "streaming_sink_overhead",
        ["measure", "value"],
        [
            ["in-memory emit, 1M events (s)", fmt(in_memory_s, 3)],
            ["streaming emit, 1M events (s)", fmt(streaming_s, 3)],
            ["streaming / in-memory ratio (recorded only)",
             fmt(streaming_s / in_memory_s, 2)],
            ["to_jsonl export of the in-memory events (s)", fmt(export_s, 3)],
            ["streaming / (in-memory + export) ratio", fmt(ratio, 2)],
            ["resident events (window)", len(sink.recent)],
            ["published shards", sink.published_shards],
        ],
        note="streaming must stay within 1.25x of the buffered path "
             "including its to_jsonl export (both end with the trace on "
             "disk) while holding only O(window) events resident; the "
             "raw emit-only ratio is recorded, not asserted",
    )
    assert ratio < 1.25, (
        f"streaming emit is {ratio:.2f}x the in-memory emit + export "
        "path; the incremental writer must stay within 1.25x"
    )
