"""Unit tests for the flight-recorder tracer."""

import pytest

from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    read_trace,
    resolve_tracer,
    set_default_tracer,
)
from tests.oracles import read_trace_reference


class TestTraceEvent:
    def test_json_roundtrip(self):
        event = TraceEvent(
            id=7,
            kind="migration.selected",
            time=42.5,
            app="socialnet",
            epoch=3,
            cause=4,
            data={"component": "sfu", "to": "node3"},
        )
        assert TraceEvent.from_json(event.to_json()) == event

    def test_is_immutable_value_equal_and_picklable(self):
        import pickle

        event = TraceEvent(id=1, kind="restart", time=2.0, data={"to": "n1"})
        with pytest.raises(AttributeError):
            event.time = 3.0
        assert event == TraceEvent(1, "restart", 2.0, data={"to": "n1"})
        assert event != TraceEvent(1, "restart", 2.0, data={"to": "n2"})
        assert pickle.loads(pickle.dumps(event)) == event

    def test_events_built_without_data_share_no_dict(self):
        first = TraceEvent(id=1, kind="restart", time=0.0)
        second = TraceEvent(id=2, kind="restart", time=0.0)
        assert first.data == {} and first.data is not second.data

    def test_json_omits_empty_fields(self):
        event = TraceEvent(id=1, kind="run.start", time=0.0)
        line = event.to_json()
        assert "app" not in line and "cause" not in line
        assert TraceEvent.from_json(line) == event


class TestTracer:
    def test_emit_assigns_sequential_ids(self):
        tracer = Tracer()
        first = tracer.emit("probe.headroom", 1.0, src="a", dst="b")
        second = tracer.emit("violation.detected", 1.0, cause=first)
        assert (first, second) == (1, 2)
        assert tracer.events[1].cause == first

    def test_context_stamps_app_and_epoch(self):
        tracer = Tracer()
        tracer.set_context(app="video", epoch=2)
        tracer.emit("probe.headroom", 5.0, src="a", dst="b")
        tracer.set_context()  # cleared
        tracer.emit("probe.headroom", 6.0, src="a", dst="b")
        assert tracer.events[0].app == "video"
        assert tracer.events[0].epoch == 2
        assert tracer.events[1].app is None

    def test_explicit_app_overrides_context(self):
        tracer = Tracer()
        tracer.set_context(app="video")
        tracer.emit("restart", 1.0, app="camera")
        assert tracer.events[0].app == "camera"

    def test_events_of_kind(self):
        tracer = Tracer()
        tracer.emit("probe.headroom", 1.0)
        tracer.emit("restart", 2.0)
        tracer.emit("probe.headroom", 3.0)
        assert len(tracer.events_of_kind("probe.headroom")) == 2

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        probe = tracer.emit("probe.headroom", 1.0, src="a", dst="b")
        tracer.emit(
            "violation.detected", 2.0, app="x", cause=probe, goodput=0.4
        )
        path = tracer.to_jsonl(tmp_path / "trace.jsonl")
        assert read_trace(path) == tracer.events

    def test_core_kinds_are_declared(self):
        for kind in (
            "probe.max_capacity",
            "probe.headroom",
            "violation.detected",
            "epoch.plan",
            "migration.selected",
            "migration.deflected",
            "placement.bound",
            "restart",
        ):
            assert kind in EVENT_KINDS


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("restart", 1.0, component="x") == 0
        assert list(NULL_TRACER.events) == []

    def test_set_context_is_noop(self):
        NullTracer().set_context(app="x", epoch=1)  # must not raise


class TestDefaultTracer:
    def test_default_is_null(self):
        assert isinstance(resolve_tracer(None), (NullTracer, Tracer))

    def test_set_and_restore(self):
        tracer = Tracer()
        previous = set_default_tracer(tracer)
        try:
            assert resolve_tracer(None) is tracer
            explicit = Tracer()
            assert resolve_tracer(explicit) is explicit
        finally:
            set_default_tracer(previous)
        assert resolve_tracer(None) is previous

    def test_set_none_installs_null(self):
        previous = set_default_tracer(Tracer())
        set_default_tracer(None)
        try:
            assert resolve_tracer(None) is NULL_TRACER
        finally:
            set_default_tracer(previous)


class TestWithInstruments:
    def test_events_feed_instruments(self):
        tracer = Tracer.with_instruments()
        tracer.emit("probe.headroom", 1.0, capacity_mbps=10.0,
                    available_mbps=2.0)
        tracer.emit("restart", 2.0, restart_s=8.0)
        registry = tracer.instruments.registry
        assert registry.counter("bass_probes_total", mode="headroom").value == 1
        assert registry.counter("bass_migrations_total").value == 1


class TestReadTraceRobustness:
    def _write_trace(self, path, events, *, extra_lines=()):
        lines = [event.to_json() for event in events]
        lines.extend(extra_lines)
        path.write_text("\n".join(lines) + "\n")

    def test_malformed_line_skipped_with_warning(self, tmp_path):
        tracer = Tracer()
        tracer.emit("probe.headroom", 1.0, src="a", dst="b")
        tracer.emit("restart", 2.0)
        path = tmp_path / "trace.jsonl"
        self._write_trace(
            path,
            tracer.events,
            extra_lines=['{"id": 3, "kind": "restart", "t'],  # truncated
        )
        with pytest.warns(UserWarning, match="malformed trace line"):
            events = read_trace(path)
        assert events == tracer.events

    def test_mid_file_corruption_keeps_valid_lines(self, tmp_path):
        tracer = Tracer()
        tracer.emit("probe.headroom", 1.0)
        tracer.emit("restart", 2.0)
        first, second = tracer.events
        path = tmp_path / "trace.jsonl"
        path.write_text(
            first.to_json() + "\n" + "not json at all\n" + second.to_json()
            + "\n"
        )
        with pytest.warns(UserWarning, match="trace.jsonl:2"):
            events = read_trace(path)
        assert events == [first, second]

    def test_missing_required_field_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "restart", "t": 1.0}\n')  # no id
        with pytest.warns(UserWarning):
            assert read_trace(path) == []

    @pytest.mark.parametrize("data", ["null", "[1, 2]", '"text"', "7"])
    def test_non_object_data_is_a_malformed_line(self, tmp_path, data):
        # Stored as it came, a null here used to crash every reader of
        # ``event.data`` (the report first of all).
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"id": 1, "kind": "restart", "t": 1.0, "data": %s}\n'
            '{"id": 2, "kind": "restart", "t": 2.0, "data": {}}\n' % data
        )
        with pytest.warns(UserWarning, match="trace.jsonl:1"):
            events = read_trace(path)
        assert [e.id for e in events] == [2]

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": 1e400, "kind": "restart", "t": 1.0}',  # id overflows int()
            '{"id": 1, "kind": "restart", "t": %s}' % ("9" * 400),  # float()
            "[" * 100_000,  # deeper than the decoder recurses
        ],
        ids=["huge-id", "huge-t", "deep-nesting"],
    )
    @pytest.mark.parametrize("reader", [read_trace, read_trace_reference])
    def test_a_number_out_of_range_or_deep_nesting_loses_only_its_line(
        self, tmp_path, reader, line
    ):
        # Each used to raise past the skip rule and end the read, and
        # ``report`` with it.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"id": 1, "kind": "restart", "t": 1.0}\n'
            + line
            + '\n{"id": 3, "kind": "restart", "t": 3.0}\n'
        )
        with pytest.warns(UserWarning, match="trace.jsonl:2"):
            events = reader(path)
        assert [e.id for e in events] == [1, 3]

    def test_a_byte_that_is_not_utf8_loses_only_its_line(self, tmp_path):
        # Read as locale text, it used to raise UnicodeDecodeError from
        # the line iterator: every event lost, and ``report`` dead.
        tracer = Tracer()
        tracer.emit("probe.headroom", 1.0, src="a", dst="b")
        tracer.emit("restart", 2.0, node="n1")
        tracer.emit("restart", 3.0)
        path = tracer.to_jsonl(tmp_path / "trace.jsonl")
        first, second, third, end = path.read_bytes().split(b"\n")
        path.write_bytes(
            b"\n".join([first, second[:20] + b"\xff\xfe" + second[20:], third, end])
        )
        with pytest.warns(UserWarning, match="trace.jsonl:2"):
            events = read_trace(path)
        assert events == [tracer.events[0], tracer.events[2]]

    def test_blank_lines_ignored_silently(self, tmp_path):
        tracer = Tracer()
        tracer.emit("restart", 1.0)
        path = tmp_path / "trace.jsonl"
        path.write_text("\n" + tracer.events[0].to_json() + "\n\n")
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert read_trace(path) == tracer.events


class TestAtomicExport:
    def test_to_jsonl_leaves_no_temp_file(self, tmp_path):
        tracer = Tracer()
        tracer.emit("restart", 1.0)
        tracer.to_jsonl(tmp_path / "trace.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_to_jsonl_replaces_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("stale contents\n")
        tracer = Tracer()
        tracer.emit("restart", 1.0)
        tracer.to_jsonl(path)
        assert read_trace(path) == tracer.events

    def test_streaming_tracer_rejects_to_jsonl(self, tmp_path):
        from repro.obs.stream import StreamingSink

        tracer = Tracer(sink=StreamingSink(tmp_path / "shards"))
        tracer.emit("restart", 1.0)
        with pytest.raises(ValueError, match="streaming tracer"):
            tracer.to_jsonl(tmp_path / "trace.jsonl")
        tracer.close()


@pytest.fixture(autouse=True)
def _isolate_default_tracer():
    """Tests here must never leak a default tracer into the process."""
    previous = set_default_tracer(None)
    yield
    set_default_tracer(previous)
