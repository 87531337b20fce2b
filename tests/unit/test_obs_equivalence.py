"""The cheap telemetry spine against the one it replaced.

``tests/oracles.py`` freezes the spine as first written (``json.dumps``
per record, ``json.loads`` per line, the if/elif instrument chain).
Generated event streams — every declared kind, nested / unicode / NaN /
±inf data — and generated file damage must come out of the production
path byte for byte as they come out of the oracle.
"""

import json
import math
import pickle
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace
from repro.obs.exposition import render_openmetrics
from repro.obs.instruments import InstrumentRegistry, StandardInstruments
from repro.obs.stream import StreamingSink
from repro.obs.trace import EVENT_KINDS, TraceEvent, Tracer, read_trace
from tests.oracles import (
    event_to_json_reference,
    on_event_reference,
    read_trace_reference,
)

#: Kinds the instruments know beyond the declared taxonomy.
KINDS = EVENT_KINDS + ("sweep.fabric", "profile.tick_phases", "custom.note")

#: ``Tracer.emit``'s own parameter names cannot also be data keys.
RESERVED = {"self", "kind", "time", "app", "epoch", "cause"}

numbers = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)
names = st.one_of(st.none(), st.text(max_size=6), st.just("tenant00"))

#: The data fields some instrument reads, by the type it expects there.
MEASURED = (
    "capacity_mbps", "available_mbps", "duration_s", "restart_s",
    "detection_latency_s", "latency_s", "cells_per_second", "cache_hit_rate",
)
COUNTED = ("worker_crashes", "ticks")
worker_reports = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "worker": st.one_of(st.integers(0, 3), st.text(max_size=3)),
            "busy_fraction": st.floats(0.0, 1.0),
            "cache_hit_rate": st.floats(0.0, 1.0),
        },
    ),
    max_size=3,
)
labelled_seconds = st.dictionaries(
    st.text(max_size=5), st.floats(allow_nan=True, allow_infinity=True),
    max_size=3,
)


@st.composite
def event_data(draw):
    """Arbitrary JSON-able data, with the instrument-read fields present
    or absent, null, zero, negative, NaN or infinite."""
    data = draw(
        st.dictionaries(
            st.text(max_size=6).filter(lambda key: key not in RESERVED),
            json_values,
            max_size=3,
        )
    )
    optional = {
        **{key: st.one_of(st.none(), numbers) for key in MEASURED},
        **{key: st.one_of(st.integers(-2, 50), st.floats(0.0, 9.0)) for key in COUNTED},
        "reason": st.sampled_from(["crash recovery", "migration", None]),
        "fault": st.sampled_from(["node_crash", "link_down", "é\"\\\n"]),
        "workers": st.one_of(st.none(), worker_reports),
        "phase_seconds": st.one_of(st.none(), labelled_seconds),
        "solver": st.one_of(st.none(), labelled_seconds),
    }
    data.update(draw(st.fixed_dictionaries({}, optional=optional)))
    return data


@st.composite
def emits(draw):
    """One ``Tracer.emit`` call: ``(kind, time, app, epoch, cause, data)``."""
    return (
        draw(st.sampled_from(KINDS)),
        draw(st.floats(0.0, 1e6)),
        draw(names),
        draw(st.one_of(st.none(), st.integers(0, 99))),
        draw(st.one_of(st.none(), st.integers(0, 30))),
        draw(event_data()),
    )


def replay(tracer, script):
    for kind, time, app, epoch, cause, data in script:
        tracer.emit(kind, time, app=app, epoch=epoch, cause=cause, **data)


def oracle_bytes(events):
    return "".join(event_to_json_reference(e) + "\n" for e in events).encode()


def shard_bytes(sink):
    return b"".join(shard.read_bytes() for shard in sink.shard_paths())


def reads(reader, path):
    """``(events, warning messages)`` of one reader; events as ``repr``
    so NaN payloads compare equal to themselves."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        events = reader(path)
    return repr(events), [str(w.message) for w in caught]


class TestEncode:
    @given(st.lists(emits(), max_size=30), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_shards_equal_to_jsonl_equal_oracle(self, script, shard_events):
        with tempfile.TemporaryDirectory() as root:
            buffered = Tracer()
            replay(buffered, script)
            expected = oracle_bytes(buffered.events)
            assert buffered.to_jsonl(Path(root) / "t.jsonl").read_bytes() == expected

            streaming = Tracer(sink=StreamingSink(
                Path(root) / "shards", window=4, shard_events=shard_events,
            ))
            replay(streaming, script)
            streaming.close()
            assert shard_bytes(streaming.sink) == expected

    @given(emits())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, emit):
        tracer = Tracer()
        replay(tracer, [emit])
        (event,) = tracer.events
        again = TraceEvent.from_json(event.to_json())
        assert again[:6] == event[:6]
        # Sorted keys make the line canonical, and NaN equal to itself.
        assert again.to_json() == event.to_json() == event_to_json_reference(event)

    #: Data the generated streams reach only by chance.
    EDGE_DATA = [
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
        {"astral": "\U0001F600 \U00010348", "bmp": "é ü — \u2028 \x00"},
        {"\U0001F600key": 1, "é": 2, "plain": 3},
        {"nested": [[1, [2.5, {"z": None, "a": True}]], {"b": [False, "s"]}]},
        {"big": 2**200, "neg": -(2**70) - 1, "tiny": 5e-324, "huge": 1.8e308},
        {"empty": {}, "none": [], "ints": list(range(5))},
    ]

    def _events(self):
        return [
            TraceEvent(i, "custom.note", 1.5 * i, "tenant00", i, i - 1, data)
            for i, data in enumerate(self.EDGE_DATA, 1)
        ] + [TraceEvent(2**64, "restart", 7, None, None, None, {})]

    def test_to_json_equals_oracle_on_edge_data(self):
        for event in self._events():
            assert event.to_json() == event_to_json_reference(event)

    def test_pure_python_fallback_writes_the_same_bytes(self, monkeypatch):
        """Without the C accelerator the held encoder is the pure-Python
        ``JSONEncoder``, and the bytes do not change."""
        events = self._events()
        want = [event_to_json_reference(e) for e in events]  # C encoder
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = trace._held_encoder()
        assert isinstance(encode.__self__, json.JSONEncoder)
        monkeypatch.setattr(trace, "_encode", encode)
        assert [e.to_json() for e in events] == want


# -- file damage ----------------------------------------------------------

GARBAGE_LINES = st.one_of(
    st.text("{}[]\",:x0 \t\x0c", max_size=12),
    st.sampled_from([
        '{"id": 1, "kind": "restart", "t": 0.0, "data": null}',
        '{"id": 1, "kind": "restart", "t": 0.0, "data": [1]}',
        '{"id": 1, "kind": "restart"}',
        '{"id": "x", "kind": "restart", "t": 0.0}',
        '{"id": 1, "kind": "restart", "t": null}',
        '[{"id": 1, "kind": "restart", "t": 0.0}]',
        '"id"', "7", "null", "NaN", "\ufeff{}",
        '{"id": 2.9, "kind": 5, "t": 3, "extra": {}}',
    ]),
)

#: Raw bytes spliced into a line: not UTF-8 (a stray byte, a cut
#: sequence, an encoded surrogate), or UTF-8 a JSON decoder never sees
#: raw in a written trace (a letter; U+2028 and U+0085, which
#: ``str.strip`` removes but JSON does not count as whitespace).
BYTE_SPLICES = [
    b"\xff", b"\xff\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80",
    b"\xc3\xa9", b"\xe2\x80\xa8", b"\xc2\x85",
]

damage = st.lists(
    st.one_of(
        st.tuples(st.just("garbage"), st.integers(0, 40), GARBAGE_LINES),
        st.tuples(
            st.just("blank"), st.integers(0, 40),
            st.sampled_from(["", " ", "\t \x0c", "\r"]),
        ),
        st.tuples(
            st.just("join"), st.integers(0, 40),
            st.sampled_from(["", " ", ",", ", "]),
        ),
        st.tuples(st.just("split"), st.integers(0, 40), st.integers(0, 400)),
        st.tuples(
            st.just("pad"), st.integers(0, 40),
            st.sampled_from([" ", "\t", "\r", "\x0c", " \x0b"]),
        ),
        st.tuples(st.just("truncate"), st.integers(1, 400), st.none()),
        st.tuples(
            st.just("bytes"), st.integers(0, 40),
            st.tuples(st.integers(0, 400), st.sampled_from(BYTE_SPLICES)),
        ),
    ),
    max_size=5,
)


def damaged(lines, steps):
    """File bytes of ``lines`` (no newlines) after each damage step."""
    lines = list(lines)
    for step, where, how in steps:
        if step == "truncate":  # the crashed run's last, half-written line
            text = "\n".join(lines)
            return text[: max(0, len(text) - where)].encode("utf-8", "surrogateescape")
        if step in ("garbage", "blank"):
            lines.insert(min(where, len(lines)), how)
        if not lines or step in ("garbage", "blank"):
            continue
        at = where % len(lines)
        if step == "join" and at + 1 < len(lines):  # two objects, one line
            lines[at : at + 2] = [lines[at] + how + lines[at + 1]]
        elif step == "split":  # one object over two lines
            cut = how % (len(lines[at]) + 1)
            lines[at : at + 1] = [lines[at][:cut], lines[at][cut:]]
        elif step == "pad":
            lines[at] = how + lines[at] + how
        elif step == "bytes":  # held as text until the file is written
            cut, raw = how
            cut %= len(lines[at]) + 1
            splice = raw.decode("utf-8", "surrogateescape")
            lines[at] = lines[at][:cut] + splice + lines[at][cut:]
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


class TestDecode:
    @given(st.lists(emits(), max_size=12), damage)
    @settings(max_examples=100, deadline=None)
    def test_read_trace_matches_oracle_on_damaged_files(self, script, steps):
        tracer = Tracer()
        replay(tracer, script)
        raw = damaged([event_to_json_reference(e) for e in tracer.events], steps)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "trace.jsonl"
            path.write_bytes(raw)
            assert reads(read_trace, path) == reads(read_trace_reference, path)

    def test_compensating_damage_is_not_mistaken_for_a_clean_file(self, tmp_path):
        """Why the reader decodes line by line and not a shard at a time.

        Joining a shard's lines into one JSON array is ~0.45 µs/event
        cheaper, and a record count that differs from the line count
        catches a line holding two records, or a record split over two
        lines — but not both in one file: the counts cancel and three
        records come back where no line is a whole record.
        """
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"id": 1, "kind": "restart", "t": 0.0},'
            '{"id": 2, "kind": "restart", "t": 1.0}\n'
            '{"id": 3, "kind": "restart", "t": 2.0, "data": {"ranking": [1\n'
            '2]}}\n'
        )
        events, messages = reads(read_trace, path)
        assert events == "[]"
        assert [m.split(":")[1] for m in messages] == ["1", "2", "3"]
        assert (events, messages) == reads(read_trace_reference, path)

    @given(
        st.lists(emits(), min_size=2, max_size=25),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_shards_restored_mid_way_from_a_checkpoint(
        self, script, shard_events, data
    ):
        """Checkpoint mid-stream, let the dying process write on, restore
        and finish: same shards, read back the same, as never stopping."""
        cut = data.draw(st.integers(0, len(script)))
        overrun = data.draw(st.integers(0, len(script) - cut))
        with tempfile.TemporaryDirectory() as root:
            tracer = Tracer(sink=StreamingSink(
                Path(root) / "shards", window=4, shard_events=shard_events,
            ))
            replay(tracer, script[:cut])
            checkpoint = pickle.dumps(tracer)
            replay(tracer, script[cut : cut + overrun])  # lost with the process
            tracer.sink.flush()

            restored = pickle.loads(checkpoint)
            replay(restored, script[cut:])
            restored.close()

            buffered = Tracer()
            replay(buffered, script)
            assert shard_bytes(restored.sink) == oracle_bytes(buffered.events)
            directory = Path(root) / "shards"
            assert reads(read_trace, directory) == reads(
                read_trace_reference, directory
            )
            assert oracle_bytes(read_trace(directory)) == oracle_bytes(buffered.events)

    def test_a_cut_character_past_the_checkpoint_does_not_block_the_resume(
        self, tmp_path
    ):
        """The dying process's last write can stop inside a character.
        The resume drops it with every other line past the checkpoint;
        read as text, it used to raise ``UnicodeDecodeError`` instead."""
        script = [("restart", float(t), None, None, None, {}) for t in range(7)]
        directory = tmp_path / "shards"
        tracer = Tracer(sink=StreamingSink(directory, window=4, shard_events=100))
        replay(tracer, script[:3])
        checkpoint = pickle.dumps(tracer)
        replay(tracer, script[3:5])  # lost with the process
        tracer.sink.flush()
        (in_progress,) = directory.glob("*.tmp")
        with open(in_progress, "ab") as handle:
            handle.write(b'{"id": 6, "kind": "rest\xff')

        restored = pickle.loads(checkpoint)
        replay(restored, script[3:])
        restored.close()

        buffered = Tracer()
        replay(buffered, script)
        assert shard_bytes(restored.sink) == oracle_bytes(buffered.events)

    @given(st.lists(emits(), min_size=5, max_size=25), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_one_read_keeps_one_copy_of_each_repeated_string(
        self, script, shard_events
    ):
        """Over a file, and over every shard of a directory, one call
        holds equal ``data`` keys, equal ``str`` values of ``data`` and
        equal ``app``s as one object; the events are the ones
        ``from_json`` builds line by line."""
        note = ("custom.note", 0.0, "tenant00", None, None, {"src": "node01"})
        script = [note, *script, note]  # in the first and the last shard
        with tempfile.TemporaryDirectory() as root:
            buffered = Tracer()
            replay(buffered, script)
            single = buffered.to_jsonl(Path(root) / "trace.jsonl")
            streaming = Tracer(sink=StreamingSink(
                Path(root) / "shards", window=4, shard_events=shard_events,
            ))
            replay(streaming, script)
            streaming.close()
            shards = streaming.sink.shard_paths()
            assert len(shards) >= 2
            for path, files in ((single, [single]), (Path(root) / "shards", shards)):
                lines = [line for f in files for line in f.read_text().splitlines()]
                events = read_trace(path)
                assert repr(events) == repr([TraceEvent.from_json(l) for l in lines])
                (key,) = events[-1].data
                assert key is next(iter(events[0].data))
                assert events[-1].data[key] is events[0].data[key]
                assert events[-1].app is events[0].app
                first: dict = {}
                for event in events:
                    strings = [*event.data, event.app]
                    strings += [v for v in event.data.values() if isinstance(v, str)]
                    for string in strings:
                        if isinstance(string, str):
                            assert first.setdefault(string, string) is string


# -- instruments ------------------------------------------------------------


def outcome(action, *args):
    """What ``action(*args)`` returned, or the exception it raised."""
    try:
        return action(*args)
    except Exception as error:  # the failure is the result under comparison
        return type(error), str(error)


class TestInstruments:
    @given(st.lists(emits(), max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exposition_matches_the_oracle_chain(self, script, data):
        """Same exposition text as the if/elif chain — through events
        either side rejects (both must fail alike and leave the same
        partial state) and a checkpoint pickle of the instruments part
        way through."""
        cut = data.draw(st.integers(0, len(script)))
        recorder = Tracer()
        replay(recorder, script)
        oracle = InstrumentRegistry()
        instruments = StandardInstruments()
        events = recorder.events
        for part in (events[:cut], events[cut:]):
            for event in part:
                assert outcome(instruments.on_event, event) == outcome(
                    on_event_reference, oracle, event
                )
            assert outcome(render_openmetrics, instruments.registry) == outcome(
                render_openmetrics, oracle
            )
            instruments = pickle.loads(pickle.dumps(instruments))

    def test_held_instruments_stay_the_registry_s_after_a_pickle(self):
        instruments = StandardInstruments()
        instruments.on_event(TraceEvent(1, "restart", 1.0, data={"restart_s": 2.0}))
        restored = pickle.loads(pickle.dumps(instruments))
        restored.on_event(TraceEvent(2, "restart", 2.0, data={"restart_s": 4.0}))
        assert restored.registry.counter("bass_migrations_total").value == 2.0
        histogram = restored.registry.histogram("bass_restart_seconds")
        assert (histogram.count, histogram.sum) == (2, 6.0)
        # 2.0 and 4.0 against DEFAULT_BUCKETS (..., 1.0, 2.5, 5.0, ...).
        assert histogram.bucket_counts == [0, 0, 0, 0, 1, 2, 2, 2, 2, 2]
