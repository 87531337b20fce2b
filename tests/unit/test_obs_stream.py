"""Unit tests for the streaming trace sink: golden equivalence with the
buffered path, shard rotation, and bounded residency."""

import pytest

from repro.obs.stream import StreamingSink
from repro.obs.trace import TraceEvent, Tracer, read_trace


def _emit_script(tracer, count):
    """Emit a deterministic mixed-kind script through any tracer."""
    for i in range(count):
        if i % 3 == 0:
            tracer.emit(
                "probe.headroom", float(i), src="n1", dst="n2",
                capacity_mbps=40.0 + i,
            )
        elif i % 3 == 1:
            tracer.emit(
                "violation.detected", float(i), app="socialnet",
                cause=i, goodput=0.5,
            )
        else:
            tracer.emit("restart", float(i), component="sfu", epoch=i // 3)


class TestGoldenEquivalence:
    def test_concatenated_shards_match_to_jsonl_bytes(self, tmp_path):
        buffered = Tracer()
        _emit_script(buffered, 57)
        legacy = buffered.to_jsonl(tmp_path / "legacy.jsonl")

        streaming = Tracer(sink=StreamingSink(
            tmp_path / "shards", window=8, shard_events=10,
        ))
        _emit_script(streaming, 57)
        streaming.close()

        concatenated = b"".join(
            shard.read_bytes()
            for shard in streaming.sink.shard_paths()
        )
        assert concatenated == legacy.read_bytes()

    def test_read_trace_on_shard_directory(self, tmp_path):
        buffered = Tracer()
        _emit_script(buffered, 23)
        streaming = Tracer(sink=StreamingSink(
            tmp_path / "shards", window=4, shard_events=7,
        ))
        _emit_script(streaming, 23)
        streaming.close()
        assert read_trace(tmp_path / "shards") == buffered.events


class TestRotation:
    def _event(self, i):
        return TraceEvent(id=i, kind="restart", time=float(i))

    def test_shard_count_and_names(self, tmp_path):
        sink = StreamingSink(tmp_path, window=4, shard_events=10)
        for i in range(1, 26):
            sink.append(self._event(i))
        sink.close()
        names = [p.name for p in sink.shard_paths()]
        assert names == [
            "trace-00000.jsonl", "trace-00001.jsonl", "trace-00002.jsonl",
        ]
        assert sink.published_shards == 3

    def test_partial_final_shard_published_on_close(self, tmp_path):
        sink = StreamingSink(tmp_path, shard_events=10)
        for i in range(1, 4):
            sink.append(self._event(i))
        assert sink.shard_paths() == []  # nothing published mid-shard
        sink.close()
        (only,) = sink.shard_paths()
        assert len(only.read_text().splitlines()) == 3

    def test_no_tmp_files_after_close(self, tmp_path):
        sink = StreamingSink(tmp_path, shard_events=4)
        for i in range(1, 11):
            sink.append(self._event(i))
        sink.close()
        assert not list(tmp_path.glob("*.tmp"))

    def test_exact_multiple_leaves_no_empty_shard(self, tmp_path):
        sink = StreamingSink(tmp_path, shard_events=5)
        for i in range(1, 11):
            sink.append(self._event(i))
        sink.close()
        assert len(sink.shard_paths()) == 2

    def test_close_is_idempotent_and_append_after_close_raises(
        self, tmp_path
    ):
        sink = StreamingSink(tmp_path)
        sink.append(self._event(1))
        sink.close()
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.append(self._event(2))


class TestRefusedAppendLeavesNoTrace:
    """An event the sink cannot take must change nothing: not the ring,
    not the totals, not the id sequence (it used to count first and
    fail after, leaving them one ahead of the shard)."""

    def _state(self, tracer):
        sink = tracer.sink
        return len(tracer), sink.total_events, [e.id for e in sink.recent]

    def _lines(self, sink):
        return [
            line for shard in sink.shard_paths()
            for line in shard.read_text().splitlines()
        ]

    def test_unencodable_event(self, tmp_path):
        tracer = Tracer(sink=StreamingSink(tmp_path, window=8, shard_events=2))
        tracer.emit("restart", 0.0)
        before = self._state(tracer)
        with pytest.raises(TypeError):
            tracer.emit("restart", 1.0, obj={1, 2})
        assert self._state(tracer) == before
        assert tracer.emit("restart", 2.0) == 2  # no gap in the ids
        tracer.emit("restart", 3.0)
        tracer.close()
        assert len(self._lines(tracer.sink)) == tracer.sink.total_events == 3
        assert [e.id for e in read_trace(tmp_path)] == [1, 2, 3]

    def test_emit_after_close(self, tmp_path):
        tracer = Tracer(sink=StreamingSink(tmp_path, window=8))
        tracer.emit("restart", 0.0)
        tracer.close()
        before = self._state(tracer)
        with pytest.raises(ValueError, match="closed"):
            tracer.emit("restart", 1.0)
        assert self._state(tracer) == before == (1, 1, [1])
        assert len(self._lines(tracer.sink)) == tracer.sink.total_events

    def test_failure_after_recording_still_consumes_the_id(
        self, tmp_path, monkeypatch
    ):
        """The other side of the line: sealing the shard an event filled
        can fail (ENOSPC surfaces when the handle closes) after the event
        was counted, and then its id must never be handed out again."""
        sink = StreamingSink(tmp_path, window=8, shard_events=2)
        tracer = Tracer(sink=sink)
        tracer.emit("restart", 0.0)
        seal = sink._seal_shard

        def disk_full():
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(sink, "_seal_shard", disk_full)
        with pytest.raises(OSError):
            tracer.emit("restart", 1.0)
        assert self._state(tracer) == (2, 2, [1, 2])
        monkeypatch.setattr(sink, "_seal_shard", seal)
        assert tracer.emit("restart", 2.0) == 3  # not 2 again
        tracer.close()
        assert len(self._lines(sink)) == sink.total_events == len(tracer) == 3
        assert [e.id for e in read_trace(tmp_path)] == [1, 2, 3]


class TestBoundedResidency:
    def test_only_window_stays_resident(self, tmp_path):
        sink = StreamingSink(tmp_path, window=16, shard_events=100)
        tracer = Tracer(sink=sink)
        _emit_script(tracer, 500)
        assert len(sink.recent) == 16
        assert [e.id for e in sink.recent] == list(range(485, 501))
        assert len(tracer) == 500
        assert sink.total_events == 500
        tracer.close()

    def test_tracer_events_exposes_recent_window(self, tmp_path):
        tracer = Tracer(sink=StreamingSink(tmp_path, window=3))
        _emit_script(tracer, 10)
        assert [e.id for e in tracer.events] == [8, 9, 10]
        tracer.close()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingSink(tmp_path, window=0)
        with pytest.raises(ValueError):
            StreamingSink(tmp_path, shard_events=0)


class TestCheckpointResume:
    """Pickle round trips of the sink (checkpoint/restore): the resumed
    run's shards must be byte-identical to an uninterrupted run's."""

    def _event(self, i):
        return TraceEvent(id=i, kind="restart", time=float(i))

    def _reference(self, tmp_path, count, shard_events):
        sink = StreamingSink(
            tmp_path / "ref", window=4, shard_events=shard_events
        )
        for i in range(1, count + 1):
            sink.append(self._event(i))
        sink.close()
        return b"".join(p.read_bytes() for p in sink.shard_paths())

    def test_resume_mid_shard_is_byte_identical(self, tmp_path):
        import pickle

        sink = StreamingSink(tmp_path / "run", window=4, shard_events=10)
        for i in range(1, 14):  # one sealed shard + 3 lines in-progress
            sink.append(self._event(i))
        restored = pickle.loads(pickle.dumps(sink))
        del sink  # the "killed" process
        for i in range(14, 26):
            restored.append(self._event(i))
        restored.close()
        got = b"".join(p.read_bytes() for p in restored.shard_paths())
        assert got == self._reference(tmp_path, 25, 10)

    def test_resume_truncates_lines_written_past_the_checkpoint(
        self, tmp_path
    ):
        import pickle

        sink = StreamingSink(tmp_path / "run", window=4, shard_events=10)
        for i in range(1, 4):
            sink.append(self._event(i))
        blob = pickle.dumps(sink)  # checkpoint at 3 lines
        for i in range(4, 8):  # the dying process keeps writing
            sink.append(self._event(i))
        sink.flush()
        restored = pickle.loads(blob)
        for i in range(4, 8):
            restored.append(self._event(i))
        restored.close()
        got = b"".join(p.read_bytes() for p in restored.shard_paths())
        assert got == self._reference(tmp_path, 7, 10)

    def test_resume_from_prematurely_sealed_shard(self, tmp_path):
        """SIGTERM shutdown seals the open shard *after* the final
        checkpoint; the restore must unseal it and continue appending."""
        import pickle

        sink = StreamingSink(tmp_path / "run", window=4, shard_events=10)
        for i in range(1, 4):
            sink.append(self._event(i))
        blob = pickle.dumps(sink)
        sink.close()  # seals trace-00000.jsonl with only 3 lines
        assert len(sink.shard_paths()) == 1
        restored = pickle.loads(blob)
        for i in range(4, 16):
            restored.append(self._event(i))
        restored.close()
        got = b"".join(p.read_bytes() for p in restored.shard_paths())
        assert got == self._reference(tmp_path, 15, 10)

    def test_refuses_resume_from_truncated_shard(self, tmp_path):
        import pickle

        sink = StreamingSink(tmp_path / "run", window=4, shard_events=10)
        for i in range(1, 6):
            sink.append(self._event(i))
        blob = pickle.dumps(sink)
        tmp_shard = next((tmp_path / "run").glob("*.tmp"))
        tmp_shard.write_text("")  # lost the lines the checkpoint recorded
        restored = pickle.loads(blob)
        with pytest.raises(ValueError, match="refusing to resume"):
            restored.append(self._event(6))

    def test_resume_with_no_shard_at_all_raises(self, tmp_path):
        import pickle

        sink = StreamingSink(tmp_path / "run", window=4, shard_events=10)
        for i in range(1, 4):
            sink.append(self._event(i))
        blob = pickle.dumps(sink)
        next((tmp_path / "run").glob("*.tmp")).unlink()
        restored = pickle.loads(blob)
        with pytest.raises(FileNotFoundError, match="cannot resume"):
            restored.append(self._event(4))
