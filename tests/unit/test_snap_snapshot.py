"""Unit tests for the snapshot file format: round trip, atomicity, and
the refuse-to-restore paths (truncation, corruption, version drift,
fingerprint drift) — each must raise a specific, clear error before
anything is unpickled."""

import json
import pickle

import pytest

from repro.errors import ReproError, SnapshotError
from repro.snap.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotFingerprintError,
    SnapshotMeta,
    SnapshotVersionError,
    inspect_snapshot,
    latest_checkpoint,
    read_snapshot,
    write_snapshot,
)


class _Engine:
    def __init__(self, now):
        self.now = now


class _Env:
    def __init__(self, now):
        self.engine = _Engine(now)


class _Capsule:
    """The minimal shape write_snapshot serializes (scenario + clock)."""

    def __init__(self, scenario="stub", now=12.5, payload=("a", "b")):
        self.scenario = scenario
        self.env = _Env(now)
        self.payload = payload


class TestRoundTrip:
    def test_write_then_read_restores_the_capsule(self, tmp_path):
        path = tmp_path / "snap.bass"
        meta = write_snapshot(path, _Capsule(payload=("x", 42)))
        assert meta.version == SNAPSHOT_VERSION
        assert meta.scenario == "stub"
        assert meta.sim_time_s == 12.5
        got_meta, capsule = read_snapshot(path)
        assert got_meta == meta
        assert capsule.payload == ("x", 42)
        assert capsule.env.engine.now == 12.5

    def test_header_is_one_json_line(self, tmp_path):
        path = tmp_path / "snap.bass"
        write_snapshot(path, _Capsule())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["magic"] == SNAPSHOT_MAGIC
        assert header["version"] == SNAPSHOT_VERSION
        assert header["payload_bytes"] > 0

    def test_inspect_validates_without_unpickling(self, tmp_path):
        path = tmp_path / "snap.bass"
        write_snapshot(path, _Capsule(scenario="fleet", now=3.0))
        meta = inspect_snapshot(path)
        assert isinstance(meta, SnapshotMeta)
        assert meta.scenario == "fleet"

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        path = tmp_path / "deep" / "snap.bass"
        write_snapshot(path, _Capsule())
        assert path.exists()
        assert not list(path.parent.glob("*.tmp"))

    def test_payload_is_the_capsule_alone(self, tmp_path):
        path = tmp_path / "snap.bass"
        write_snapshot(path, _Capsule(payload=("x", 42)))
        _, payload = path.read_bytes().split(b"\n", 1)
        assert pickle.loads(payload).payload == ("x", 42)


class TestRefuseToRestore:
    def _write(self, tmp_path, **kwargs):
        path = tmp_path / "snap.bass"
        write_snapshot(path, _Capsule(), **kwargs)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotCorruptError, match="cannot read"):
            read_snapshot(tmp_path / "nope.bass")

    def test_not_a_snapshot_at_all(self, tmp_path):
        path = tmp_path / "junk.bass"
        path.write_bytes(b"hello world\nnot a pickle")
        with pytest.raises(SnapshotCorruptError, match="header"):
            read_snapshot(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bass"
        path.write_bytes(b'{"magic": "other"}\n')
        with pytest.raises(SnapshotCorruptError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            read_snapshot(path)

    def test_corrupted_payload_digest_mismatch(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="digest"):
            read_snapshot(path)

    def test_version_drift(self, tmp_path):
        path = self._write(tmp_path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(
            json.dumps(doc, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotVersionError, match="refusing"):
            read_snapshot(path)

    def test_a_version_1_file_is_refused(self, tmp_path):
        path = self._write(tmp_path)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["version"] = 1
        path.write_bytes(
            json.dumps(doc, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotVersionError, match="version 1"):
            read_snapshot(path)

    def test_fingerprint_drift(self, tmp_path):
        path = self._write(tmp_path, fingerprint="0" * 64)
        with pytest.raises(SnapshotFingerprintError, match="refusing"):
            read_snapshot(path)

    def test_fingerprint_check_can_be_disabled(self, tmp_path):
        path = self._write(tmp_path, fingerprint="0" * 64)
        _, capsule = read_snapshot(path, check_fingerprint=False)
        assert capsule.payload == ("a", "b")

    def test_unpicklable_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "snap.bass"
        write_snapshot(path, _Capsule())
        header, _ = path.read_bytes().split(b"\n", 1)
        bogus = pickle.dumps({"capsule": None})  # valid pickle, wrong keys
        doc = json.loads(header)
        import hashlib

        doc["payload_bytes"] = len(bogus)
        doc["payload_sha256"] = hashlib.sha256(bogus).hexdigest()
        path.write_bytes(
            json.dumps(doc, sort_keys=True).encode() + b"\n" + bogus
        )
        with pytest.raises(SnapshotCorruptError, match="unpickle"):
            read_snapshot(path)

    def test_failed_restore_touches_nothing(self, tmp_path):
        """A raised SnapshotError leaves the snapshot's directory
        exactly as it was."""
        path = self._write(tmp_path)
        before_files = sorted(p.name for p in tmp_path.iterdir())
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before_files

    def test_errors_are_repro_errors(self):
        assert issubclass(SnapshotError, ReproError)
        for sub in (
            SnapshotCorruptError,
            SnapshotVersionError,
            SnapshotFingerprintError,
        ):
            assert issubclass(sub, SnapshotError)


class TestLatestCheckpoint:
    def test_missing_or_empty_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None
        assert latest_checkpoint(tmp_path) is None

    def test_newest_by_mtime_wins(self, tmp_path):
        import os

        # A later incarnation's periodic checkpoint must shadow the
        # earlier final-t snapshot despite sorting first by name.
        final = tmp_path / "final-t000060.bass"
        periodic = tmp_path / "checkpoint-e000005.bass"
        write_snapshot(final, _Capsule(now=60.0))
        write_snapshot(periodic, _Capsule(now=90.0))
        os.utime(final, (1000.0, 1000.0))
        os.utime(periodic, (2000.0, 2000.0))
        assert latest_checkpoint(tmp_path) == periodic
