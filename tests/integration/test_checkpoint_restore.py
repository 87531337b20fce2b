"""The checkpoint invariant, end to end: a run checkpointed at tick T
and restored (same process or a fresh one) must finish byte-identical
to the uninterrupted run — full cell results and JSONL traces alike."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.catalog import CATALOG, EXPERIMENTS
from repro.obs.stream import StreamingSink
from repro.obs.trace import Tracer, set_default_tracer
from repro.runner import canonical_json
from repro.snap import read_snapshot, write_snapshot

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every checkpointable row of the catalogue, and where to cut it: past
#: the throttle (fig13, fleet), the crash (churn), the orchestrator kill
#: (failover).  A new checkpointable row needs a cut here.
CHECKPOINTABLE = [row for row in CATALOG if row.checkpoint is not None]
CUT_S = {"fig13": 40.0, "churn": 70.0, "fleet": 70.0, "failover": 80.0}
#: Where the snapshot-bytes tests stop each row, snapshotting every
#: second epoch on the way.
STOP_AT = {"fig13": 80, "churn": 60, "fleet": 60, "failover": 60}


def _fresh(row):
    """The row's quick checkpoint cell, at its default region count."""
    return row.capsule_for(quick=True)


def _result(capsule):
    """Run to completion and encode the cell's full result, fleet's
    wall-clock ``decision_seconds`` blanked."""
    capsule.run_to_completion()
    document = canonical_json(capsule.result())
    return re.sub(r'"decision_seconds":\[[^\]]*\]', "", document).encode()


def _interrupted_result(row, cut_s, tmp_path):
    """Run to ``cut_s``, snapshot, discard, restore, finish."""
    capsule = _fresh(row)
    capsule.run_until(cut_s)
    path = tmp_path / f"{row.id}.bass"
    meta = write_snapshot(path, capsule)
    assert meta.sim_time_s == cut_s
    del capsule
    _, restored = read_snapshot(path)
    return _result(restored)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "row,cut_s",
        [(row, CUT_S[row.id]) for row in CHECKPOINTABLE],
        ids=[f"{row.id}-{CUT_S[row.id]}" for row in CHECKPOINTABLE],
    )
    def test_restore_matches_uninterrupted(self, row, cut_s, tmp_path):
        reference = _result(_fresh(row))
        restored = _interrupted_result(row, cut_s, tmp_path)
        assert restored == reference

    def test_streaming_trace_shards_survive_the_cut(self, tmp_path):
        """The invariant covers traces, not just results: concatenated
        shards of the resumed run equal the uninterrupted run's."""

        def run(shard_dir, cut_s=None):
            tracer = Tracer.with_instruments(
                sink=StreamingSink(shard_dir, window=64, shard_events=50)
            )
            previous = set_default_tracer(tracer)
            try:
                capsule = _fresh(EXPERIMENTS["churn"])
                if cut_s is not None:
                    capsule.run_until(cut_s)
                    path = shard_dir.parent / "cut.bass"
                    write_snapshot(path, capsule)
                    del capsule, tracer
                    _, capsule = read_snapshot(path)
                    set_default_tracer(capsule.env.tracer)
                result = _result(capsule)
                capsule.env.tracer.close()
            finally:
                set_default_tracer(previous)
            sink = StreamingSink(shard_dir)  # read side only
            shards = b"".join(p.read_bytes() for p in sink.shard_paths())
            return result, shards

        ref_result, ref_shards = run(tmp_path / "ref")
        cut_result, cut_shards = run(tmp_path / "cut", cut_s=70.0)
        assert cut_result == ref_result
        assert cut_shards == ref_shards
        assert len(ref_shards) > 0


def cli(*argv, hash_seed=None):
    """``bass-repro run *argv`` in a fresh interpreter; ``hash_seed``
    fixes ``PYTHONHASHSEED`` (and with it set iteration order)."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = str(REPO_ROOT / "src")
    if hash_seed is not None:
        environ["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", *argv],
        cwd=REPO_ROOT,
        env=environ,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result


class TestFreshProcessRestore:
    def test_cli_stop_restore_matches_uninterrupted(self, tmp_path):
        """The full invariant across a process boundary, via the CLI:
        run to t=70, checkpoint, restore in a *fresh* interpreter, run
        to completion — the ``--out`` document (the cell's full result)
        equals the uninterrupted run's byte for byte."""
        checkpoint_dir = tmp_path / "ckpt"
        cli(
            "churn", "--quick",
            "--checkpoint-dir", str(checkpoint_dir),
            "--stop-at", "70",
        )
        assert list(checkpoint_dir.glob("*.bass"))

        restored = tmp_path / "restored.json"
        cli(
            "churn", "--quick",
            "--restore-from", str(checkpoint_dir),
            "--out", str(restored),
        )

        reference = tmp_path / "reference.json"
        cli(
            "churn", "--quick",
            "--checkpoint-dir", str(tmp_path / "ref-ckpt"),
            "--out", str(reference),
        )
        assert restored.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("row", sorted(STOP_AT))
    def test_snapshots_are_the_same_bytes_run_to_run(self, row, tmp_path):
        """The same run snapshotted twice writes the same payloads: no
        wall-clock accounting (the plane's decision latencies, netem's
        phase times) rides along."""
        _snapshot_twice(row, tmp_path, lambda *argv: cli(*argv, hash_seed=0))


@pytest.mark.parametrize("row", sorted(STOP_AT))
def test_snapshots_do_not_depend_on_earlier_runs_in_the_process(row, tmp_path):
    """Two runs in one interpreter write the same bytes: no id the
    payload holds comes from a count the first run advanced."""
    _snapshot_twice(row, tmp_path, lambda *argv: main(["run", *argv]))


def _snapshot_twice(row, tmp_path, run):
    directory = tmp_path / "ckpt"
    runs = []
    for _ in range(2):
        shutil.rmtree(directory, ignore_errors=True)
        run(row, "--quick", "--checkpoint-dir", str(directory),
            "--checkpoint-every", "2", "--stop-at", str(STOP_AT[row]))
        runs.append({p.name: p.read_bytes() for p in directory.iterdir()})
    assert f"stop-t{STOP_AT[row]:06d}.bass" in runs[0]
    assert runs[0] == runs[1]


class TestPruningAfterRestore:
    """A restored run's checkpoint policy prunes only its own directory
    and keeps ``keep`` (3) periodic snapshots there.  fig13 runs ten
    epochs; cut at t=150 with a snapshot every epoch, then resumed from
    epoch 4."""

    @staticmethod
    def _periodic(directory):
        return sorted(p.name for p in directory.glob("checkpoint-e*.bass"))

    def _cut(self, tmp_path, capsys):
        first = tmp_path / "A"
        assert main(["run", "fig13", "--checkpoint-dir", str(first),
                     "--checkpoint-every", "1", "--stop-at", "150"]) == 0
        capsys.readouterr()
        assert self._periodic(first) == [
            "checkpoint-e000003.bass",
            "checkpoint-e000004.bass",
            "checkpoint-e000005.bass",
        ]
        return first

    def test_resuming_elsewhere_leaves_the_first_directory_alone(
        self, tmp_path, capsys
    ):
        first = self._cut(tmp_path, capsys)
        before = sorted(p.name for p in first.iterdir())
        second = tmp_path / "B"
        assert main(["run", "fig13", "--restore-from",
                     str(first / "checkpoint-e000004.bass"),
                     "--checkpoint-dir", str(second)]) == 0
        assert sorted(p.name for p in first.iterdir()) == before
        assert self._periodic(second) == [
            "checkpoint-e000008.bass",
            "checkpoint-e000009.bass",
            "checkpoint-e000010.bass",
        ]

    def test_resuming_in_place_prunes_the_snapshot_it_resumed_from(
        self, tmp_path, capsys
    ):
        first = self._cut(tmp_path, capsys)
        assert main(["run", "fig13", "--restore-from",
                     str(first / "checkpoint-e000004.bass"),
                     "--checkpoint-dir", str(first)]) == 0
        assert self._periodic(first) == [
            "checkpoint-e000008.bass",
            "checkpoint-e000009.bass",
            "checkpoint-e000010.bass",
        ]
