"""CLI tests: every catalogue row is listable and runnable, prints what
the golden says, and is offered exactly the flags its parts allow."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.catalog import CATALOG
from repro.obs.stream import StreamingSink
from repro.obs.trace import Tracer
from repro.runner import canonical_json, decode_value

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "cli"
REPORT_GOLDEN_DIR = REPO_ROOT / "tests" / "golden" / "report"
#: sha256 of each row's ``run <id> --quick --out`` document, but the
#: rows with a wall-clock column, whose documents carry the timings.
OUT_DIGESTS = dict(
    line.split()[::-1]
    for line in (REPO_ROOT / "tests" / "golden" / "out" / "sha256.txt")
    .read_text()
    .splitlines()
)
#: A bounded ``serve`` run: an ephemeral port, no serving past the horizon.
SERVE = ["serve", "--quick", "--port", "0", "--no-linger"]

#: The one column of each golden that prints wall-clock time.
WALL_CLOCK_COLUMN = {
    "fleet": "median_decision_ms",
    "table3": "avg_ms_per_component",
    "table4": "avg_ms",
}


def _mask_column(text, column):
    """Blank ``column`` in every body row of the table ``text`` prints
    (the body runs from the dashes line to the first empty line)."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if column in line.split())
    index = lines[header].split().index(column)
    for i in range(header + 2, len(lines)):
        if not lines[i].strip():
            break
        cells = lines[i].split()
        cells[index] = "~"
        lines[i] = "  ".join(cells)
    return "\n".join(lines)


def _mask_throughput(report):
    return re.sub(r"[0-9.]+ cells/s", "~ cells/s", report)


def _run_in_fresh_process(*argv):
    """``bass-repro run *argv`` in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", *argv],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def _assert_same_lines(got: bytes, want: bytes, what: str) -> None:
    """``got == want``, failing on the first line that differs."""
    assert want, f"{what}: the reference is empty"
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (line, expected) in enumerate(zip(got_lines, want_lines), 1):
        assert line == expected, (
            f"{what}, line {number}:\n  got  {line!r}\n  want {expected!r}"
        )
    assert len(got_lines) == len(want_lines), (
        f"{what}: {len(got_lines)} lines, want {len(want_lines)}"
    )


def _shards(directory: Path) -> bytes:
    return b"".join(p.read_bytes() for p in sorted(directory.glob("trace-*.jsonl")))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_tags_every_derived_capability(self, capsys):
        assert main(["list"]) == 0
        tags = {
            line.split()[0]: {w for w in line.split() if w.startswith("[")}
            for line in capsys.readouterr().out.splitlines()
        }
        for row in CATALOG:
            expected = set()
            if row.regions is not None:
                expected.add("[regions]")
            if row.checkpoint is not None:
                expected.add("[checkpoint]")
            if row.serve is not None:
                expected.add("[serve]")
            assert tags[row.id] == expected, row.id

    def test_every_benchmark_has_a_cli_entry(self):
        expected = {
            "fig2", "fig4", "fig5", "fig8", "fig10", "fig11", "fig12",
            "fig13", "fig14a", "fig14b", "fig14cd", "fig15b", "fig16",
            "multitenant", "fleet", "churn", "churnsweep", "failover",
            "ablations",
            "table1", "table2", "table3", "table4",
        }
        assert set(EXPERIMENTS) == expected

    @pytest.mark.parametrize(
        "experiment", ["fig2", "fig10", "table1", "table4", "churn"]
    )
    def test_run_quick(self, experiment, capsys):
        assert main(["run", experiment, "--quick"]) == 0
        out = capsys.readouterr().out
        assert experiment in out
        assert "---" in out  # a table was printed

    @pytest.mark.parametrize("experiment", [row.id for row in CATALOG])
    def test_run_quick_matches_golden(self, experiment, capsys, tmp_path):
        """``run <id> --quick`` stdout, recorded from the commit before
        the catalogue existed: the whole user-visible surface, byte for
        byte (a new row needs a golden recorded alongside it).  Every
        row also writes ``--out``: its cell results round-trip through
        the sweep codec, and the document's bytes match the pinned
        digest (rows without a wall-clock column)."""
        golden = (GOLDEN_DIR / f"{experiment}.txt").read_text()
        document = tmp_path / "out.json"
        assert main(["run", experiment, "--quick", "--out", str(document)]) == 0
        out = capsys.readouterr().out.replace(f"results: {document}\n", "")
        column = WALL_CLOCK_COLUMN.get(experiment)
        if column is not None:
            out, golden = _mask_column(out, column), _mask_column(golden, column)
        assert out == golden
        written = document.read_text()
        decoded = decode_value(json.loads(written))
        assert decoded and all(decoded.values())
        assert canonical_json(decoded) + "\n" == written
        if column is None:
            digest = hashlib.sha256(document.read_bytes()).hexdigest()
            assert digest == OUT_DIGESTS[experiment]

    @pytest.mark.parametrize(
        "experiment, recorder",
        [
            pytest.param(experiment, flag, id=experiment + suffix)
            for flag, suffix in (("--trace", ""), ("--trace-stream", "-stream"))
            for experiment in ("fig13", "fleet", "failover")
        ],
    )
    def test_report_matches_golden(self, experiment, recorder, capsys, tmp_path):
        """``run <id> --quick --trace`` → ``report`` stdout, recorded
        from the commit before the report read everything from one
        index: migrations with full cause chains (fig13), handoffs
        (fleet), a crash recovery (failover).  The same report comes out
        of the shard directory ``--trace-stream`` writes.  The
        ``sweeps:`` block's throughput is wall-derived, so it is masked
        on both sides."""
        golden = (REPORT_GOLDEN_DIR / f"{experiment}.txt").read_text()
        trace = tmp_path / "trace"
        assert main(["run", experiment, "--quick", recorder, str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cells/s" in out
        assert _mask_throughput(out) == _mask_throughput(golden)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig13", "--quick", "--out", "missing/o.json"],
             "--out missing/o.json: no such directory 'missing'"),
            (["run", "fig13", "--quick", "--out", "."],
             "--out .: is a directory"),
            (["run", "fig13", "--quick", "--trace", "missing/t.jsonl"],
             "--trace missing/t.jsonl: no such directory 'missing'"),
            (["run", "fig13", "--quick", "--trace-stream", "afile/shards"],
             "--trace-stream afile/shards: afile is not a directory"),
            (["run", "fig14cd", "--quick", "--cache-dir", "afile"],
             "--cache-dir afile: afile is not a directory"),
            (["run", "fig13", "--quick", "--checkpoint-dir", "afile/ck"],
             "--checkpoint-dir afile/ck: afile is not a directory"),
            ([*SERVE, "--stream-dir", "afile/shards"],
             "--stream-dir afile/shards: afile is not a directory"),
            ([*SERVE, "--checkpoint-dir", "afile"],
             "--checkpoint-dir afile: afile is not a directory"),
            (["report", "missing.jsonl"],
             "missing.jsonl: no such trace file or shard directory"),
            (["report", "."], ". holds no published trace-*.jsonl shard"),
        ],
    )
    def test_unusable_paths_are_usage_errors_before_any_work(
        self, argv, message, capsys, monkeypatch, tmp_path
    ):
        """Each of these used to run the whole experiment and then die
        with a traceback when it came to write (losing the result), or
        report a directory of nothing as an empty trace."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")

        def work(*args, **kwargs):
            raise AssertionError("work started before the path was checked")

        for name in ("_run_batch", "_run_cell", "serve_run", "read_trace"):
            monkeypatch.setattr(f"repro.cli.{name}", work)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_report_names_the_shard_still_being_written(
        self, capsys, tmp_path
    ):
        """A live run's directory holds only its ``.tmp`` shard until
        the first seal; ``report`` says so instead of printing an empty
        trace, and renders the shard once it is published."""
        sink = StreamingSink(tmp_path, shard_events=10)
        tracer = Tracer(sink=sink)
        tracer.emit("restart", 1.0, component="sfu")
        sink.flush()
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "trace-00000.jsonl.tmp is still being written" in (
            capsys.readouterr().err
        )
        tracer.close()
        assert main(["report", str(tmp_path)]) == 0
        assert "1 events" in capsys.readouterr().out

    def test_run_profile_prints_tick_breakdown(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                ["run", "fig13", "--quick", "--profile",
                 "--trace", str(trace)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "tick profile" in captured.err
        for phase in ("capacity_scan", "bookkeeping", "solve"):
            assert f"  {phase:<14s}" in captured.err
        assert "ms/tick" in captured.err
        # Phase time has one store; the profiler table times callbacks.
        assert "NetworkEmulator.tick[" not in captured.err
        # The wall-clock numbers stay off the deterministic stdout.
        assert "tick profile" not in captured.out
        # The trace carries the profile event; the report renders it.
        assert main(["report", str(trace)]) == 0
        assert "tick profile @" in capsys.readouterr().out

    def test_profile_rejected_for_non_checkpointable_experiments(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--quick", "--profile"])

    @pytest.mark.parametrize(
        "argv",
        [
            # The default value, spelled out, is still an explicit flag.
            ["run", "fig13", "--quick", "--regions", "2"],
            # Single-cell mode used to accept and silently ignore it.
            ["run", "fig13", "--quick", "--regions", "5", "--profile"],
        ],
    )
    def test_regions_rejected_where_the_row_does_not_take_it(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert "does not take it" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # No policy is attached without a directory to write into.
            (["run", "fig13", "--quick", "--checkpoint-every", "3"],
             "--checkpoint-every"),
            (["run", "fig13", "--quick", "--no-fingerprint-check"],
             "--no-fingerprint-check"),
            (["serve", "fig13", "--quick", "--checkpoint-every", "3"],
             "--checkpoint-every"),
        ],
    )
    def test_flags_rejected_where_they_would_be_ignored(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "fig13", "--quick", "--checkpoint-dir", "ck",
              "--stop-at", "nan"], "--stop-at"),
            (["run", "fig13", "--quick", "--checkpoint-dir", "ck",
              "--stop-at", "-5"], "--stop-at"),
            (["run", "fig13", "--quick", "--checkpoint-dir", "ck",
              "--checkpoint-every", "-1"], "--checkpoint-every"),
            (["run", "fig14cd", "--quick", "--jobs", "0"], "--jobs"),
            (["run", "fleet", "--quick", "--regions", "0"], "--regions"),
            ([*SERVE, "--duration", "nan"], "--duration"),
            ([*SERVE, "--duration", "-10"], "--duration"),
            ([*SERVE, "--pace", "-1"], "--pace"),
            ([*SERVE, "--status-every", "0"], "--status-every"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(
        self, argv, flag, capsys, monkeypatch, tmp_path
    ):
        """Each of these once ran (stopping at t=0, ticking forever,
        serving zero epochs) or died with a traceback."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_every_rejected_on_a_restore_that_keeps_its_cadence(
        self, capsys, tmp_path
    ):
        """A restored run keeps the policy it was checkpointed under, so
        a new cadence would be silently ignored."""
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", "churn", "--quick", "--checkpoint-dir", ckpt,
                     "--stop-at", "40"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["run", "churn", "--quick", "--restore-from", ckpt,
                  "--checkpoint-dir", ckpt, "--checkpoint-every", "3"])
        assert "every 5 epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, resume",
        [
            (["serve", "fig13", "--quick", "--port", "0", "--no-linger",
              "--checkpoint-dir"],
             "bass-repro serve churn --checkpoint-dir"),
            (["run", "fig13", "--quick", "--restore-from"],
             "bass-repro run churn --restore-from"),
        ],
    )
    def test_another_rows_snapshot_is_refused_from_its_header(
        self, argv, resume, capsys, monkeypatch, tmp_path
    ):
        """Both resume surfaces read the scenario off the snapshot
        header and refuse another row's snapshot before unpickling it,
        naming the command that does resume it."""
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", "churn", "--quick", "--checkpoint-dir", ckpt,
                     "--stop-at", "70"]) == 0
        capsys.readouterr()

        def unpickled(*args, **kwargs):
            raise AssertionError("the payload was unpickled")

        monkeypatch.setattr("repro.cli.read_snapshot", unpickled)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, ckpt])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "snapshots scenario 'churn'" in err
        assert resume in err

    def test_regions_sizes_the_single_cell_fleet_run(self, tmp_path):
        out = tmp_path / "fleet.json"
        assert main(["run", "fleet", "--quick", "--regions", "3",
                     "--profile", "--out", str(out)]) == 0
        (result,) = decode_value(json.loads(out.read_text()))[
            "fleet-scaling"
        ]
        assert result.regions == 3 and result.tenants == 6

    def test_jobs_flag_reaches_the_fabric_and_leaves_bytes_alone(
        self, tmp_path
    ):
        """``--jobs 1`` is the in-process loop, ``--jobs 2`` two warm
        workers taking one cell at a time.  Same bytes — on a row that
        was always a sweep and on one that used to loop by hand."""
        for experiment in ("fig14cd", "fig11"):
            outs = {}
            for jobs in ("1", "2"):
                out = tmp_path / f"{experiment}-jobs{jobs}.json"
                assert main(["run", experiment, "--quick", "--no-cache",
                             "--jobs", jobs, "--out", str(out)]) == 0
                outs[jobs] = out.read_bytes()
            assert outs["1"] and outs["1"] == outs["2"], experiment

    def test_runner_flags_reach_a_single_configuration_row(
        self, capsys, tmp_path
    ):
        """``fig2`` is one cell: ``--jobs 2`` is accepted (and runs it
        inline), and a second ``--cache-dir`` run replays it."""
        golden = (GOLDEN_DIR / "fig2.txt").read_text()
        argv = ["run", "fig2", "--quick", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert cold.out == golden
        assert "1 executed, 0 cached" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == golden
        assert "0 executed, 1 cached" in warm.err

    def test_two_fresh_processes_write_the_same_fig13_summary(self, tmp_path):
        """The structure-of-arrays tick core is deterministic across
        processes, and ``--profile`` (wall-clock accounting, stderr
        only) does not perturb the cell's result."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", "fig13",
                 "--quick", "--profile", "--out", str(out)],
                check=True, env=env, capture_output=True, timeout=300,
            )
            outs.append(out.read_bytes())
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("experiment, stop_at", [("fig13", 60), ("churn", 70)])
    def test_checkpoint_stop_restore_matches_the_uninterrupted_run(
        self, experiment, stop_at, tmp_path
    ):
        """Run to ``stop_at``, checkpoint and exit (a simulated kill);
        restore in a fresh process and run to the end: the ``--out``
        document — the cell's full result, as batch ``--out`` writes it
        — is the uninterrupted run's.  The checkpoint crosses
        the tick core mid-run, so flow and queue arrays and the
        incremental solver's retained state round-trip through the
        pickle — and its derived state (plans, certificates, label
        columns) must be rebuilt, not carried.  The reference keeps the
        same checkpoint cadence: deferred snapshot writes take engine
        event slots.  churn's streaming trace is wholly deterministic,
        so its concatenated shards must match as well (fig13's embeds
        ``placement.plan``'s wall-clock ``dag_processing_ms``)."""
        cadence = ("--checkpoint-every", "3")
        streamed = experiment == "churn"

        def stream(name):
            return ("--trace-stream", str(tmp_path / name)) if streamed else ()

        _run_in_fresh_process(
            experiment, "--quick", "--checkpoint-dir", str(tmp_path / "ck"),
            *cadence, "--stop-at", str(stop_at), *stream("shards-restored"),
        )
        _run_in_fresh_process(
            experiment, "--quick", "--restore-from", str(tmp_path / "ck"),
            "--out", str(tmp_path / "restored.json"),
        )
        _run_in_fresh_process(
            experiment, "--quick", "--checkpoint-dir", str(tmp_path / "ck-ref"),
            *cadence, *stream("shards-ref"), "--out", str(tmp_path / "reference.json"),
        )
        _assert_same_lines(
            (tmp_path / "restored.json").read_bytes(),
            (tmp_path / "reference.json").read_bytes(),
            f"{experiment} result",
        )
        if streamed:
            _assert_same_lines(
                _shards(tmp_path / "shards-restored"),
                _shards(tmp_path / "shards-ref"),
                f"{experiment} trace",
            )

    def test_stop_at_with_out_is_rejected_not_silently_dropped(
        self, capsys, tmp_path
    ):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit):
            main(
                ["run", "fig13", "--quick",
                 "--checkpoint-dir", str(tmp_path / "ckpt"),
                 "--stop-at", "30", "--out", str(out)]
            )
        assert "--restore-from ... --out" in capsys.readouterr().err
        # Rejected before anything was built or written.
        assert not out.exists()
        assert not (tmp_path / "ckpt").exists()

    def test_serve_offers_exactly_the_servable_rows(self, capsys):
        servable = [row.id for row in CATALOG if row.serve is not None]
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "{" + ",".join(servable) + "}" in capsys.readouterr().out
        unservable = next(row.id for row in CATALOG if row.serve is None)
        with pytest.raises(SystemExit):
            main(["serve", unservable])

    def test_no_experiment_id_is_spelled_outside_the_catalogue(self):
        """The CLI, the checkpoint subsystem and the status plane learn
        experiment ids from the table, never from a string literal."""
        sources = [
            REPO_ROOT / "src" / "repro" / "cli.py",
            REPO_ROOT / "src" / "repro" / "obs" / "serve.py",
            *sorted((REPO_ROOT / "src" / "repro" / "snap").glob("*.py")),
        ]
        for source in sources:
            literals = {
                node.value
                for node in ast.walk(ast.parse(source.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            }
            assert not literals & set(EXPERIMENTS), source

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig999"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
