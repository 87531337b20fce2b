"""Command-line entry point: regenerate any paper experiment.

Usage::

    bass-repro list
    bass-repro run fig10 [--quick]
    bass-repro run fig13 --quick --trace run.jsonl
    bass-repro run fig14cd --jobs 4 --cache-dir .bass-cache
    bass-repro run fig14cd --jobs 2 --no-cache --out sweep.json
    bass-repro report run.jsonl
    bass-repro run table2

``--quick`` trims horizons so a laptop regenerates an experiment in
seconds (shape-accurate, noisier numbers).  ``--trace`` arms the flight
recorder for the run and writes the decision-event log as JSONL;
``report`` renders a saved trace as a human-readable causal timeline.

What can be run, and what may be done with each experiment, is declared
once in :mod:`repro.experiments.catalog`; ``list`` tags every id with
the capabilities its catalogue row has.  Every experiment is a grid of
independent cells run through the sweep runner, so every ``run``
accepts ``--jobs N`` (``1`` runs the cells in this process; more hand
them out one at a time to N warm worker processes — see DESIGN.md
"Parallel sweeps"), ``--cache-dir PATH`` (memoize completed cells
content-addressed on disk; workers share the store directly),
``--no-cache``, and ``--out PATH`` (write the merged results as
canonical JSON — byte-identical across ``--jobs`` wherever the cells
measure no wall time).  ``[checkpoint]`` experiments also run as a
single checkpointable cell (``--checkpoint-dir`` / ``--stop-at`` /
``--restore-from`` / ``--profile``), ``[serve]`` ones tick live under
``bass-repro serve``, and ``[regions]`` ones take ``--regions N``.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .experiments.catalog import EXPERIMENTS, Experiment
from .obs.report import read_trace, render_report
from .obs.serve import serve_run
from .obs.stream import StreamingSink, shard_files
from .obs.trace import Tracer, set_default_tracer
from .runner import canonical_json, open_cache, run_sweep
from .snap import (
    SnapshotError,
    checkpoint_into,
    inspect_snapshot,
    latest_checkpoint,
    read_snapshot,
)


def _checked(cast, accept, expected: str):
    """An argparse ``type=``: cast, then refuse what ``accept`` rejects,
    so a bad number is a usage error that names its flag."""

    def parse(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            )
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid <name> value"
    return parse


# NaN fails every comparison, so the float checks refuse it too.
_positive_int = _checked(int, lambda v: v > 0, "an integer > 0")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_seconds = _checked(
    float, lambda v: 0 < v < math.inf, "a finite number > 0"
)
_seconds = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")


def _report_profile(capsule) -> None:
    """Where tick time went: print the phase/solver breakdown (stderr —
    stdout stays deterministic) and, when the run is traced, publish a
    ``profile.tick_phases`` event so ``bass-repro report`` and the
    instrument gauges carry the same numbers."""
    netem = capsule.env.netem
    phases = netem.tick_phase_stats()
    solver = netem.solver_stats()
    tracer = capsule.env.tracer
    if tracer.enabled:
        tracer.emit(
            "profile.tick_phases",
            capsule.engine.now,
            ticks=phases["ticks"],
            phase_seconds=phases["seconds"],
            solver=solver,
        )
    ticks = phases["ticks"]
    print(
        f"\ntick profile — {ticks} emulator tick(s), wall clock:",
        file=sys.stderr,
    )
    for phase, seconds in sorted(phases["seconds"].items()):
        per_ms = seconds / ticks * 1000.0 if ticks else 0.0
        print(
            f"  {phase:<14s} {seconds:9.3f}s total {per_ms:8.3f} ms/tick",
            file=sys.stderr,
        )
    print(
        f"  solver: {solver['full_solves']} full solve(s), "
        f"{solver['partial_solves']} partial, "
        f"{solver['components_resolved']} component(s) re-solved of "
        f"{solver['components']}",
        file=sys.stderr,
    )
    profiler = capsule.engine.profiler
    if profiler is not None:
        print(f"\n{profiler.render()}", file=sys.stderr)


def _check_flags(args, parser, row: Experiment) -> bool:
    """Validate the ``run`` flags against the capabilities the row's
    parts give it — before anything is built.  Returns whether this is
    a single-cell run (--checkpoint-dir / --stop-at / --restore-from /
    --profile) rather than the experiment's usual batch shape."""
    single_cell = bool(
        args.checkpoint_dir
        or args.restore_from
        or args.stop_at is not None
        or args.profile
    )
    runner_flags = (
        args.jobs != 1 or args.cache_dir is not None or args.no_cache
    )
    if args.regions is not None and row.regions is None:
        parser.error(
            f"--regions applies only to experiments tagged [regions] in "
            f"'bass-repro list'; {row.id!r} does not take it"
        )
    if args.checkpoint_every is not None and not args.checkpoint_dir:
        parser.error(
            "--checkpoint-every sets the cadence of a new checkpoint "
            "policy, so it needs --checkpoint-dir"
        )
    if args.no_fingerprint_check and not args.restore_from:
        parser.error("--no-fingerprint-check applies only to --restore-from")
    if not single_cell:
        return False
    if row.checkpoint is None:
        parser.error(
            f"--checkpoint-dir/--stop-at/--restore-from/--profile run a "
            f"single checkpointable cell; {row.id!r} is not one "
            f"(see the [checkpoint] tags in 'bass-repro list')"
        )
    if runner_flags:
        parser.error(
            "--jobs/--cache-dir/--no-cache do not apply to "
            "checkpointable runs (one cell, one process)"
        )
    if args.stop_at is not None:
        if not (args.checkpoint_dir or args.restore_from):
            parser.error("--stop-at needs --checkpoint-dir to write into")
        if args.out:
            parser.error(
                "--stop-at writes a checkpoint, not a result, so --out "
                "would write nothing; get the result from the resumed "
                "run: --restore-from ... --out PATH"
            )
    if args.restore_from and (args.trace or args.trace_stream):
        parser.error(
            "--trace/--trace-stream cannot start on a restored run: "
            "the checkpoint carries the original recorder, which "
            "resumes automatically (streamed shards keep appending "
            "to their original directory)"
        )
    return True


def _check_paths(parser, files=(), directories=()) -> None:
    """Refuse, before any work, a path the run could only fail on at
    the end: a file (``--out``, ``--trace``) whose directory does not
    exist, or a directory the run creates (``--trace-stream``,
    ``--cache-dir``) at or under a regular file.  ``files`` and
    ``directories`` are ``(flag, path)`` pairs; an unset path is
    skipped."""
    for flag, path in files:
        if not path:
            continue
        path = Path(path)
        if path.is_dir():
            parser.error(f"{flag} {path}: is a directory")
        if not path.parent.is_dir():
            parser.error(
                f"{flag} {path}: no such directory {str(path.parent)!r}"
            )
    for flag, path in directories:
        if not path:
            continue
        path = Path(path)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            parser.error(f"{flag} {path}: {existing} is not a directory")


def _read_capsule(parser, source: Path, scenario: str, resume, **kw):
    """Restore the snapshot at ``source`` into its capsule — the one
    restore path of ``run --restore-from`` and ``serve
    --checkpoint-dir``.

    A snapshot of another row than ``scenario`` is refused from its
    header, before anything is unpickled; ``resume(other)`` spells the
    command that would resume it.  ``kw`` goes to ``read_snapshot``.
    """
    try:
        meta = inspect_snapshot(source)
        if meta.scenario != scenario:
            parser.error(
                f"{source} snapshots scenario {meta.scenario!r}; resume "
                f"it with '{resume(meta.scenario)}'"
            )
        return read_snapshot(source, **kw)
    except SnapshotError as error:
        parser.error(str(error))


def _restore(args, parser):
    """Read ``--restore-from`` (a snapshot file, or the newest ``*.bass``
    in a directory) back into its capsule."""
    source = Path(args.restore_from)
    if source.is_dir():
        found = latest_checkpoint(source)
        if found is None:
            parser.error(f"no *.bass checkpoint found in {source}")
        source = found
    meta, capsule = _read_capsule(
        parser,
        source,
        args.experiment,
        lambda scenario: f"bass-repro run {scenario} --restore-from {source}",
        check_fingerprint=not args.no_fingerprint_check,
    )
    policy = capsule.control_plane.checkpoints
    if args.stop_at is not None and not args.checkpoint_dir and policy is None:
        parser.error(
            "--stop-at needs a checkpoint policy: pass --checkpoint-dir "
            "(the restored snapshot carries none)"
        )
    if args.checkpoint_every is not None and policy is not None:
        parser.error(
            f"{source} keeps the checkpoint cadence it was written under "
            f"(every {policy.every_k_epochs} epochs); drop --checkpoint-every"
        )
    print(
        f"restored {meta.scenario} from {source} at "
        f"t={meta.sim_time_s:.0f}s (epoch "
        f"{capsule.control_plane.epoch_count})"
    )
    return capsule


@contextmanager
def _tracing(args, restored) -> Iterator[None]:
    """The one place a run's flight recorder is armed and written.

    ``--trace`` / ``--trace-stream`` install a fresh recorder as the
    process default for the block (``build_env`` picks it up) and write
    it — JSONL file or sealed shards — once the block completes.  A
    restored capsule carries its original recorder instead, which is
    only sealed here.
    """
    if restored is not None:
        yield
        if restored.env.tracer.enabled:
            restored.env.tracer.close()
        return
    if not (args.trace or args.trace_stream):
        yield
        return
    sink = StreamingSink(args.trace_stream) if args.trace_stream else None
    tracer = Tracer.with_instruments(sink=sink)
    previous = set_default_tracer(tracer)
    try:
        yield
    finally:
        set_default_tracer(previous)
    if args.trace:
        tracer.to_jsonl(args.trace)
        print(
            f"\ntrace: {len(tracer.events)} events -> {args.trace} "
            f"(render with: bass-repro report {args.trace})"
        )
    else:
        tracer.close()
        print(
            f"\ntrace: {len(tracer)} events -> "
            f"{len(sink.shard_paths())} shard(s) in {args.trace_stream} "
            f"(render with: bass-repro report {args.trace_stream})"
        )


def _run_batch(args, row: Experiment, sizing: dict) -> Optional[str]:
    """Run the row's grids through the sweep runner and print its
    table; returns the ``--out`` document (canonical JSON of the merged
    results — byte-identical across ``--jobs``)."""
    print(f"== {row.id}: {row.description} ==\n")
    cache = None if args.no_cache else open_cache(args.cache_dir)
    outcomes = [
        run_sweep(spec, jobs=args.jobs, cache=cache)
        for spec in row.specs(**sizing)
    ]
    table = row.render(*outcomes)
    print(table.text())
    if table.note:
        print(f"\n{table.note}")
    for outcome in outcomes:
        stats = outcome.stats
        # Timing telemetry goes to stderr: stdout carries only the
        # deterministic experiment data, so two runs of the same
        # command always produce diff-identical stdout.
        print(
            f"\nsweep {outcome.spec.name}: {stats.cells} cells in "
            f"{stats.wall_s:.1f}s ({stats.cells_per_second:.2f} "
            f"cells/s, {stats.executed} executed, {stats.cached} "
            f"cached, cache hit rate {stats.cache_hit_rate:.0%})",
            file=sys.stderr,
        )
    if not args.out:
        return None
    return canonical_json({o.spec.name: o.results for o in outcomes})


def _run_cell(args, capsule, spec_name: str) -> Optional[str]:
    """Drive one checkpointable cell instead of the experiment's usual
    shape; returns the ``--out`` document — what batch ``--out`` writes
    for that one cell — or None on ``--stop-at``.

    The contract the checkpoint tests pin: stop at tick T, restore in a
    fresh process, run to completion — and the document and trace
    shards are byte-identical to an uninterrupted run with the same
    checkpoint cadence attached.
    """
    policy = capsule.control_plane.checkpoints
    if args.checkpoint_dir:
        policy = checkpoint_into(
            capsule,
            args.checkpoint_dir,
            every_k_epochs=_checkpoint_every(args),
        )
    if args.profile:
        # Idempotent; restored capsules start with zeroed phase
        # accumulators (the checkpoint drops wall-clock accounting).
        capsule.engine.enable_profiling()
    document = None
    if args.stop_at is not None:
        reached = capsule.run_until(args.stop_at)
        path = policy.write(label=f"stop-t{int(reached):06d}")
        print(f"stopped at t={reached:.0f}s; checkpoint -> {path}")
    else:
        capsule.run_to_completion()
        print(
            f"{spec_name}: ran to t={capsule.engine.now:.0f}s "
            f"({capsule.control_plane.epoch_count} epochs)"
        )
        if args.out:
            document = canonical_json({spec_name: [capsule.result()]})
    if args.profile:
        # Emit before the trace is written/sealed so the report's
        # profile section sees the event.
        _report_profile(capsule)
    return document


def _checkpoint_every(args) -> int:
    return 5 if args.checkpoint_every is None else args.checkpoint_every


def _run(args, parser) -> int:
    """``bass-repro run``: check the flags against the catalogue row,
    then drive it — batch or single-cell — under one tracing block."""
    row = EXPERIMENTS[args.experiment]
    single_cell = _check_flags(args, parser, row)
    _check_paths(
        parser,
        files=[("--out", args.out), ("--trace", args.trace)],
        directories=[
            ("--trace-stream", args.trace_stream),
            ("--cache-dir", args.cache_dir),
            ("--checkpoint-dir", args.checkpoint_dir),
        ],
    )
    restored = _restore(args, parser) if args.restore_from else None
    with _tracing(args, restored):
        if single_cell:
            spec, _ = row.checkpoint_cell(args.quick, args.regions)
            capsule = (
                restored
                if restored is not None
                else row.capsule_for(args.quick, args.regions)
            )
            document = _run_cell(args, capsule, spec.name)
        else:
            sizing = row.sizing(args.quick, args.regions)
            document = _run_batch(args, row, sizing)
    if args.out and document is not None:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        print(f"results: {args.out}")
    return 0


def _serve(args, parser) -> int:
    """``bass-repro serve``: resume the killed run from the newest
    snapshot in ``--checkpoint-dir`` if there is one — the snapshot
    supplies horizon, sizing, trace sink and status cadence — or else
    build the row's checkpoint cell fresh under a new instrumented
    recorder; then tick it live."""
    if args.checkpoint_every is not None and not args.checkpoint_dir:
        parser.error("--checkpoint-every needs --checkpoint-dir")
    _check_paths(
        parser,
        directories=[
            ("--stream-dir", args.stream_dir),
            ("--checkpoint-dir", args.checkpoint_dir),
        ],
    )
    source = (
        latest_checkpoint(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    capsule = None
    if source is not None:
        meta, capsule = _read_capsule(
            parser,
            source,
            args.scenario,
            lambda scenario: f"bass-repro serve {scenario} "
            f"--checkpoint-dir {args.checkpoint_dir}",
        )
        if capsule.control_plane.status is None:
            parser.error(
                f"{source} has no status plane attached — it was written "
                "by 'bass-repro run', not 'bass-repro serve'; restore it "
                "with 'bass-repro run --restore-from' instead"
            )
        tracer = capsule.env.tracer
        print(
            f"resuming {meta.scenario} from {source} at "
            f"t={meta.sim_time_s:.0f}s (epoch "
            f"{capsule.control_plane.epoch_count}, status revision "
            f"{capsule.control_plane.status.revision})"
        )
    else:
        sink = StreamingSink(args.stream_dir) if args.stream_dir else None
        tracer = Tracer.with_instruments(sink=sink)
    previous = set_default_tracer(tracer)
    try:
        if capsule is None:
            row = EXPERIMENTS[args.scenario]
            capsule = row.capsule_for(args.quick, **row.serve)
            if args.duration is not None:
                capsule.duration_s = args.duration
        return serve_run(
            capsule,
            host=args.host,
            port=args.port,
            pace=args.pace,
            status_path=args.status_path,
            status_every=args.status_every,
            linger=not args.no_linger,
            policy=(
                checkpoint_into(
                    capsule,
                    args.checkpoint_dir,
                    every_k_epochs=_checkpoint_every(args),
                )
                if args.checkpoint_dir
                else None
            ),
        )
    finally:
        set_default_tracer(previous)


def _report(args, parser) -> int:
    """``bass-repro report``: render a trace file or shard directory.

    A directory with no published shard is refused rather than shown
    as an empty trace: a live run's directory holds only its in-progress
    ``.tmp`` shard until that shard fills or the run closes.
    """
    path = Path(args.trace)
    if path.is_dir():
        if not shard_files(path):
            message = f"{path} holds no published trace-*.jsonl shard"
            pending = next(path.glob("trace-*.jsonl.tmp"), None)
            if pending is not None:
                message += (
                    f"; {pending.name} is still being written (a shard is "
                    "published when it fills or its run closes)"
                )
            parser.error(message)
    elif not path.is_file():
        parser.error(f"{path}: no such trace file or shard directory")
    print(render_report(read_trace(path)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bass-repro",
        description="Regenerate the BASS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment")
    runner.add_argument("experiment", choices=sorted(EXPERIMENTS))
    runner.add_argument(
        "--quick",
        action="store_true",
        help="shorter horizons; shape-accurate but noisier",
    )
    # One recorder per run: the shard directory already concatenates
    # to the --trace output.
    tracing = runner.add_mutually_exclusive_group()
    tracing.add_argument(
        "--trace",
        metavar="PATH",
        help="record the run's decision events to a JSONL trace file",
    )
    tracing.add_argument(
        "--trace-stream",
        metavar="DIR",
        help="record the run's decision events as rotating JSONL shards "
        "in DIR (bounded memory; concatenation equals --trace output)",
    )
    runner.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes the experiment's cells are handed to "
        "(results stay byte-identical to --jobs 1; with --trace, only "
        "cells run in this process record their in-cell events)",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="memoize completed cells in this content-addressed "
        "cache directory (shared directly by the workers)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="disable cell memoization even when --cache-dir is set",
    )
    runner.add_argument(
        "--out",
        metavar="PATH",
        help="write the merged cell results as canonical JSON "
        "(byte-identical across --jobs settings)",
    )
    runner.add_argument(
        "--regions",
        type=_positive_int,
        default=None,  # resolved to the catalogue row's default
        metavar="N",
        help="region count for the fleet experiment",
    )
    runner.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="run the experiment as a single checkpointable cell and "
        "write versioned snapshots here (periodically, and on --stop-at)",
    )
    runner.add_argument(
        "--checkpoint-every",
        type=_count,
        default=None,  # resolved to 5 where a new policy is attached
        metavar="K",
        help="write a checkpoint every K controller epochs "
        "(0 disables periodic writes; default 5; needs --checkpoint-dir)",
    )
    runner.add_argument(
        "--stop-at",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="stop the run at this simulated time and write one "
        "checkpoint instead of a result (requires --checkpoint-dir)",
    )
    runner.add_argument(
        "--restore-from",
        metavar="PATH",
        help="resume from a snapshot file (or the newest *.bass in a "
        "directory) and run to completion; the result is byte-identical "
        "to the uninterrupted run",
    )
    runner.add_argument(
        "--no-fingerprint-check",
        action="store_true",
        help="restore a snapshot written by different repro code "
        "(the restored run may diverge; use only for inspection)",
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="profile the tick hot path (single-cell scenarios): print "
        "per-phase timings and the engine profiler table to stderr, and "
        "record a profile.tick_phases trace event when tracing",
    )
    reporter = sub.add_parser(
        "report", help="render a saved trace as a causal run report"
    )
    reporter.add_argument(
        "trace",
        help="JSONL trace written by run --trace, or a shard directory "
        "written by run --trace-stream / serve --stream-dir",
    )
    server = sub.add_parser(
        "serve",
        help="tick a scenario live and serve /metrics, /v1/status, "
        "/v1/epoch (see DESIGN.md 'Live status plane')",
    )
    servable = [row.id for row in EXPERIMENTS.values() if row.serve is not None]
    server.add_argument(
        "scenario",
        nargs="?",
        default=servable[0],
        choices=servable,
        help=f"which live scenario to tick (default: {servable[0]})",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port",
        type=int,
        default=8791,
        help="listen port (0 picks an ephemeral port)",
    )
    server.add_argument(
        "--quick", action="store_true", help="shorter simulated horizon"
    )
    server.add_argument(
        "--duration",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="override the scenario's simulated horizon",
    )
    server.add_argument(
        "--pace",
        type=_seconds,
        default=0.0,
        metavar="X",
        help="simulated seconds advanced per wall second "
        "(0 = as fast as possible)",
    )
    server.add_argument(
        "--status-path",
        default="status.json",
        metavar="PATH",
        help="where the epoch-managed status.json is published",
    )
    server.add_argument(
        "--status-every",
        type=_positive_int,
        default=5,
        metavar="K",
        help="publish status.json every K controller epochs",
    )
    server.add_argument(
        "--stream-dir",
        metavar="DIR",
        help="stream the run's trace as rotating JSONL shards in DIR",
    )
    server.add_argument(
        "--no-linger",
        action="store_true",
        help="exit when the simulated horizon completes instead of "
        "serving until SIGINT/SIGTERM",
    )
    server.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write periodic snapshots here (plus a final one on "
        "SIGTERM); if DIR already holds a checkpoint, resume the "
        "killed run from it instead of starting fresh",
    )
    server.add_argument(
        "--checkpoint-every",
        type=_count,
        default=None,  # resolved to 5 where it is used
        metavar="K",
        help="checkpoint every K controller epochs (default 5; needs "
        "--checkpoint-dir)",
    )
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve(args, parser)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            row = EXPERIMENTS[name]
            tags = "".join(f" [{tag}]" for tag in row.capabilities)
            print(f"{name:12s} {row.description}{tags}")
        return 0

    if args.command == "report":
        return _report(args, parser)

    return _run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
