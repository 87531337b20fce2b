"""Alternating parent/change pairs of ``python3 -m bench`` runs.

A perf change is judged on pairs: each pair runs one workload once on
each tree, back to back, and the side that runs first alternates from
pair to pair so neither side always meets the warmer (or colder) host.
Each tree runs from a fresh copy of its tracked files with no
``__pycache__``, and writes no bytecode while it runs, so both sides pay
the same cold imports.

    python3 benchmarks/pairs.py PARENT CHANGE --workload socialnet_mesh \\
        --seed 11 --pairs 10 --out benchmarks/results/perf_x_pairs.txt

``PARENT`` and ``CHANGE`` are git trees: ``DIR`` copies the files
tracked in DIR's index as they are on disk, ``DIR@REV`` the files of
commit REV (``git archive``).  Per run it prints one line

    <workload> <seed> <side> wall_s=... op_ms_p50=... op_ms_p95=...
    setup_s=... peak_rss_mb=... failed N correct B digest <12 hex> first <side>

and after the last pair a summary per end-to-end metric: each side's
median and quartiles, the change's median relative to the parent's, and
how many pairs the change won.  ``--out`` appends the block to a file.
Exits 1 when a run fails, reports ``correct`` false or ``failed`` > 0,
or the two sides' ``sim_digest`` differ.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: End-to-end metrics in BENCHMARK.json order; all are lower-is-better.
METRICS = ("wall_s", "op_ms_p50", "op_ms_p95", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
INFO_TAG = "BENCH_INFO "


def copy_tree(spec: str, into: Path) -> Path:
    """Copy the tracked files ``spec`` names (``DIR`` or ``DIR@REV``)
    into the new directory ``into``, leaving out ``__pycache__``."""
    root, _, rev = spec.partition("@")
    into.mkdir(parents=True)
    if rev:
        archive = subprocess.run(
            ["git", "-C", root, "archive", "--format=tar", rev],
            check=True,
            capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            members = [m for m in tar.getmembers() if "__pycache__" not in m.name]
            # ``filter="data"`` where this Python has extraction filters.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(into, members=members, **safe)
        return into
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-z"], check=True, capture_output=True
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = Path(root, name)
        if "__pycache__" in Path(name).parts or not source.is_file():
            continue  # bytecode, or deleted from the working tree
        target = into / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
    return into


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One ``python3 -m bench --workload`` run in ``tree``: the result
    object plus ``sim_digest``, or ``{"error": ...}``."""
    command = [
        sys.executable, "-m", "bench", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(INFO_TAG):
            result["sim_digest"] = json.loads(line[len(INFO_TAG):]).get("sim_digest")
    return result


def format_run(workload: str, seed: int, side: str, first: str, result: dict) -> str:
    if "error" in result:
        return f"{workload} {seed} {side} error {result['error']!r} first {first}"
    values = " ".join(
        f"{name}={result['metrics'][name]['value']:.4f}" for name in METRICS
    )
    digest = (result.get("sim_digest") or "?")[:12]
    return (
        f"{workload} {seed} {side} {values} failed {result['failed']} "
        f"correct {result['correct']} digest {digest} first {first}"
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(workload: str, seed: int, pairs: list[dict]) -> list[str]:
    """Per metric: medians with quartiles, change vs parent, wins."""
    lines = []
    for name in METRICS:
        sides = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in SIDES
        }
        (p1, pm, p3), (c1, cm, c3) = (quartiles(sides[side]) for side in SIDES)
        wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        lines.append(
            f"summary {workload} {seed} {name}: parent {pm:.4f} [{p1:.4f}-{p3:.4f}] "
            f"change {cm:.4f} [{c1:.4f}-{c3:.4f}] {100.0 * (cm - pm) / pm:+.1f} % "
            f"wins {wins}/{len(pairs)} (|median diff| {abs(cm - pm):.4f} "
            f"vs parent IQR {p3 - p1:.4f})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/pairs.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="DIR or DIR@REV: the baseline tree")
    parser.add_argument("change", help="DIR or DIR@REV: the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny size")
    parser.add_argument("--out", type=Path, help="append the block to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        try:
            trees = {
                side: copy_tree(spec, workdir / side)
                for side, spec in zip(SIDES, (args.parent, args.change))
            }
        except subprocess.CalledProcessError as error:
            print(f"pairs.py: not a git tree or revision: {error.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        block = [
            f"{args.workload}, seed {args.seed}, {args.pairs} pairs"
            f"{' (tiny)' if args.tiny else ''}; --seconds {args.seconds:g}; "
            f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}"
        ]
        print(block[0], flush=True)
        pairs, ok = [], True
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], args)
                line = format_run(args.workload, args.seed, side, order[0], pair[side])
                print(line, flush=True)
                block.append(line)
            pairs.append(pair)
        results = [pair[side] for pair in pairs for side in SIDES]
        if any("error" in r or r["correct"] is not True or r["failed"] for r in results):
            ok = False
            block.append(f"FAIL {args.workload} {args.seed}: a run failed or is not correct")
        else:
            block.extend(summarize(args.workload, args.seed, pairs))
            digests = {r.get("sim_digest") for r in results}
            if len(digests) == 1:
                block.append(f"digests equal: {digests.pop()}")
            else:
                ok = False
                block.append(f"FAIL digests differ: {sorted(map(str, digests))}")
        for line in block[1 + 2 * args.pairs:]:
            print(line, flush=True)
        if args.out is not None:
            with args.out.open("a") as out:
                out.write("\n".join(block) + "\n\n")
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
