"""Whole-ledger runs: every workload in a fresh child, tables, LEDGER.json.

``run_all`` is what ``python3 -m bench`` does without ``--workload``;
``repeat_check`` runs both passes twice and holds them to the bounds;
``--record`` rewrites ``bench/LEDGER.json`` (the catalogue generated
from the code tables plus the latest results and where they were taken).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from . import INFO_TAG, ROOT, layers, workloads

LEDGER = Path(__file__).resolve().parent / "LEDGER.json"

#: The workload predicted to stay flat when an optimisation targets this one.
FLAT_PARTNER = {
    "city_tick": "socialnet_mesh",
    "flow_churn": "city_tick",
    "socialnet_mesh": "city_tick",
    "fleet_epochs": "socialnet_mesh",
    "sweep_grid": "trace_replay",
    "trace_replay": "fleet_epochs",
}

OPS = {
    "city_tick": "one simulated tick (1 s engine slice)",
    "flow_churn": "one tick including its flow-set mutations",
    "socialnet_mesh": "one 10-sim-s slice of all four configurations (one engine slice each)",
    "fleet_epochs": "one 30-sim-s engine slice = one fleet epoch",
    "sweep_grid": "one sweep cell (duration reported by the runner)",
    "trace_replay": "one batch of emits (last op: close, read back, render report)",
}


def run_child(name: str, args, trace: int) -> tuple[dict, dict]:
    """Measure one workload in a fresh process: ``(result, info)``."""
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--reps", str(args.reps), "--trace", str(trace),
    ]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    info = next(
        (json.loads(line[len(INFO_TAG):]) for line in lines if line.startswith(INFO_TAG)), {}
    )
    return json.loads(lines[-1]), info


def run_pass(args, trace: int) -> dict:
    """Every workload, sequentially, one child each: ``{name: (result, info)}``."""
    results = {}
    for name in workloads.WORKLOADS:
        print(f"  running {name} ({'traced' if trace else 'untraced'}) ...", file=sys.stderr)
        results[name] = run_child(name, args, trace)
    return results


def print_end_to_end(results: dict) -> None:
    names = [row[0] for row in layers.END_TO_END]
    print(f"{'workload':<16}" + "".join(f"{n:>14}" for n in names) + f"{'failed':>12}  samples")
    for workload, (result, info) in results.items():
        cells = "".join(f"{result['metrics'][n]['value']:>14.4f}" for n in names)
        failed = f"{result['failed']}/{result['attempted']}"
        print(f"{workload:<16}{cells}{failed:>12}  {info.get('op_samples', '-')}")
    print("units: " + ", ".join(f"{n} [{layers.UNITS[n]}]" for n in names))
    for workload, (_, info) in results.items():
        print(f"sim_digest {workload:<16} {info.get('sim_digest')}")


def print_self_times(results: dict) -> None:
    """Per workload, the layers ranked by self time (seconds and share)."""
    for workload, (result, info) in results.items():
        metrics = result["metrics"]
        total = sum(m["value"] for n, m in metrics.items() if n.endswith("_s") and n not in layers.OVERLAYS)
        print(
            f"\n{workload}: traced set-up {metrics['bench.traced_setup_s']['value']:.3f} s + "
            f"rep {metrics['bench.traced_wall_s']['value']:.3f} s; "
            f"unattributed {metrics['bench.unattributed_frac']['value']:.3f}, "
            f"tracing overhead {metrics['bench.trace_overhead_frac']['value']:+.3f}"
        )
        layers_s = sorted(
            (
                (m["value"], name)
                for name, m in metrics.items()
                if name.endswith("_s") and m["value"] > 0 and name not in layers.OVERLAYS
            ),
            reverse=True,
        )
        for seconds, name in layers_s[:8]:
            print(f"  {name:<40} {seconds:>9.4f} s  {seconds / total:>6.1%}")
        if info.get("unwrapped_sites"):
            print(f"  unwrapped_sites: {info['unwrapped_sites']}")


def run_all(args) -> int:
    passes = (0, 1) if args.record else (args.trace,)
    taken = {trace: run_pass(args, trace) for trace in passes}
    if 0 in taken:
        print_end_to_end(taken[0])
    if 1 in taken:
        print_self_times(taken[1])
    if args.record:
        write_ledger(args, taken[0], taken[1])
    ok = all(result["correct"] for results in taken.values() for result, _ in results.values())
    return 0 if ok else 1


def repeat_check(args) -> int:
    """Both passes twice: bounds on end-to-end metrics, equality on counts."""
    first, second = run_pass(args, 0), run_pass(args, 0)
    ok = True
    print(f"{'workload':<16}{'metric':<14}{'run 1':>12}{'run 2':>12}{'diff':>9}{'bound':>8}")
    for workload in first:
        for name, _, _, bound in layers.END_TO_END:
            a = first[workload][0]["metrics"][name]["value"]
            b = second[workload][0]["metrics"][name]["value"]
            diff = abs(a - b) / min(a, b)
            verdict = "PASS" if diff <= bound else "FAIL"
            ok &= diff <= bound
            print(f"{workload:<16}{name:<14}{a:>12.4f}{b:>12.4f}{diff:>9.3f}{bound:>8.2f}  {verdict}")
    traced = run_pass(args, 1), run_pass(args, 1)
    for workload in first:
        digests = {run[workload][1].get("sim_digest") for run in (first, second, *traced)}
        moved = [
            name
            for name, unit, _, _ in layers.PER_LAYER
            if unit == "count"
            and traced[0][workload][0]["metrics"][name]["value"]
            != traced[1][workload][0]["metrics"][name]["value"]
        ]
        same = len(digests) == 1 and not moved
        ok &= same
        print(
            f"{workload:<16}sim_digest and count metrics "
            f"{'PASS' if same else 'FAIL'} {sorted(digests)} {moved}"
        )
    return 0 if ok else 1


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def catalogue() -> dict:
    """The static half of LEDGER.json, generated from the code tables."""
    return {
        "workloads": [
            {
                "name": name,
                "size": workloads.SIZES[name]["full"],
                "op": OPS[name],
                "min_reps": 3,
                "why": " ".join((cls.__doc__ or "").split()),
                "predicted_flat_partner": FLAT_PARTNER[name],
            }
            for name, cls in workloads.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in layers.END_TO_END
        ],
        "per_layer": [
            {"name": name, "layer": name.rsplit(".", 1)[0], "unit": unit, "better": better,
             "should_move": moves}
            for name, unit, better, moves in layers.PER_LAYER
        ],
        "interactions": (
            "Nothing contends (one thread), so a faster layer saves at most its self-time "
            "share of the op. Exceptions: sweep_grid (two workers share two cores with the "
            "driver, so freeing driver CPU can save more than its share) and setup_s (work "
            "moved out of the timed section, e.g. route precomputation, must show up there)."
        ),
    }


def write_ledger(args, untraced: dict, traced: dict) -> None:
    document = catalogue()
    document["results"] = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_rev": _git_rev(),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "workloads": {
            name: {
                "failed": untraced[name][0]["failed"],
                "attempted": untraced[name][0]["attempted"],
                "op_samples": untraced[name][1].get("op_samples"),
                "reps": untraced[name][1].get("reps"),
                "sim_digest": untraced[name][1].get("sim_digest"),
                "info": {
                    key: value
                    for key, value in untraced[name][1].items()
                    if key in ("backend", "jobs", "cells", "cloned_reps", "setups")
                },
                "end_to_end": {
                    key: metric["value"] for key, metric in untraced[name][0]["metrics"].items()
                },
                "traced_iterations": traced[name][1].get("traced_iterations"),
                "unwrapped_sites": traced[name][1].get("unwrapped_sites"),
                "per_layer": {
                    key: metric["value"]
                    for key, metric in traced[name][0]["metrics"].items()
                    if metric["value"]
                },
            }
            for name in untraced
        },
    }
    LEDGER.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {LEDGER}")
