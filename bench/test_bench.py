"""The ledger's own tests: tiny sizes, every metric named, checks that bite.

``python3 -m pytest bench -q`` from the repository root (seconds).
"""

from __future__ import annotations

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from . import INFO_TAG, ROOT, clock, layers, protocol, selftest, spans, workloads

BENCH = Path(__file__).resolve().parent
NAMES = tuple(workloads.WORKLOADS)

#: Modules of the program ``bench/`` may import (the stable surface).
ALLOWED_IMPORTS = {
    "repro.apps.base",
    "repro.apps.social",
    "repro.config",
    "repro.core.controlplane",
    "repro.core.dag",
    "repro.errors",
    "repro.experiments.common",
    "repro.experiments.thresholds",
    "repro.faults",
    "repro.mesh.node",
    "repro.mesh.topology",
    "repro.mesh.traces",
    "repro.net.netem",
    "repro.obs",
    "repro.obs.trace",
    "repro.runner",
}


@pytest.fixture(autouse=True)
def _scratch():
    yield
    protocol.remove_scratch()


def _assert_metrics(values: dict, expected: tuple) -> None:
    assert set(values) == set(expected)
    for name, value in values.items():
        assert math.isfinite(value), name
        assert layers.UNITS[name], name


@pytest.mark.parametrize("name", NAMES)
def test_untraced_pass_reports_every_end_to_end_metric(name):
    workload = workloads.make(name, tiny=True)
    correct, attempted, failed, values, info = protocol.measure(
        workload, seed=12, seconds=0.0, min_reps=2, import_s=0.1
    )
    assert correct and failed == 0 and attempted >= 1, info["problems"]
    _assert_metrics(values, tuple(row[0] for row in layers.END_TO_END))
    assert all(value > 0 for value in values.values())
    assert info["reps"] == 2 and len(info["sim_digest"]) == 64


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_reports_every_layer_metric_and_attributes_the_rep(name):
    workload = workloads.make(name, tiny=True)
    correct, _, failed, values, info = protocol.trace(
        workload, seed=12, seconds=0.0, import_s=0.1
    )
    assert correct and failed == 0, info["problems"]
    _assert_metrics(values, layers.PER_LAYER_NAMES)
    assert values["bench.spans_missing_n"] == 0, info["spans_missing"]
    assert values["bench.unattributed_frac"] <= 0.10, info["unwrapped_sites"]
    assert values["bench.traced_wall_s"] > 0


def test_self_times_sum_to_the_traced_phases():
    recorder = spans.Recorder()
    recorder.install()
    try:
        workload = workloads.make("flow_churn", tiny=True)
        with recorder.span(layers.SETUP_ROOT):
            state = workload.build(12)
        with recorder.span(layers.DRIVER_ROOT):
            workload.run(state, protocol.Driver(clock.Clock()))
    finally:
        recorder.uninstall()
    total = sum(seconds for seconds, _ in recorder.self_times().values())
    roots = sum(end - start for _, start, end, parent in recorder.spans if parent < 0)
    assert total == pytest.approx(roots, rel=1e-9)
    assert {"net.netem.tick", "net.fairness.incremental", "net.flows.rebuild"} <= set(
        recorder.self_times()
    )


def test_renamed_span_target_degrades_to_a_missing_count():
    renamed = (("net.netem.tick", "repro.net.netem", "NetworkEmulator.tick_renamed"),)
    recorder = spans.Recorder(targets=spans.TARGETS + renamed)
    _, _, failed, values, info = protocol.trace(
        workloads.make("city_tick", tiny=True), seed=12, seconds=0.0, import_s=0.1,
        recorder=recorder,
    )
    assert failed == 0
    assert values["bench.spans_missing_n"] == 1
    assert info["spans_missing"] == ["repro.net.netem:NetworkEmulator.tick_renamed"]


def test_every_invariant_can_fail():
    for name, _, corrupt in selftest.CASES:
        assert selftest.failed_fraction(name, 12) == 0.0, name
        assert selftest.failed_fraction(name, 12, corrupt) == 1.0, name


def test_the_command_prints_the_contract_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "trace_replay", "--tiny",
         "--seed", "12", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert lines[-2].startswith(INFO_TAG)
    for name, _, _, _ in layers.END_TO_END:
        assert result["metrics"][name]["unit"] == layers.UNITS[name]
    assert not (ROOT / protocol.SCRATCH).exists()


def test_benchmark_json_matches_the_code_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in manifest["workloads"]] == list(NAMES)
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in layers.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in layers.PER_LAYER
    ]


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []


def test_bench_imports_only_the_stable_surface():
    for path in sorted(BENCH.glob("*.py")):
        for module, names in _imports(path):
            if module == "repro" and path.name == "__main__.py":
                continue  # the bare ``import repro`` that times the import
            if module.split(".")[0] in ("repro", "benchmarks"):
                assert module in ALLOWED_IMPORTS, f"{path.name} imports {module}"
            assert not any(name.startswith("_") for name in names), (path.name, names)


def test_bench_avoids_what_the_collapse_will_delete():
    banned = ("solver=", "backend=", "chunk_size=", "steal=", "LinkQueue")
    for path in sorted(BENCH.glob("*.py")):
        if path.name == "test_bench.py":
            continue
        text = path.read_text()
        for word in banned:
            assert word not in text, f"{path.name} mentions {word}"
        tree = ast.parse(text)
        for node in ast.walk(tree):
            # No private attribute of the program (dunders and our own ``self._x`` aside).
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                assert own or node.attr.startswith("__"), f"{path.name}: .{node.attr}"
