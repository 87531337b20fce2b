"""Golden determinism pins for the sweep refactor.

Each test replays the *pre-refactor serial loop* by hand — the exact
loop body the experiment modules ran before the sweep runner existed —
and requires the runner's output to be byte-identical (canonical JSON)
at ``jobs=1`` (the in-process loop), at ``jobs=2`` and ``jobs=4`` (the
work-stealing fabric, cold), and on a warm replay of each run's cache.
This is the acceptance contract of the refactor: parallelism, chunk
layout, work-stealing, and memoization are pure wall-clock
optimizations, invisible in the data.

Horizons are trimmed (tens of simulated seconds) so the whole module
stays in the tier-1 fast path; the full-scale grids go through the
same code paths.
"""

import numpy as np

from repro.apps.workload import ExponentialArrivals, FixedRate
from repro.experiments.ablations import (
    ablate_hybrid_heuristic,
    ablate_routing_strategy,
    ablation_grid_spec,
)
from repro.experiments.churn import (
    churn_recovery,
    churn_seed_sweep_spec,
)
from repro.experiments.thresholds import (
    _run_threshold_config,
    fig14cd_sweep_spec,
    fig16_sweep_spec,
)
from repro.faults import seeded_churn
from repro.mesh.topology import citylab_subset
from repro.runner import ResultCache, canonical_json, run_sweep
from repro.sim.rng import RngStreams

FIG14CD_GRID = dict(
    heuristics=("longest_path",),
    thresholds=(0.25, 0.75),
    headrooms=(0.10, 0.30),
    rps=50.0,
    duration_s=60.0,
    seed=144,
)
FIG16_GRID = dict(
    thresholds=(0.25, 0.75),
    mean_rps=50.0,
    headroom=0.20,
    duration_s=60.0,
    seed=16,
)


def assert_runner_matches_serial(spec, serial_results, tmp_path):
    """Serial loop == ``jobs`` in {1, 2, 4} == warm replay of what each
    of them cached, byte-for-byte."""
    golden = canonical_json(serial_results)
    for jobs in (1, 2, 4):
        root = tmp_path / f"cache-{jobs}"
        cold = run_sweep(spec, jobs=jobs, cache=ResultCache(root))
        assert cold.stats.backend == ("serial" if jobs == 1 else "queue")
        assert cold.stats.executed == len(spec.cells)
        assert cold.to_canonical_json() == golden
        warm = run_sweep(spec, jobs=jobs, cache=ResultCache(root))
        assert warm.stats.cache_hit_rate == 1.0
        assert warm.to_canonical_json() == golden


def test_fig14cd_sweep_matches_pre_refactor_serial_loop(tmp_path):
    grid = FIG14CD_GRID
    serial = [
        _run_threshold_config(
            heuristic=heuristic,
            threshold=threshold,
            headroom=headroom,
            workload=FixedRate(grid["rps"]),
            duration_s=grid["duration_s"],
            seed=grid["seed"],
        )
        for heuristic in grid["heuristics"]
        for threshold in grid["thresholds"]
        for headroom in grid["headrooms"]
    ]
    assert_runner_matches_serial(
        fig14cd_sweep_spec(**grid), serial, tmp_path
    )


def test_fig16_sweep_matches_pre_refactor_serial_loop(tmp_path):
    grid = FIG16_GRID
    serial = [
        _run_threshold_config(
            heuristic="longest_path",
            threshold=threshold,
            headroom=grid["headroom"],
            workload=ExponentialArrivals(
                grid["mean_rps"],
                rng=np.random.default_rng(
                    grid["seed"] + int(threshold * 100)
                ),
            ),
            duration_s=grid["duration_s"],
            seed=grid["seed"],
        )
        for threshold in grid["thresholds"]
    ]
    assert_runner_matches_serial(
        fig16_sweep_spec(**grid), serial, tmp_path
    )


def test_churn_seed_sweep_matches_pre_refactor_serial_loop(tmp_path):
    seeds, settle_s = (0, 1, 2), 40.0
    serial = []
    for seed in seeds:
        topology = citylab_subset(with_traces=False)
        movable = [n for n in topology.worker_names if n != "node1"]
        plan = seeded_churn(
            topology,
            RngStreams(seed),
            duration_s=settle_s,
            crash_count=1,
            candidates=movable,
        )
        crash = plan.events[0]
        serial.append(
            churn_recovery(
                seed=seed,
                duration_s=crash.at_s + settle_s,
                crash_node=crash.node,
                crash_at_s=crash.at_s,
            )
        )
    assert_runner_matches_serial(
        churn_seed_sweep_spec(seeds=seeds, settle_s=settle_s),
        serial,
        tmp_path,
    )


def test_ablation_grid_matches_direct_calls(tmp_path):
    include = ("hybrid_heuristic", "routing_strategy")
    serial = [
        ablate_hybrid_heuristic(node_cores=6.0, n_nodes=3),
        ablate_routing_strategy(),
    ]
    spec = ablation_grid_spec(include=include)
    assert [cell.label for cell in spec.cells] == list(include)
    assert_runner_matches_serial(spec, serial, tmp_path)
