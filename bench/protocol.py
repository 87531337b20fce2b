"""The run protocol shared by every workload.

One process measures one workload.  Set-up (import, scenario build, one
warm-up op) is timed separately from the timed section; the timed
section repeats from identical post-set-up state (a rebuild, or a
pickle round trip once rebuilding costs a second) until ``--seconds``
of measured time has been spent; ``wall_s`` is the median rep and op
percentiles are taken over each op's median time across the reps.  Ops are timed from outside the
program with ``perf_counter``.  The traced variant measures two plain
reps for reference, then wraps the program's entry points
(``bench.spans``) and reduces each traced set-up + rep to per-layer
values.

Host speed is part of the protocol: every time is quoted at reference
host speed through a :class:`~bench.clock.Clock` sampled around (and,
between ops, inside) everything timed; raw medians are kept in
``BENCH_INFO`` beside the reported values.  See ``bench/clock.py``.
"""

from __future__ import annotations

import gc
import pickle
import resource
import shutil
import traceback
from dataclasses import dataclass, field
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from . import ROOT, layers
from .checks import sim_digest
from .clock import SPIN_EVERY_S, SPIN_REF_S, Clock
from .spans import Recorder

#: Builds timed per run before the protocol may fall back to clones.
SETUP_SAMPLES = 3
#: Set-ups cheaper than this are simply rebuilt for every rep.
REBUILD_BELOW_S = 1.0
#: Hard stop on reps per run (a sanity bound, far above any real run).
MAX_REPS = 64
#: Scratch space for sinks and caches; inside the checkout, removed on exit.
SCRATCH = ROOT / ".bench_scratch"


@dataclass
class Outcome:
    """What a workload reports about one finished rep."""

    #: Canonical simulated statistics; equal across reps of one seed.
    stats: object
    #: Invariant violations (any one marks every op of the run failed).
    problems: list = field(default_factory=list)
    #: Ops that failed on their own (unroutable flow, failed cell, ...).
    failed: int = 0
    #: Deterministic counts and workload-computed per-layer values.
    counters: dict = field(default_factory=dict)
    #: Printed as info, never compared (backend names, sizes, ...).
    info: dict = field(default_factory=dict)


class Driver:
    """Times ops from outside the program and survives a failing op."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        #: ``(start, end, raw seconds)`` per op; ``end`` bounds the slowdown window.
        self.ops: list[tuple[float, float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        #: Largest engine backlog seen between ops (a deterministic count).
        self.pending_max = 0
        #: Raw seconds the clock's own samples took inside this rep.
        self.sampling_s = 0.0
        self._sample_due = 0.0

    def op(self, fn, *args) -> None:
        start = perf_counter()
        try:
            fn(*args)
        except Exception:  # an op that raises is a failed op, not a crash
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
        end = perf_counter()
        self.ops.append((start, end, end - start))
        self.sampling_s += self.sample_if_due(end)

    def sample_if_due(self, now: float) -> float:
        """Take a host-speed sample unless one was taken recently; seconds spent."""
        if now < self._sample_due:
            return 0.0
        done = self.clock.sample()
        self._sample_due = done + SPIN_EVERY_S
        return done - now

    def record(self, start: float, end: float, seconds: list) -> None:
        """Ops timed elsewhere (sweep cells) that ran inside ``[start, end]``."""
        self.ops.extend((start, end, value) for value in seconds)

    def op_seconds(self) -> tuple[list, list]:
        """``(at reference speed, raw)`` seconds per op."""
        slowdown = self.clock.slowdown
        raw = [seconds for _, _, seconds in self.ops]
        return [s / slowdown(start, end) for start, end, s in self.ops], raw


class Workload:
    """One named workload at one size.  Subclasses fill in the hooks."""

    name = ""
    #: Whether a built state survives ``pickle`` (the checkpoint path).
    clonable = False

    def __init__(self, size: dict) -> None:
        self.size = size

    def build(self, seed: int):
        """Set-up: everything up to ready-to-step, one warm-up op included."""
        raise NotImplementedError

    def engines(self, state) -> list:
        """Simulation engines of a built state (profiled when traced)."""
        return []

    def run(self, state, driver: Driver) -> None:
        """The timed section: a fixed amount of simulated work."""
        raise NotImplementedError

    def verify(self, state, driver: Driver) -> Outcome:
        """Untimed: invariants, digest inputs and counters of one rep."""
        raise NotImplementedError

    def audit(self, seed: int, outcomes: list, clock, traced: bool) -> tuple[list, dict]:
        """Untimed, once per run: cross-rep checks; extra traced counters."""
        return [], {}


def scratch_dir(tag: str) -> Path:
    """A fresh directory under the checkout's scratch root."""
    SCRATCH.mkdir(exist_ok=True)
    index = 0
    while True:
        path = SCRATCH / f"{tag}-{index}"
        try:
            path.mkdir()
            return path
        except FileExistsError:
            index += 1


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def clone_state(state):
    """The checkpoint round trip: ``(restored copy, payload bytes)``."""
    blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child, MiB."""
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak / 1024.0  # Linux reports KiB


@dataclass
class Rep:
    """One finished rep: times at reference host speed beside the raw ones."""

    wall_s: float
    raw_wall_s: float
    op_s: list
    raw_op_s: list
    outcome: Outcome


def _one_rep(workload: Workload, state, clock: Clock, recorder=None) -> Rep:
    """Run and verify one rep.

    The wall is scaled by the ops' own time-weighted slowdown, so a slow
    patch inside a rep is charged to the ops it hit rather than averaged
    over the rep.
    """
    driver = Driver(clock)
    gc.collect()
    start = clock.sample(2)
    with recorder.span(layers.DRIVER_ROOT) if recorder is not None else nullcontext():
        workload.run(state, driver)
    end = perf_counter()
    clock.sample(2)
    raw_wall = end - start - driver.sampling_s
    kept = len(recorder.spans) if recorder is not None else 0
    outcome = workload.verify(state, driver)
    if recorder is not None:
        del recorder.spans[kept:]  # verification is not part of the rep
    outcome.failed += driver.failed
    outcome.problems.extend(driver.errors[:3])
    ops, raw_ops = driver.op_seconds()
    return Rep(raw_wall * sum(ops) / sum(raw_ops), raw_wall, ops, raw_ops, outcome)


def _typical_ops(per_rep: list[list]) -> list:
    """Each op's median time across reps (op ``i`` is the same work in every rep).

    The percentiles are taken over these, so ``op_ms_p95`` is the 95th
    percentile *of the workload's ops*, not of the host's hiccups: pooled
    raw samples put whichever rep a neighbour disturbed into the tail.
    Reps of unequal length (an op failed to happen) fall back to pooling.
    """
    if len({len(ops) for ops in per_rep}) != 1:
        return [seconds for ops in per_rep for seconds in ops]
    return [median(column) for column in zip(*per_rep)]


def _started_clock(import_s: float) -> tuple[Clock, float]:
    """A clock with its first samples, and ``import_s`` at reference speed."""
    clock = Clock()
    clock.sample(5)  # host speed right after the imports
    return clock, import_s / clock.slowdown(clock.at[0], clock.at[-1])


def verdict(workload, seed, outcomes, op_count, clock, traced):
    """Fold reps into ``(correct, attempted, failed, digest, problems, extra)``."""
    problems = [p for outcome in outcomes for p in outcome.problems]
    digests = {sim_digest(outcome.stats) for outcome in outcomes}
    if len(digests) > 1:
        problems.append(f"reps disagree on simulated statistics: {sorted(digests)}")
    audit_problems, extra = workload.audit(seed, outcomes, clock, traced)
    problems += audit_problems
    failed = sum(outcome.failed for outcome in outcomes)
    if problems:
        failed = op_count  # a broken invariant fails every op of the run
    return not problems and failed == 0, op_count, failed, sorted(digests)[0], problems, extra


def measure(workload: Workload, *, seed: int, seconds: float, min_reps: int, import_s: float):
    """The untraced pass: end-to-end metrics of one workload."""
    clock, import_s = _started_clock(import_s)
    setups, raw_setups = [], []
    reps: list[Rep] = []
    blob = None
    while len(reps) < min_reps or (
        sum(rep.raw_wall_s for rep in reps) < seconds and len(reps) < MAX_REPS
    ):
        gc.collect()
        if blob is None or len(setups) < SETUP_SAMPLES:
            state, setup, raw_setup = clock.timed(workload.build, seed)
            setups.append(setup)
            raw_setups.append(raw_setup)
            if workload.clonable and blob is None and raw_setup >= REBUILD_BELOW_S:
                blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        else:
            state = pickle.loads(blob)
        reps.append(_one_rep(workload, state, clock))
        del state
    ops = _typical_ops([rep.op_s for rep in reps])
    raw_ops = _typical_ops([rep.raw_op_s for rep in reps])
    outcomes = [rep.outcome for rep in reps]
    correct, attempted, failed, digest, problems, _ = verdict(
        workload, seed, outcomes, sum(len(rep.op_s) for rep in reps), clock, traced=False
    )
    values = {
        "setup_s": import_s + median(setups),
        "wall_s": median(rep.wall_s for rep in reps),
        "op_ms_p50": float(np.percentile(ops, 50)) * 1e3,
        "op_ms_p95": float(np.percentile(ops, 95)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "reps": len(reps),
        "setups": len(setups),
        "cloned_reps": len(reps) - len(setups),
        "op_samples": sum(len(rep.op_s) for rep in reps),
        "ops_per_rep": len(reps[0].op_s),
        "sim_digest": digest,
        "problems": problems[:5],
        "raw": {
            "build_s": median(raw_setups),
            "wall_s": median(rep.raw_wall_s for rep in reps),
            "op_ms_p50": float(np.percentile(raw_ops, 50)) * 1e3,
            "op_ms_p95": float(np.percentile(raw_ops, 95)) * 1e3,
            "slowdown": median(clock.took) / SPIN_REF_S,
        },
        **outcomes[0].info,
    }
    return correct, attempted, failed, values, info


def trace(workload: Workload, *, seed: int, seconds: float, import_s: float, recorder=None):
    """The traced pass: per-layer metrics of one workload.

    Two plain reps first (the overhead reference, no wrapper installed),
    then traced set-up + rep iterations until ``seconds`` is spent; each
    ``_s`` value is the median over iterations, counts repeat exactly.
    """
    clock, import_s = _started_clock(import_s)
    # The first rep of a process runs cold, so the reference is the faster of two.
    plain = [_one_rep(workload, workload.build(seed), clock) for _ in range(2)]
    outcomes = [rep.outcome for rep in plain]
    recorder = recorder if recorder is not None else Recorder()
    recorder.install()
    iterations, sites = [], {}
    ops = 0
    begin = perf_counter()
    try:
        while not iterations or (
            perf_counter() - begin < seconds and len(iterations) < MAX_REPS
        ):
            recorder.reset()
            start = clock.sample(2)
            with recorder.span(layers.SETUP_ROOT):
                state = workload.build(seed)
            counters = {}
            if workload.clonable:
                state, counters["snap.clone_bytes_n"] = clone_state(state)
            for engine in workload.engines(state):
                engine.enable_profiling()
            rep = _one_rep(workload, state, clock, recorder)
            del state
            counters.update(rep.outcome.counters)
            values, big_sites = layers.reduce_iteration(
                recorder, counters, clock.slowdown(start, perf_counter())
            )
            for site, share in big_sites.items():
                sites[site] = max(share, sites.get(site, 0.0))
            iterations.append(values)
            outcomes.append(rep.outcome)
            ops += len(rep.op_s)
    finally:
        recorder.uninstall()
    correct, attempted, failed, digest, problems, extra = verdict(
        workload, seed, outcomes, ops, clock, traced=True
    )
    values = layers.combine(iterations)
    values.update(extra)
    values["bench.import_s"] = import_s
    values["bench.trace_overhead_frac"] = (
        values["bench.traced_wall_s"] / min(rep.wall_s for rep in plain) - 1.0
    )
    info = {
        "traced_iterations": len(iterations),
        "sim_digest": digest,
        "problems": problems[:5],
        "spans_missing": recorder.missing,
        "unwrapped_sites": {site: round(share, 4) for site, share in sorted(sites.items())},
        **outcomes[0].info,
    }
    return correct, attempted, failed, values, info
