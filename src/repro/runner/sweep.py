"""Parallel sweep execution with deterministic, canonical-order merge.

A sweep is an ordered tuple of cells — independent (configuration,
seed) evaluations of a module-level function.  :func:`run_sweep`
consults a content-addressed :class:`~repro.runner.cache.ResultCache`
before executing anything, then runs the pending cells one of two ways,
chosen from ``jobs`` and the pending count alone: in this process, in
order (``jobs=1``, or at most one cell left to run), or one cell at a
time over persistent warm workers (:mod:`repro.runner.queue`).  Results merge back **in canonical cell
order** — so the output at any ``jobs`` is byte-identical to
``jobs=1``, which is byte-identical to the serial loops the sweep
replaced.  The golden tests pin exactly that.

Determinism contract:

* cells receive explicit seeds (directly, or derived per cell from the
  spec's ``base_seed`` via :func:`derive_cell_seed`) — never ambient
  process randomness;
* workers return results by value; the parent alone orders and reduces
  them;
* trace events (``sweep.start`` / ``cell.done`` / ``cell.cached``) are
  emitted during the ordered merge, so traces are reproducible too.

A cell that raises fails alone: the traceback travels back as data,
the remaining cells keep running, no cache entry is written for the
failure, and (by default) the sweep raises :class:`SweepCellError`
carrying the original traceback once every cell has settled.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..obs.trace import TracerBase, resolve_tracer
from .cache import MISS, ResultCache, cell_key
from .codec import canonical_json
from .costmodel import cell_cost
from .fingerprint import code_fingerprint
from .queue import FabricStats, PendingCell, execute_queue
from .worker import execute_cell


def derive_cell_seed(base_seed: int, *parts: Any) -> int:
    """A deterministic 31-bit seed for one cell of a sweep.

    Stable across processes and Python versions (content-hash based,
    not ``hash()``-based), and insensitive to dict ordering in
    ``parts`` thanks to the canonical encoding.

    Example:
        >>> derive_cell_seed(7, "fig14cd", 0.65) == derive_cell_seed(
        ...     7, "fig14cd", 0.65
        ... )
        True
    """
    material = canonical_json([base_seed, list(parts)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell: a named function plus JSON-friendly kwargs.

    Attributes:
        fn: import path ``"package.module:function"``; must resolve to
            a module-level callable in workers.
        kwargs: keyword arguments (primitives, tuples, dicts — anything
            the sweep codec encodes) passed to the function.
        label: human-readable identifier used in traces and failures.
        seed: optional explicit seed merged into ``kwargs`` as
            ``seed=``; cells without one fall back to the spec's
            ``base_seed`` derivation when that is set.
    """

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    seed: Optional[int] = None


@dataclass(frozen=True)
class SweepSpec:
    """An ordered, named collection of cells plus cache-key inputs.

    Attributes:
        name: sweep identifier (stamped on traces and cache records).
        cells: canonical cell order — the reducer merges results in
            exactly this order regardless of completion order.
        modules: module/package names whose source text fingerprints
            the cache key (default: the whole ``repro`` package, so any
            code change invalidates every entry).
        base_seed: when set, cells without an explicit seed get
            ``derive_cell_seed(base_seed, index, label)``.
    """

    name: str
    cells: tuple[CellSpec, ...]
    modules: tuple[str, ...] = ("repro",)
    base_seed: Optional[int] = None

    @classmethod
    def grid(
        cls,
        name: str,
        fn: Callable[..., Any],
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        *,
        fixed: Optional[Mapping[str, Any]] = None,
        label: str = "",
        seed: Optional[int] = None,
    ) -> "SweepSpec":
        """The full grid of ``fn`` over ``axes``: one cell per point, in
        nested-loop order (first axis outermost).

        Each cell calls the module-level ``fn`` with its axis values
        plus the ``fixed`` kwargs; ``label`` is a format template over
        the axis names.  ``seed`` — given once, or as an axis of that
        name — rides on :attr:`CellSpec.seed`.  No axes is one cell.

        Example:
            >>> spec = SweepSpec.grid(
            ...     "demo", derive_cell_seed, {"a": (1, 2), "b": ("x", "y")},
            ...     fixed={"c": 0}, label="{a}{b}", seed=7)
            >>> [cell.label for cell in spec.cells]
            ['1x', '1y', '2x', '2y']
            >>> spec.cells[0].fn, spec.resolved_kwargs(0)
            ('repro.runner.sweep:derive_cell_seed', {'a': 1, 'b': 'x', 'c': 0, 'seed': 7})
        """
        axes = axes or {}
        path = f"{fn.__module__}:{fn.__qualname__}"
        cells = []
        for values in itertools.product(*axes.values()):
            point = dict(zip(axes, values))
            text = label.format(**point)
            cell_seed = point.pop("seed", seed)
            cells.append(
                CellSpec(
                    fn=path,
                    kwargs={**point, **(fixed or {})},
                    label=text,
                    seed=cell_seed,
                )
            )
        return cls(name=name, cells=tuple(cells))

    def resolved_kwargs(self, index: int) -> dict[str, Any]:
        """The cell's kwargs with its seed merged in (if any)."""
        cell = self.cells[index]
        kwargs = dict(cell.kwargs)
        if cell.seed is not None:
            kwargs["seed"] = cell.seed
        elif self.base_seed is not None and "seed" not in kwargs:
            kwargs["seed"] = derive_cell_seed(
                self.base_seed, index, cell.label
            )
        return kwargs


@dataclass(frozen=True)
class CellFailure:
    """One failed cell: where it sat and the worker's original traceback."""

    index: int
    label: str
    traceback: str


class SweepCellError(RuntimeError):
    """Raised (in strict mode) after the sweep drained, if cells failed.

    Carries every failure; the message leads with the first original
    traceback so the root cause is visible without unpacking.
    """

    def __init__(self, sweep: str, failures: Sequence[CellFailure]) -> None:
        self.sweep = sweep
        self.failures = tuple(failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} cell(s) of sweep {sweep!r} failed; "
            f"first failure at cell {first.index} "
            f"({first.label or 'unlabelled'}):\n{first.traceback}"
        )


@dataclass(frozen=True)
class SweepStats:
    """Execution accounting for one :func:`run_sweep` call.

    ``backend`` names the path the pending cells took: ``"serial"``
    (in-process) or ``"queue"`` (the fabric).  The fabric fields
    (``dispatched`` onward) are zero on the serial path; on the queue
    path they carry the fabric's accounting: cells handed to workers
    (crash retries included), worker crashes survived, and the
    per-worker :class:`~repro.runner.queue.WorkerReport` tuple (busy
    fractions and cache hit rates feed the ``bass_sweep_worker_*``
    instruments).

    ``chunks`` and ``steals`` are residue: the frozen ``bench/``
    harness reads them into ``runner.queue.chunks_n`` / ``steals_n``.
    The dispatch unit is the cell and no work changes hands after
    dispatch, so they read ``dispatched`` and 0 until ROADMAP item 1's [benchmark] PR renames
    the layers and deletes them.
    """

    cells: int
    executed: int
    cached: int
    failed: int
    wall_s: float
    cells_per_second: float
    cache_hit_rate: float
    backend: str = "serial"
    dispatched: int = 0
    worker_crashes: int = 0
    workers: tuple = ()

    @property
    def chunks(self) -> int:
        return self.dispatched

    @property
    def steals(self) -> int:
        return 0


@dataclass
class SweepOutcome:
    """Results (canonical cell order) plus failures and stats."""

    spec: SweepSpec
    results: list[Any]
    failures: list[CellFailure]
    stats: SweepStats

    def to_canonical_json(self) -> str:
        """The sweep's golden output: canonical JSON of the result list.

        Byte-identical across ``jobs`` settings and across runs (for
        deterministic cells) — this is the string the ``--jobs 2``
        CLI test diffs against the serial run.
        """
        return canonical_json(self.results)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    tracer: Optional[TracerBase] = None,
    strict: bool = True,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> SweepOutcome:
    """Execute ``spec``'s cells, in parallel and through the cache.

    Args:
        spec: the sweep definition (canonical cell order).
        jobs: worker processes.  ``1`` runs every cell in this process
            and starts none; more hand the pending cells out one at a
            time to that many warm workers (:mod:`repro.runner.queue`)
            — unless at most one cell is pending, which also runs inline.
            Outputs are byte-identical either way.
        cache: completed-cell store; None disables memoization.
            Whichever process computes a cell writes its entry (the
            fabric's workers read through and write back the shared
            store directly, so one worker's cold result is every
            concurrent reader's warm hit); the entry bytes are the same
            on either path.
        tracer: flight recorder for ``sweep.start`` / ``cell.done`` /
            ``cell.cached`` / ``sweep.fabric`` / ``sweep.done`` events
            (defaults to the process default tracer).  Event times are
            wall-clock seconds since the sweep started.
        strict: raise :class:`SweepCellError` after the sweep drains if
            any cell failed; ``False`` returns the partial outcome.
        on_result: streaming reducer hook: called as ``on_result(index,
            value)`` for each cell **in canonical order**, as soon as
            the contiguous prefix through that cell has settled — no
            end-of-sweep barrier.  Failed cells stream ``None``.

    Returns:
        :class:`SweepOutcome` with ``results[i]`` corresponding to
        ``spec.cells[i]`` (None for failed cells in non-strict mode).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tracer = resolve_tracer(tracer)
    begin = time.perf_counter()
    total = len(spec.cells)

    resolved = [spec.resolved_kwargs(i) for i in range(total)]
    keys: list[Optional[str]] = [None] * total
    results: list[Any] = [None] * total
    status: list[str] = ["pending"] * total
    durations = [0.0] * total
    failures: list[CellFailure] = []
    streamed = 0

    def stream_prefix() -> None:
        """Feed ``on_result`` the settled canonical-order prefix."""
        nonlocal streamed
        if on_result is None:
            return
        while streamed < total and status[streamed] != "pending":
            on_result(streamed, results[streamed])
            streamed += 1

    pending: list[int] = []
    if cache is not None:
        fingerprint = code_fingerprint(spec.modules)
        for index in range(total):
            key = cell_key(spec.cells[index].fn, resolved[index], fingerprint)
            keys[index] = key
            hit = cache.get(key)
            if hit is MISS:
                pending.append(index)
            else:
                results[index] = hit
                status[index] = "cached"
    else:
        pending = list(range(total))
    # One cell gains nothing from a worker; one job must spawn nothing.
    backend = "queue" if jobs > 1 and len(pending) > 1 else "serial"
    if tracer.enabled:
        tracer.emit(
            "sweep.start",
            0.0,
            sweep=spec.name,
            cells=total,
            jobs=jobs,
            backend=backend,
            cache="on" if cache is not None else "off",
        )
    stream_prefix()

    def settle(
        index: int,
        ok: bool,
        payload: Any,
        duration: float,
        from_cache: bool = False,
    ) -> None:
        durations[index] = duration
        if ok:
            results[index] = payload
            # ``from_cache``: a worker found the entry in the shared
            # store (written by a sibling or a concurrent sweep).
            status[index] = "cached" if from_cache else "executed"
        else:
            status[index] = "failed"
            failures.append(
                CellFailure(index, spec.cells[index].label, payload)
            )
        stream_prefix()

    fabric = FabricStats()  # what the serial path reports: nothing
    if backend == "queue":
        fabric = execute_queue(
            [
                PendingCell(
                    index=index,
                    fn=spec.cells[index].fn,
                    kwargs=resolved[index],
                    key=keys[index],
                    cost=cell_cost(resolved[index]),
                    label=spec.cells[index].label,
                )
                for index in pending
            ],
            jobs=jobs,
            cache_root=str(cache.root) if cache is not None else None,
            sweep=spec.name,
            settle=settle,
        )
    else:
        for index in pending:
            cell = spec.cells[index]
            ok, payload, duration = execute_cell(cell.fn, resolved[index])
            if ok and cache is not None:
                cache.put_or_warn(
                    keys[index], payload, sweep=spec.name, label=cell.label
                )
            settle(index, ok, payload, duration)

    wall_s = time.perf_counter() - begin
    # Merge-phase events run in canonical cell order — completion order
    # (a race under jobs > 1) never leaks into the trace.
    if tracer.enabled:
        kind_of = {
            "executed": "cell.done",
            "cached": "cell.cached",
            "failed": "cell.failed",
        }
        for index in range(total):
            tracer.emit(
                kind_of[status[index]],
                wall_s,
                sweep=spec.name,
                cell=index,
                label=spec.cells[index].label,
                duration_s=durations[index],
            )

    cached = sum(1 for s in status if s == "cached")
    executed = sum(1 for s in status if s == "executed")
    stats = SweepStats(
        cells=total,
        executed=executed,
        cached=cached,
        failed=len(failures),
        wall_s=wall_s,
        cells_per_second=(total / wall_s if wall_s > 0 else 0.0),
        cache_hit_rate=(cached / total if total else 0.0),
        backend=backend,
        dispatched=fabric.dispatched,
        worker_crashes=fabric.worker_crashes,
        workers=fabric.workers,
    )
    if tracer.enabled and backend == "queue":
        tracer.emit(
            "sweep.fabric",
            wall_s,
            sweep=spec.name,
            backend=backend,
            jobs=jobs,
            dispatched=fabric.dispatched,
            worker_crashes=fabric.worker_crashes,
            workers=[
                {
                    **asdict(report),
                    "busy_fraction": report.busy_fraction,
                    "cache_hit_rate": report.cache_hit_rate,
                }
                for report in fabric.workers
            ],
        )
    if tracer.enabled:
        tracer.emit(
            "sweep.done",
            wall_s,
            sweep=spec.name,
            cells=total,
            executed=executed,
            cached=cached,
            failed=len(failures),
            backend=backend,
            cells_per_second=stats.cells_per_second,
            cache_hit_rate=stats.cache_hit_rate,
        )
    if failures and strict:
        raise SweepCellError(spec.name, failures)
    return SweepOutcome(
        spec=spec, results=results, failures=failures, stats=stats
    )
