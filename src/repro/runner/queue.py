"""Work-stealing chunk queue over persistent warm workers.

This is how :func:`~repro.runner.sweep.run_sweep` runs cells on more
than one core.  Submitting every cell as its own task would pay a
parent↔worker round-trip per cell, and a long cell that lands late
would serialize the sweep's tail; the *fabric* avoids both:

* pending cells are ordered longest-expected-first by the
  :mod:`~repro.runner.costmodel` and packed into deterministic chunks;
* ``jobs`` **persistent warm workers** are spawned once, preimport
  ``repro``, and loop over chunks the driver pushes to their private
  task queues — dispatch cost is paid per *chunk*, not per cell;
* when no chunks remain queued while a worker sits idle, the driver
  asks the busiest worker to **give back** the unstarted remainder of
  its chunk (a steal); the remainder is split and re-queued so
  stragglers never serialize the tail;
* results stream back per cell, each worker over its *own* pipe, and
  are settled by an ``asyncio`` driver loop as they arrive — the
  reducer emits the canonical-order prefix incrementally instead of
  waiting on an end-of-sweep barrier;
* a worker that *dies* mid-chunk (hard crash, OOM kill) is detected by
  liveness polling and survived: see below.

Why one pipe per worker, not a shared result queue: a worker that is
hard-killed (``os._exit``, OOM) can die while its queue feeder thread
holds the shared queue's write lock, orphaning the lock — every later
writer (including freshly spawned replacements announcing ``ready``)
then blocks forever and the fabric deadlocks.  A kill can also land
mid-``write``, leaving a truncated frame that wedges the reader.  With
a private single-writer pipe there is no cross-process lock at all,
and a truncated frame can only poison the dead worker's own channel.
The parent drains each pipe on a daemon reader thread into one
thread-safe inbox; a dying worker's reader simply sees ``EOFError``
and exits, and the driver loop itself never blocks on worker-written
file descriptors.

Crash recovery never trusts a dying worker's last words — a hard kill
can lose messages still buffered on the worker side.
The driver therefore keeps the authoritative chunk↔worker assignment
on the parent side (it pushed the chunk, so it knows), and on a death
it re-queues every not-yet-settled cell of the dead worker's chunk.  A
multi-cell chunk is split into **single-cell chunks** on the way back,
so if one of those cells is what killed the worker, the next death
identifies it unambiguously; a cell whose *single-cell* chunk kills its
worker is charged a retry, and after :data:`MAX_CELL_RETRIES` such
deaths it is settled as a failure (the synthesized traceback names the
worker, pid, and exit code) instead of crash-looping the fabric.
Cells that merely shared a chunk with a killer re-run free of charge.

Workers consult the shared content-addressed
:class:`~repro.runner.cache.ResultCache` directly when a cache root is
given: one worker's cold result is every other worker's (and every
concurrently-running sweep's) warm hit, and per-worker hit/miss counts
ride back on the shutdown handshake for the ``bass_sweep_worker_*``
instruments.  Entries carry the sweep name and cell label, so the tree
a fabric run writes is byte-identical to the serial loop's.

Determinism: chunk layout, steal timing, crash recovery, and worker
count are all pure *scheduling*; every cell still executes a
module-level function on explicit kwargs, the driver settles each cell
index exactly once (first result wins), and the caller merges in
canonical order — so output bytes never depend on this module's
choices.  The golden tests pin that across worker counts and chunk
sizes.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, Queue as _Inbox
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from .cache import MISS, ResultCache
from .costmodel import order_longest_first
from .worker import execute_cell, initialize_worker

if TYPE_CHECKING:  # annotations only: see ``mp_context``
    import multiprocessing.context

#: How often the driver wakes to check worker liveness when the result
#: queue is quiet, seconds.
POLL_S = 0.05

#: A cell whose *single-cell* chunk kills its worker is retried this
#: many times before it is settled as failed (guards against crash
#: loops from cells that reliably kill their host).
MAX_CELL_RETRIES = 2

#: Boot failures (a worker dying before its ready handshake) tolerated
#: before the fabric gives up — guards against a broken interpreter or
#: import error respawn-looping forever.
MAX_BOOT_FAILURES = 3


def mp_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast, inherits sys.path), else spawn."""
    # Imported on first use, like ``asyncio`` below: only ``jobs > 1``
    # sweeps run the fabric, and the two cost every other process that
    # imports the runner ~45 ms and ~7 MiB.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass(frozen=True)
class PendingCell:
    """One cell the fabric must execute.

    ``key`` is the cell's content address when a cache is attached
    (workers read through and write back), else None.
    """

    index: int
    fn: str
    kwargs: Mapping[str, Any]
    key: Optional[str]
    cost: float
    label: str = ""


@dataclass(frozen=True)
class WorkerReport:
    """One worker's lifetime accounting (from its shutdown handshake)."""

    worker: int
    busy_s: float
    alive_s: float
    cells: int
    cache_hits: int
    cache_misses: int
    crashed: bool

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0


@dataclass(frozen=True)
class FabricStats:
    """What the fabric did, for traces and instruments."""

    chunks: int
    chunk_size: int
    steals: int
    max_queue_depth: int
    worker_crashes: int
    workers: tuple[WorkerReport, ...]

    def worker_busy_fractions(self) -> dict[int, float]:
        return {
            report.worker: (
                report.busy_s / report.alive_s if report.alive_s > 0 else 0.0
            )
            for report in self.workers
        }


def default_chunk_size(cells: int, jobs: int) -> int:
    """About four chunks per worker: coarse enough to amortize dispatch,
    fine enough that stealing has pieces to move."""
    return max(1, -(-cells // max(1, jobs * 4)))


def plan_chunks(
    pending: Sequence[PendingCell], chunk_size: int
) -> list[list[PendingCell]]:
    """Deterministic chunk layout: cost-ordered cells in contiguous
    slices of ``chunk_size``.

    Longest-expected-first ordering puts the expensive cells in the
    *early* chunks (they start first) and leaves the cheap ones for the
    tail, which keeps the final straggler window short even before
    stealing kicks in.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    costs = {cell.index: cell.cost for cell in pending}
    by_index = {cell.index: cell for cell in pending}
    ordered = order_longest_first(costs, sorted(by_index))
    return [
        [by_index[index] for index in ordered[start : start + chunk_size]]
        for start in range(0, len(ordered), chunk_size)
    ]


def _send(conn: Any, message: tuple) -> bool:
    """Send on the worker's private result pipe; False if the parent
    has gone away (read end closed) — the worker should just exit."""
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False


def _worker_main(
    worker_id: int,
    tasks: Any,
    results: Any,
    steal_flag: Any,
    sys_path: Sequence[str],
    cache_root: Optional[str],
    sweep: str,
) -> None:
    """Warm-worker loop: ready → (chunk: cells...) ... → bye.

    Runs in the child process.  ``results`` is this worker's private
    pipe connection — it is the *sole* writer, so no lock guards the
    channel and a hard kill cannot wedge any other worker's results.
    Every message is a plain tuple tagged by its first element;
    cell-level exceptions never escape (they ride back as formatted
    tracebacks, exactly like the serial loop's).
    """
    initialize_worker(sys_path)
    import repro  # noqa: F401  - warm preimport: chunks find a hot module tree

    cache = ResultCache(cache_root) if cache_root is not None else None
    alive_begin = time.perf_counter()
    busy_s = 0.0
    cells_done = 0
    if not _send(results, ("ready", worker_id)):
        return
    while True:
        task = tasks.get()
        if task is None:
            break
        chunk_id, cells = task
        position, end = 0, len(cells)
        while position < end:
            if steal_flag.is_set():
                steal_flag.clear()
                if end - position >= 2:
                    stolen = cells[position + 1 : end]
                    end = position + 1
                    _send(
                        results,
                        ("stolen", worker_id, chunk_id,
                         [cell[0] for cell in stolen]),
                    )
            index, fn, kwargs, key, label = cells[position]
            begin = time.perf_counter()
            hit: Any = MISS
            if cache is not None and key is not None:
                hit = cache.get(key)
            if hit is not MISS:
                ok, payload, from_cache = True, hit, True
                duration = time.perf_counter() - begin
            else:
                ok, payload, duration = execute_cell(fn, kwargs)
                from_cache = False
                if ok and cache is not None and key is not None:
                    cache.put_or_warn(key, payload, sweep=sweep, label=label)
            busy_s += duration
            cells_done += 1
            if not _send(
                results,
                ("cell", worker_id, chunk_id, index, ok, payload, duration,
                 from_cache),
            ):
                return
            position += 1
        steal_flag.clear()  # a stale flag must not leak into the next chunk
        if not _send(results, ("chunk_done", worker_id, chunk_id)):
            return
    _send(
        results,
        (
            "bye",
            worker_id,
            {
                "busy_s": busy_s,
                "alive_s": time.perf_counter() - alive_begin,
                "cells": cells_done,
                "cache_hits": cache.hits if cache is not None else 0,
                "cache_misses": cache.misses if cache is not None else 0,
            },
        ),
    )
    results.close()


@dataclass
class _ChunkState:
    id: int
    cells: list[tuple]
    remaining: set[int]
    worker: Optional[int] = None


@dataclass
class _WorkerState:
    id: int
    process: Any
    tasks: Any
    conn: Any  # parent's read end of this worker's private result pipe
    steal_flag: Any
    state: str = "starting"  # starting -> idle <-> busy -> done
    chunk: Optional[int] = None
    steal_pending: bool = False
    report: Optional[WorkerReport] = None


class _QueueDriver:
    """Parent-side scheduler: owns chunk assignment, survives crashes.

    Every chunk↔worker binding is recorded here *when the chunk is
    pushed*, never inferred from worker messages — so a worker that
    dies without flushing its queue still leaves the driver knowing
    exactly which cells to re-queue.
    """

    def __init__(
        self,
        pending: Sequence[PendingCell],
        *,
        jobs: int,
        chunk_size: int,
        cache_root: Optional[str],
        sweep: str,
        settle: Callable[[int, bool, Any, float, bool], None],
    ) -> None:
        self.jobs = jobs
        self.cache_root = cache_root
        self.sweep = sweep
        self.settle_cb = settle
        self.cost = {cell.index: cell.cost for cell in pending}
        self.cell_tuple = {
            cell.index: (
                cell.index, cell.fn, dict(cell.kwargs), cell.key, cell.label
            )
            for cell in pending
        }
        self.context = mp_context()
        # All worker pipes drain into this one thread-safe inbox via
        # per-worker daemon reader threads (see _pump).
        self.inbox: _Inbox = _Inbox()
        self.chunks: dict[int, _ChunkState] = {}
        self.queued: deque[int] = deque()  # chunk ids awaiting a worker
        self.workers: dict[int, _WorkerState] = {}
        self.settled: set[int] = set()
        self.crash_counts: dict[int, int] = {}
        self.unsettled = len(pending)
        self.max_depth = 0
        self.chunk_counter = 0
        self.worker_counter = 0
        self.chunk_size = chunk_size
        self.chunks_created = 0
        self.steals = 0
        self.worker_crashes = 0
        self.boot_failures = 0
        self.reports: list[WorkerReport] = []
        for chunk_cells in plan_chunks(pending, chunk_size):
            self._enqueue([cell.index for cell in chunk_cells])
        for _ in range(min(jobs, max(1, len(pending)))):
            self._spawn_worker()

    # -- dispatch -----------------------------------------------------

    def _enqueue(self, indices: Sequence[int]) -> None:
        """Queue a new chunk of the given (unsettled) cell indices."""
        live = [index for index in indices if index not in self.settled]
        if not live:
            return
        chunk_id = self.chunk_counter
        self.chunk_counter += 1
        self.chunks[chunk_id] = _ChunkState(
            id=chunk_id,
            cells=[self.cell_tuple[index] for index in live],
            remaining=set(live),
        )
        self.queued.append(chunk_id)
        self.chunks_created += 1
        self.max_depth = max(self.max_depth, len(self.queued))

    def _dispatch(self) -> None:
        """Push queued chunks to idle workers (parent-side assignment:
        the binding is authoritative before the worker hears of it)."""
        for worker in self.workers.values():
            if not self.queued:
                return
            if worker.state != "idle":
                continue
            chunk_id = self.queued.popleft()
            chunk = self.chunks[chunk_id]
            chunk.worker = worker.id
            worker.state = "busy"
            worker.chunk = chunk_id
            worker.tasks.put((chunk_id, chunk.cells))

    def _pump(self, conn: Any) -> None:
        """Reader-thread body: forward one worker's pipe into the inbox.

        Runs until the worker closes its end (clean exit) or dies —
        both surface as ``EOFError``/``OSError`` here, including a
        frame truncated by a mid-write kill, so a crashing worker can
        wedge at most this disposable thread, never the driver.
        """
        try:
            while True:
                self.inbox.put(conn.recv())
        except (EOFError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _spawn_worker(self) -> None:
        worker_id = self.worker_counter
        self.worker_counter += 1
        tasks = self.context.Queue()
        steal_flag = self.context.Event()
        recv_end, send_end = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_worker_main,
            args=(
                worker_id,
                tasks,
                send_end,
                steal_flag,
                list(sys.path),
                self.cache_root,
                self.sweep,
            ),
            daemon=True,
            name=f"bass-sweep-worker-{worker_id}",
        )
        process.start()
        # Drop the parent's copy of the write end: once the worker
        # exits (or dies), the pipe EOFs and the reader thread unwinds.
        send_end.close()
        threading.Thread(
            target=self._pump,
            args=(recv_end,),
            daemon=True,
            name=f"bass-sweep-reader-{worker_id}",
        ).start()
        self.workers[worker_id] = _WorkerState(
            id=worker_id, process=process, tasks=tasks, conn=recv_end,
            steal_flag=steal_flag,
        )

    # -- message handling ---------------------------------------------

    def poll(self) -> Optional[tuple]:
        try:
            return self.inbox.get(timeout=POLL_S)
        except Empty:
            return None

    def handle(self, message: tuple) -> None:
        tag = message[0]
        if tag == "ready":
            worker = self.workers.get(message[1])
            if worker is not None and worker.state == "starting":
                worker.state = "idle"
                self._dispatch()
        elif tag == "cell":
            _, _, chunk_id, index, ok, payload, duration, from_cache = message
            chunk = self.chunks.get(chunk_id)
            if chunk is not None:
                chunk.remaining.discard(index)
            self._settle(index, ok, payload, duration, from_cache)
        elif tag == "stolen":
            _, worker_id, chunk_id, indices = message
            self.steals += 1
            worker = self.workers.get(worker_id)
            if worker is not None:
                worker.steal_pending = False
            chunk = self.chunks.get(chunk_id)
            if chunk is not None:
                chunk.remaining.difference_update(indices)
            live = [i for i in indices if i not in self.settled]
            # Split the remainder so two idle workers can share it.
            if len(live) >= 2:
                half = (len(live) + 1) // 2
                self._enqueue(live[:half])
                self._enqueue(live[half:])
            elif live:
                self._enqueue(live)
            self._dispatch()
        elif tag == "chunk_done":
            _, worker_id, chunk_id = message
            worker = self.workers.get(worker_id)
            if worker is not None and worker.chunk == chunk_id:
                worker.state = "idle"
                worker.chunk = None
                worker.steal_pending = False
                worker.steal_flag.clear()
            self.chunks.pop(chunk_id, None)
            self._dispatch()
        elif tag == "bye":
            _, worker_id, stats = message
            worker = self.workers.get(worker_id)
            if worker is not None:
                worker.state = "done"
                worker.report = WorkerReport(
                    worker=worker_id, crashed=False, **stats
                )

    def _settle(
        self, index: int, ok: bool, payload: Any, duration: float,
        from_cache: bool,
    ) -> None:
        """Reduce one cell exactly once — duplicates (a crash-requeued
        cell whose first result was already in flight) are dropped."""
        if index in self.settled:
            return
        self.settled.add(index)
        self.unsettled -= 1
        self.settle_cb(index, ok, payload, duration, from_cache)

    # -- stealing -----------------------------------------------------

    def maybe_steal(self) -> None:
        """When the queue is dry and a worker idles, split the most
        expensive in-flight chunk."""
        if self.queued:
            return
        if not any(w.state == "idle" for w in self.workers.values()):
            return
        best: Optional[_WorkerState] = None
        best_cost = -1.0
        for worker in self.workers.values():
            if worker.state != "busy" or worker.steal_pending:
                continue
            chunk = self.chunks.get(worker.chunk)
            if chunk is None or len(chunk.remaining) < 2:
                continue
            cost = sum(self.cost.get(i, 0.0) for i in chunk.remaining)
            if cost > best_cost:
                best, best_cost = worker, cost
        if best is not None:
            best.steal_pending = True
            best.steal_flag.set()

    # -- crash recovery -----------------------------------------------

    def reap_crashes(self) -> None:
        """Re-queue the unsettled cells of any worker that died, charge
        a single-cell chunk's cell a retry, and spawn a replacement."""
        for worker_id, worker in list(self.workers.items()):
            if worker.state == "done" or worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            self.worker_crashes += 1
            if worker.state == "starting":
                self.boot_failures += 1
                if self.boot_failures > MAX_BOOT_FAILURES:
                    raise RuntimeError(
                        f"sweep queue workers failed to boot "
                        f"{self.boot_failures} times (last exitcode "
                        f"{exitcode}); aborting the sweep"
                    )
            self.reports.append(
                WorkerReport(
                    worker=worker_id, busy_s=0.0, alive_s=0.0, cells=0,
                    cache_hits=0, cache_misses=0, crashed=True,
                )
            )
            chunk = (
                self.chunks.pop(worker.chunk, None)
                if worker.chunk is not None
                else None
            )
            del self.workers[worker_id]
            if chunk is not None:
                unsettled = [
                    index
                    for index in sorted(chunk.remaining)
                    if index not in self.settled
                ]
                if len(chunk.cells) == 1 and unsettled:
                    # A single-cell chunk killed its worker: the cell is
                    # the unambiguous culprit.  Charge it and either
                    # retry or surface the death as its failure.
                    index = unsettled[0]
                    retries = self.crash_counts.get(index, 0) + 1
                    self.crash_counts[index] = retries
                    if retries > MAX_CELL_RETRIES:
                        self._settle(
                            index,
                            False,
                            f"SweepWorkerCrash: worker {worker_id} (pid "
                            f"{worker.process.pid}) died with exitcode "
                            f"{exitcode} while executing cell {index}; "
                            f"the cell killed its worker on all "
                            f"{retries} isolated attempt(s)\n",
                            0.0,
                            False,
                        )
                    else:
                        self._enqueue([index])
                else:
                    # Innocent bystanders may be mixed in: re-queue each
                    # cell in isolation so the next death (if any) names
                    # its culprit.
                    for index in unsettled:
                        self._enqueue([index])
            if self.unsettled > 0 and len(self.workers) < self.jobs:
                self._spawn_worker()
        self._dispatch()

    # -- shutdown -----------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, harvest their reports, reap stragglers."""
        for worker in self.workers.values():
            if worker.state != "done":
                worker.tasks.put(None)
        # A worker may exit before we drain its bye from the result
        # queue, so keep polling until every report is in hand (the
        # deadline bounds the wait on a worker that died instead).
        deadline = time.perf_counter() + 5.0
        while (
            any(w.report is None for w in self.workers.values())
            and time.perf_counter() < deadline
        ):
            message = self.poll()
            if message is not None:
                self.handle(message)
        for worker in self.workers.values():
            if worker.report is not None:
                self.reports.append(worker.report)
            else:
                self.reports.append(
                    WorkerReport(
                        worker=worker.id, busy_s=0.0, alive_s=0.0, cells=0,
                        cache_hits=0, cache_misses=0, crashed=True,
                    )
                )
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.tasks.cancel_join_thread()
            worker.tasks.close()
            # Force a blocked reader thread off the pipe (its recv sees
            # OSError on the closed handle and unwinds).
            try:
                worker.conn.close()
            except OSError:
                pass

    def fabric_stats(self) -> FabricStats:
        return FabricStats(
            chunks=self.chunks_created,
            chunk_size=self.chunk_size,
            steals=self.steals,
            max_queue_depth=self.max_depth,
            worker_crashes=self.worker_crashes,
            workers=tuple(sorted(self.reports, key=lambda r: r.worker)),
        )


async def _drive(driver: _QueueDriver) -> None:
    """The asyncio reducer loop: settle results as they arrive.

    The blocking result-queue read runs on an executor thread, so the
    loop stays responsive; each settled cell flows straight to the
    caller's settle callback (which streams the canonical-order prefix)
    — there is no end-of-phase barrier anywhere.
    """
    import asyncio

    loop = asyncio.get_running_loop()
    while driver.unsettled > 0:
        message = await loop.run_in_executor(None, driver.poll)
        if message is None:
            driver.reap_crashes()
        else:
            driver.handle(message)
        driver.maybe_steal()


def execute_queue(
    pending: Sequence[PendingCell],
    *,
    jobs: int,
    chunk_size: Optional[int] = None,
    cache_root: Optional[str] = None,
    sweep: str = "",
    settle: Callable[[int, bool, Any, float, bool], None],
) -> FabricStats:
    """Run ``pending`` through the work-stealing fabric.

    ``settle(index, ok, payload, duration_s, from_cache)`` is invoked
    exactly once per cell, in completion order; the caller owns
    canonical-order merging.  ``chunk_size`` defaults to
    :func:`default_chunk_size`; ``run_sweep`` never passes it — it is
    here so crash-isolation tests can force a chunk layout.  ``sweep``
    is stamped on the cache entries the workers write.  Returns the
    fabric's accounting for traces and instruments.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    size = (
        chunk_size if chunk_size is not None
        else default_chunk_size(len(pending), jobs)
    )
    driver = _QueueDriver(
        pending,
        jobs=jobs,
        chunk_size=size,
        cache_root=cache_root,
        sweep=sweep,
        settle=settle,
    )
    import asyncio

    try:
        asyncio.run(_drive(driver))
    finally:
        driver.shutdown()
    return driver.fabric_stats()
