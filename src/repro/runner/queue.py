"""One cell at a time over persistent warm workers.

This is how :func:`~repro.runner.sweep.run_sweep` runs cells on more
than one core.  The unit the fabric dispatches is the cell (DESIGN.md,
"Parallel sweeps", has the measurements behind that):

* pending cells sit in one parent-side deque, longest-expected-first
  by the :mod:`~repro.runner.costmodel`;
* ``jobs`` **persistent warm workers** are spawned once, preimport
  ``repro``, and announce ``ready``; the driver hands each idle worker
  exactly one cell over the worker's private task pipe, and the
  worker's ``cell`` result is its request for the next;
* results are settled on the calling thread as they arrive, so the
  reducer emits the canonical-order prefix incrementally instead of
  waiting on an end-of-sweep barrier;
* workers read through and write back the shared content-addressed
  :class:`~repro.runner.cache.ResultCache` when a cache root is given
  (one worker's cold result is every other reader's warm hit), stamping
  entries exactly as the serial loop does.

Each worker writes to its own result pipe, never a shared queue: a
worker hard-killed while holding a shared queue's write lock (or
mid-write, leaving a truncated frame) would wedge every later writer,
replacements included; a private single-writer pipe has no
cross-process lock, and a truncated frame can only poison the dead
worker's own channel.  The parent drains each pipe on a daemon reader
thread into one thread-safe inbox.  End-of-file on a single-writer pipe
*is* the death notice: a reader that unwinds posts ``gone`` and the
driver replaces the worker at once, however busy the survivors keep the
inbox (a liveness poll on a quiet inbox is the backstop).

Crash recovery never trusts a dying worker's last words — a hard kill
can lose messages still buffered on the worker side.  The driver
records which cell a worker holds *when it sends the cell*, and a
worker holds one cell at a time, so the cell a dead worker held is the
unambiguous culprit: it is charged a retry and goes back to the front
of the deque, and after :data:`MAX_CELL_RETRIES` such deaths it is
settled as a failure (the synthesized traceback names the worker, pid,
and exit code) instead of crash-looping the fabric.  A cell handed to a
worker that died a moment earlier of something else is charged a retry
it did not earn; the bound makes that harmless.

Determinism: which worker runs which cell, crash recovery, and worker
count are pure *scheduling*; the driver settles each cell index exactly
once (first result wins) and the caller merges in canonical order, so
output bytes never depend on this module's choices.  The golden tests
pin that across worker counts.
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
    from multiprocessing.connection import Connection

#: How often the driver wakes to check worker liveness when the inbox
#: is quiet, seconds — the backstop behind the readers' ``gone`` notes.
POLL_S = 0.05

#: A cell whose worker dies while holding it is retried this many times
#: before it is settled as failed (guards against crash loops from
#: cells that reliably kill their host).
MAX_CELL_RETRIES = 2

#: Boot failures (a worker dying before its ready handshake) tolerated
#: before the fabric gives up — guards against a broken interpreter or
#: import error respawn-looping forever.
MAX_BOOT_FAILURES = 3


def mp_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast, inherits sys.path), else spawn."""
    # Imported on first use: only ``jobs > 1`` sweeps run the fabric,
    # and ``multiprocessing`` costs every other process that imports
    # the runner tens of milliseconds and several MiB.
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
    busy_s: float = 0.0
    alive_s: float = 0.0
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    crashed: bool = False  # it never said bye: everything above reads 0

    @property
    def busy_fraction(self) -> float:
        return self.busy_s / self.alive_s if self.alive_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0


@dataclass(frozen=True)
class FabricStats:
    """What the fabric did, for traces and instruments.

    ``dispatched`` counts cells handed to workers, crash retries
    included.
    """

    dispatched: int = 0
    worker_crashes: int = 0
    workers: tuple[WorkerReport, ...] = ()


def _send(conn: Connection, message: Any) -> bool:
    """Send on a private pipe; False if the other end has gone away.

    A worker whose parent is gone should just exit; a driver whose
    worker is gone leaves the cell to the reap that follows.
    """
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False


def _worker_main(
    worker_id: int,
    tasks: Connection,
    results: Connection,
    sys_path: Sequence[str],
    cache_root: Optional[str],
    sweep: str,
) -> None:
    """Warm-worker loop: ready → (cell → result) ... → bye.

    Runs in the child process.  ``tasks`` and ``results`` are this
    worker's private pipe connections — it is the *sole* reader of one
    and the sole writer of the other, so no lock guards either channel
    and a hard kill cannot wedge any other worker's results.  Every
    result message is a plain tuple tagged by its first element;
    cell-level exceptions never escape (they ride back as formatted tracebacks,
    exactly like the serial loop's).
    """
    initialize_worker(sys_path)
    import repro  # noqa: F401  - warm preimport: cells find a hot module tree

    cache = ResultCache(cache_root) if cache_root is not None else None
    alive_begin = time.perf_counter()
    busy_s = 0.0
    cells_done = 0
    if not _send(results, ("ready", worker_id)):
        return
    while True:
        try:
            cell: Optional[PendingCell] = tasks.recv()
        except (EOFError, OSError):
            return  # the parent went away
        if cell is None:
            break
        begin = time.perf_counter()
        hit: Any = MISS
        if cache is not None and cell.key is not None:
            hit = cache.get(cell.key)
        if hit is not MISS:
            ok, payload, from_cache = True, hit, True
            duration = time.perf_counter() - begin
        else:
            ok, payload, duration = execute_cell(cell.fn, cell.kwargs)
            from_cache = False
            if ok and cache is not None and cell.key is not None:
                cache.put_or_warn(
                    cell.key, payload, sweep=sweep, label=cell.label
                )
        busy_s += duration
        cells_done += 1
        if not _send(
            results,
            ("cell", worker_id, cell.index, ok, payload, duration, from_cache),
        ):
            return
    report = WorkerReport(
        worker=worker_id,
        busy_s=busy_s,
        alive_s=time.perf_counter() - alive_begin,
        cells=cells_done,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
    _send(results, ("bye", worker_id, report))
    results.close()


@dataclass
class _WorkerState:
    id: int
    process: Any
    tasks: Connection  # parent's write end of the worker's task pipe
    conn: Connection  # parent's read end of the worker's result pipe
    reader: threading.Thread
    ready: bool = False  # False until its boot handshake
    cell: Optional[int] = None  # the one cell it holds, if any


class _QueueDriver:
    """Parent-side scheduler: owns cell assignment, survives crashes.

    Every cell↔worker binding is recorded here *when the cell is
    sent*, never inferred from worker messages — so a worker that dies
    without flushing its pipe still leaves the driver knowing exactly
    which cell to re-queue.
    """

    def __init__(
        self,
        pending: Sequence[PendingCell],
        *,
        jobs: int,
        cache_root: Optional[str],
        sweep: str,
        settle: Callable[[int, bool, Any, float, bool], None],
    ) -> None:
        self.jobs = jobs
        self.cache_root = cache_root
        self.sweep = sweep
        self.settle_cb = settle
        self.cells = {cell.index: cell for cell in pending}
        self.context = mp_context()
        # All worker pipes drain into this one thread-safe inbox via
        # per-worker daemon reader threads (see _pump).
        self.inbox: _Inbox = _Inbox()
        self.queued: deque[int] = deque(
            order_longest_first(
                {cell.index: cell.cost for cell in pending}, sorted(self.cells)
            )
        )
        self.workers: dict[int, _WorkerState] = {}
        self.settled: set[int] = set()
        self.crash_counts: dict[int, int] = {}
        self.unsettled = len(pending)
        self.worker_counter = 0
        self.dispatched = 0
        self.worker_crashes = 0
        self.boot_failures = 0
        self.reports: dict[int, WorkerReport] = {}
        for _ in range(min(jobs, len(pending))):
            self._spawn_worker()

    # -- dispatch -----------------------------------------------------

    def _feed(self, worker: _WorkerState) -> None:
        """Hand ``worker`` the next unsettled cell, if any.

        The binding is authoritative before the worker hears of it; a
        send to a worker that is already dead just leaves the cell
        bound to it for the reap.
        """
        worker.cell = None
        while self.queued:
            index = self.queued.popleft()
            if index in self.settled:
                continue
            worker.cell = index
            self.dispatched += 1
            _send(worker.tasks, self.cells[index])
            return

    def _pump(self, worker_id: int, conn: Connection) -> None:
        """Reader-thread body: forward one worker's pipe into the inbox.

        Runs until the worker closes its end (clean exit) or dies —
        both surface as ``EOFError``/``OSError`` here, including a
        frame truncated by a mid-write kill, so a crashing worker can
        wedge at most this disposable thread, never the driver.  The
        closing ``gone`` tells the driver the channel is finished; it
        follows a clean worker's ``bye`` and is all a dead one leaves.
        """
        try:
            while True:
                self.inbox.put(conn.recv())
        except (EOFError, OSError):
            pass
        finally:
            self.inbox.put(("gone", worker_id))
            try:
                conn.close()
            except OSError:
                pass

    def _spawn_worker(self) -> None:
        worker_id = self.worker_counter
        self.worker_counter += 1
        task_recv, task_send = self.context.Pipe(duplex=False)
        result_recv, result_send = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_recv,
                result_send,
                list(sys.path),
                self.cache_root,
                self.sweep,
            ),
            daemon=True,
            name=f"bass-sweep-worker-{worker_id}",
        )
        process.start()
        # Drop the parent's copies of the worker's two ends before
        # anything else is forked: a later worker that inherited the
        # write end would keep the pipe open past this worker's death,
        # and end-of-file would stop being a death notice.
        task_recv.close()
        result_send.close()
        reader = threading.Thread(
            target=self._pump,
            args=(worker_id, result_recv),
            daemon=True,
            name=f"bass-sweep-reader-{worker_id}",
        )
        reader.start()
        self.workers[worker_id] = _WorkerState(
            id=worker_id, process=process, tasks=task_send,
            conn=result_recv, reader=reader,
        )

    # -- message handling ---------------------------------------------

    def run(self) -> None:
        """Settle results as they arrive until every cell is settled."""
        while self.unsettled > 0:
            try:
                message = self.inbox.get(timeout=POLL_S)
            except Empty:  # quiet: the liveness backstop behind ``gone``
                for worker in list(self.workers.values()):
                    if not worker.process.is_alive():
                        self._reap(worker)
            else:
                self.handle(message)

    def handle(self, message: tuple) -> None:
        tag, worker = message[0], self.workers.get(message[1])
        if tag == "cell":
            self._settle(*message[2:])
        if worker is None:
            return  # last words of a worker the liveness poll already reaped
        if tag in ("ready", "cell"):
            worker.ready = True
            self._feed(worker)
        elif tag == "bye":
            self.reports[worker.id] = message[2]
        elif tag == "gone":
            self._reap(worker)

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

    # -- crash recovery -----------------------------------------------

    def _reap(self, worker: _WorkerState) -> None:
        """Charge the cell a dead worker held a retry, put it back or
        fail it, and spawn a replacement."""
        process = worker.process
        process.join(timeout=1.0)
        if process.is_alive():  # lost its channel, not its life: unusable
            process.terminate()
            process.join(timeout=1.0)
        exitcode = process.exitcode
        self.worker_crashes += 1
        if not worker.ready:
            self.boot_failures += 1
            if self.boot_failures > MAX_BOOT_FAILURES:
                raise RuntimeError(
                    f"sweep queue workers failed to boot "
                    f"{self.boot_failures} times (last exitcode "
                    f"{exitcode}); aborting the sweep"
                )
        self.reports[worker.id] = WorkerReport(worker.id, crashed=True)
        del self.workers[worker.id]
        worker.tasks.close()
        index = worker.cell
        if index is not None and index not in self.settled:
            retries = self.crash_counts.get(index, 0) + 1
            self.crash_counts[index] = retries
            if retries > MAX_CELL_RETRIES:
                self._settle(
                    index,
                    False,
                    f"SweepWorkerCrash: worker {worker.id} (pid "
                    f"{process.pid}) died with exitcode {exitcode} while "
                    f"executing cell {index}; the cell killed its worker "
                    f"on all {retries} attempt(s)\n",
                    0.0,
                    False,
                )
            else:
                self.queued.appendleft(index)
        if self.unsettled > 0 and len(self.workers) < self.jobs:
            self._spawn_worker()
        for idle in self.workers.values():
            if idle.ready and idle.cell is None:
                self._feed(idle)

    # -- shutdown -----------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, harvest their reports, reap stragglers."""
        for worker in self.workers.values():
            _send(worker.tasks, None)
        # A reader unwinds when its worker closes the result pipe —
        # after its bye, or by dying — so joining it waits for that
        # worker's last words and no longer.  The deadline bounds the
        # wait on a worker still inside a cell (a sweep abandoned by an
        # exception).
        deadline = time.perf_counter() + 5.0
        for worker in self.workers.values():
            worker.reader.join(max(0.0, deadline - time.perf_counter()))
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.tasks.close()
            # With the process gone its pipe is at end-of-file, and the
            # reader closes the connection as it unwinds.  Closing under
            # a reader that is between its closed-check and its read
            # raises inside that thread, so force-close only one that
            # is still stuck.
            worker.reader.join(timeout=1.0)
            if worker.reader.is_alive():
                try:
                    worker.conn.close()
                except OSError:
                    pass
        while not self.inbox.empty():
            message = self.inbox.get_nowait()
            if message[0] == "bye":
                self.handle(message)
        for worker_id in self.workers:
            self.reports.setdefault(
                worker_id, WorkerReport(worker_id, crashed=True)
            )

    def fabric_stats(self) -> FabricStats:
        return FabricStats(
            dispatched=self.dispatched,
            worker_crashes=self.worker_crashes,
            workers=tuple(self.reports[w] for w in sorted(self.reports)),
        )


def execute_queue(
    pending: Sequence[PendingCell],
    *,
    jobs: int,
    cache_root: Optional[str],
    sweep: str,
    settle: Callable[[int, bool, Any, float, bool], None],
) -> FabricStats:
    """Run ``pending`` over ``jobs`` warm workers, one cell at a time.

    ``settle(index, ok, payload, duration_s, from_cache)`` is invoked
    exactly once per cell, in completion order; the caller owns
    canonical-order merging.  ``sweep`` is stamped on the cache entries
    the workers write under ``cache_root`` (None: no store).  Returns
    the fabric's accounting for traces and instruments.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    driver = _QueueDriver(
        pending, jobs=jobs, cache_root=cache_root, sweep=sweep, settle=settle
    )
    try:
        driver.run()
    finally:
        driver.shutdown()
    return driver.fabric_stats()
