"""Streaming trace backend: bounded memory, rotating JSONL shards.

The PR 2 flight recorder buffers every :class:`~repro.obs.trace.TraceEvent`
in memory and writes the trace once, at the end of the run.  That is
fine for the paper's minutes-long experiments and useless for the
always-on service mode: a week-long simulated horizon emits tens of
millions of events, and an operator wants the trace on disk *while the
run is live*, not after.

:class:`StreamingSink` is the incremental backend a
:class:`~repro.obs.trace.Tracer` flushes through:

* **Bounded residency** — only a ring buffer of the most recent
  ``window`` events stays in memory (for ``/v1/status`` style "what
  just happened" queries); everything older lives on disk only.
* **Rotating shards** — events append to the current shard file; every
  ``shard_events`` events the shard is sealed and the next one opened.
  Concatenating the shards in order reproduces the legacy
  ``Tracer.to_jsonl`` output byte for byte.
* **Atomic publication** — a shard is written as ``<name>.tmp`` and
  renamed to its final ``trace-NNNNN.jsonl`` name only when complete,
  so readers (and a crash) see either a whole shard or nothing.  The
  in-progress shard's ``.tmp`` file is written through an ordinary
  buffered handle — only :meth:`StreamingSink.flush`, a checkpoint
  pickle and the seal push it to the OS — so it trails the emit stream
  by at most one buffer.

Example:
    >>> import tempfile
    >>> from repro.obs.trace import TraceEvent
    >>> root = tempfile.mkdtemp()
    >>> sink = StreamingSink(root, window=2, shard_events=2)
    >>> for i in range(1, 6):
    ...     sink.append(TraceEvent(id=i, kind="restart", time=float(i)))
    >>> [e.id for e in sink.recent]  # only the window stays resident
    [4, 5]
    >>> sink.total_events
    5
    >>> sink.close()
    >>> [p.name for p in sink.shard_paths()]
    ['trace-00000.jsonl', 'trace-00001.jsonl', 'trace-00002.jsonl']
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import TraceEvent

#: Default bound on resident events (the live "recent activity" view).
DEFAULT_WINDOW = 4096

#: Default events per shard before rotation.
DEFAULT_SHARD_EVENTS = 100_000


class StreamingSink:
    """Size-bounded ring buffer + rotating, atomically-published shards.

    Args:
        directory: where shards are written (created if missing).
        window: resident ring-buffer size; memory stays O(window)
            regardless of run length.
        shard_events: events per shard before rotation.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        window: int = DEFAULT_WINDOW,
        shard_events: int = DEFAULT_SHARD_EVENTS,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if shard_events < 1:
            raise ValueError("shard_events must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.window = window
        self.shard_events = shard_events
        self.recent: deque["TraceEvent"] = deque(maxlen=window)
        self.total_events = 0
        self.closed = False
        self._shard_index = 0
        self._shard_count = 0
        self._handle = None
        self._tmp_path: Optional[Path] = None

    # -- the write path ----------------------------------------------------

    def append(self, event: "TraceEvent") -> None:
        """Record one event: ring buffer + current shard."""
        if self.closed:
            raise ValueError("sink is closed")
        # Everything that can refuse the event runs before anything is
        # counted, so a refused append leaves ring, totals and shard
        # agreeing.  Sealing can still fail after the event is counted;
        # ``total_events`` tells a caller which side of the line it was.
        line = event.to_json() + "\n"
        if self._handle is None:
            self._open_shard()
        self._handle.write(line)
        self.recent.append(event)
        self.total_events += 1
        self._shard_count += 1
        if self._shard_count >= self.shard_events:
            self._seal_shard()

    def flush(self) -> None:
        """Push buffered lines of the in-progress shard to the OS."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Seal and publish the in-progress shard; idempotent."""
        if self.closed:
            return
        if self._handle is None and self._shard_count > 0:
            # Restored from a checkpoint and closed before the next
            # append: reopen (truncating past-checkpoint lines) so the
            # in-progress shard still seals correctly.
            self._open_shard()
        if self._handle is not None:
            if self._shard_count > 0:
                self._seal_shard()
            else:  # an opened-but-empty shard leaves no file behind
                self._handle.close()
                self._tmp_path.unlink(missing_ok=True)
                self._handle = None
        self.closed = True

    # -- checkpoint support --------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle support: flush, then drop the OS file handle.

        The shard position (``_shard_index``, ``_shard_count``) rides
        along; the handle is reopened — truncating any lines the dying
        process wrote past this point — on the next append or close.
        """
        self.flush()
        state = self.__dict__.copy()
        state["_handle"] = None
        state["_tmp_path"] = None
        return state

    # -- shard bookkeeping -------------------------------------------------

    def _shard_name(self, index: int) -> str:
        return f"trace-{index:05d}.jsonl"

    def _open_shard(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.directory / (
            self._shard_name(self._shard_index) + ".tmp"
        )
        if self._shard_count > 0:
            self._resume_shard()
        else:
            self._handle = open(self._tmp_path, "w")

    def _resume_shard(self) -> None:
        """Reopen the in-progress shard after a checkpoint restore.

        ``_shard_count`` records how many lines the shard held when the
        sink was serialized.  The killed process may have (a) written
        further lines past the checkpoint into the ``.tmp`` file, or
        (b) sealed the shard early during SIGTERM shutdown.  Either
        way, exactly the first ``_shard_count`` lines are kept and the
        shard is reopened for append, so the restored run's shards are
        byte-identical to an uninterrupted run's.
        """
        sealed = self.directory / self._shard_name(self._shard_index)
        source = self._tmp_path if self._tmp_path.exists() else sealed
        if not source.exists():
            raise FileNotFoundError(
                f"cannot resume trace shard {self._tmp_path.name}: neither "
                f"it nor {sealed.name} exists in {self.directory}"
            )
        with open(source) as handle:
            lines = handle.readlines()
        if len(lines) < self._shard_count:
            raise ValueError(
                f"trace shard {source.name} has {len(lines)} lines but the "
                f"checkpoint recorded {self._shard_count}; refusing to "
                "resume from a truncated shard"
            )
        with open(self._tmp_path, "w") as handle:
            handle.writelines(lines[: self._shard_count])
        if source == sealed:
            sealed.unlink()
        self._handle = open(self._tmp_path, "a")

    def _seal_shard(self) -> None:
        self._handle.close()
        final = self.directory / self._shard_name(self._shard_index)
        os.replace(self._tmp_path, final)
        self._handle = None
        self._tmp_path = None
        self._shard_index += 1
        self._shard_count = 0

    # -- the read side -----------------------------------------------------

    @property
    def published_shards(self) -> int:
        return self._shard_index

    def shard_paths(self) -> list[Path]:
        """Published (complete) shards, in emit order."""
        return sorted(self.directory.glob("trace-*.jsonl"))
