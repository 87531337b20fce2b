"""When checkpoints get written.

:class:`CheckpointPolicy` attaches to a control plane
(``ControlPlane.attach_checkpoints``) and fires at the end of every
fleet epoch.  Two design constraints shape it:

* **The heap must be complete.**  ``_end_epoch`` runs *inside* a
  ``PeriodicTask`` firing, before the task re-arms itself — a snapshot
  taken right there would restore into a world whose epoch loop never
  ticks again.  So the policy defers: it schedules a zero-delay event
  and writes from *that*, when the re-arm is already queued.
* **Writes are trace-silent.**  The deferred event consumes one engine
  sequence number — identically in every run that attaches the same
  policy — but emits no trace events and draws no randomness, so a
  restored run's traces stay byte-identical to an uninterrupted run
  with the same policy attached.  (With ``every_k_epochs=0`` the policy
  schedules nothing at all: only explicit :meth:`write` calls — the
  CLI's ``--stop-at`` and the SIGTERM path — produce snapshots, and a
  flag-free run is byte-identical to one that never checkpointed.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .snapshot import SnapshotMeta, write_snapshot


class CheckpointPolicy:
    """Periodic (every k epochs) and on-demand checkpoint writes.

    Args:
        directory: where snapshot files go (created on first write).
        every_k_epochs: periodic cadence; 0 disables periodic writes.
        keep: how many periodic snapshots to retain (oldest pruned).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every_k_epochs: int = 0,
        keep: int = 3,
    ) -> None:
        if every_k_epochs < 0:
            raise ValueError("every_k_epochs must be >= 0")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.every_k_epochs = every_k_epochs
        self.keep = keep
        self.capsule = None
        self.written: list[Path] = []
        self.last_meta: Optional[SnapshotMeta] = None
        self._armed = False

    def bind(self, capsule) -> None:
        """Point the policy at the capsule it snapshots."""
        self.capsule = capsule

    # -- the epoch hook ----------------------------------------------------

    def on_epoch(self, now: float, epoch: int) -> None:
        """Called by ``ControlPlane._end_epoch``; defers the actual
        write to a zero-delay event so the epoch task's re-arm is in
        the heap before pickling."""
        if self.capsule is None or self.every_k_epochs < 1:
            return
        if epoch % self.every_k_epochs != 0:
            return
        if self._armed:
            # Two cadences ending epochs at one timestamp collapse to
            # one write (deterministically, in every run).
            return
        self._armed = True
        self.capsule.engine.schedule_at(now, self._write_due)

    def _write_due(self) -> None:
        self._armed = False
        # Listed before the pickle is taken, so a run resumed from this
        # snapshot prunes it in its turn.
        self.written.append(self._path(None))
        self.write()
        while len(self.written) > self.keep:
            stale = self.written.pop(0)
            stale.unlink(missing_ok=True)

    # -- writes ------------------------------------------------------------

    def write(self, *, label: Optional[str] = None) -> Path:
        """Write one snapshot now; returns its path.

        Default names embed the epoch count (zero-padded, so
        lexicographic order is write order); explicit labels — the
        CLI's ``stop-…`` and the serve path's ``final`` — are used
        verbatim plus the ``.bass`` suffix.
        """
        if self.capsule is None:
            raise ValueError("policy has no capsule bound")
        path = self._path(label)
        self.last_meta = write_snapshot(path, self.capsule)
        return path

    def _path(self, label: Optional[str]) -> Path:
        if label is None:
            epoch = self.capsule.control_plane.epoch_count
            label = f"checkpoint-e{epoch:06d}"
        return self.directory / f"{label}.bass"


def checkpoint_into(
    capsule, directory: str | Path, *, every_k_epochs: int
) -> CheckpointPolicy:
    """Make ``capsule`` checkpoint into ``directory``.

    A capsule without a policy gets a new one at the given cadence.
    One restored from a checkpoint already carries the policy it was
    written under: its pickled cadence shapes the event heap, so it is
    kept and only re-pointed at this invocation's directory.  Pointed
    elsewhere, it forgets the snapshots it wrote before: they are not
    this run's to prune.
    """
    directory = Path(directory)
    policy = capsule.control_plane.checkpoints
    if policy is None:
        policy = CheckpointPolicy(directory, every_k_epochs=every_k_epochs)
        policy.bind(capsule)
        capsule.control_plane.attach_checkpoints(policy)
    elif directory.resolve() != policy.directory.resolve():
        policy.directory = directory
        policy.written = []
    return policy
