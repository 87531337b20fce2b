"""Checkpoint/restore: durable snapshots and deterministic resume.

The subsystem serializes the *entire* run state — engine clock and
pending-event heap, RNG stream positions, emulator flows, cluster
ledger, control-plane epochs/claims/handoffs, tracer, status publisher
— into a versioned, fingerprinted snapshot file, and restores it into a
fresh process such that ticking to completion is byte-identical to the
uninterrupted run (the invariant the checkpoint goldens pin).

Layers:

* :mod:`repro.snap.snapshot` — the on-disk format: atomic writes, a
  JSON header carrying schema version + code fingerprint + payload
  digest, and refuse-to-restore on any mismatch.
* :mod:`repro.snap.policy` — :class:`CheckpointPolicy`, the every-k-
  epochs / on-SIGTERM trigger attached via
  ``ControlPlane.attach_checkpoints``.

The root object a snapshot serializes is
:class:`~repro.experiments.common.RunCapsule` (re-exported here): a
checkpointable cell's wired substrate and timeline, built by the cell
function's ``capsule`` builder (``@checkpointable``).  Which
experiments are checkpointable, and which of their cells, is declared
in the experiment catalogue (:mod:`repro.experiments.catalog`), not
here.
"""

from ..experiments.common import RunCapsule
from .policy import CheckpointPolicy, checkpoint_into
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotFingerprintError,
    SnapshotMeta,
    SnapshotVersionError,
    inspect_snapshot,
    latest_checkpoint,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointPolicy",
    "RunCapsule",
    "checkpoint_into",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotFingerprintError",
    "SnapshotMeta",
    "SnapshotVersionError",
    "inspect_snapshot",
    "latest_checkpoint",
    "read_snapshot",
    "write_snapshot",
]
