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
* :mod:`repro.snap.capsule` — :class:`RunCapsule`, the picklable root
  object bundling a scenario's substrate with its timeline.
* :mod:`repro.snap.policy` — :class:`CheckpointPolicy`, the every-k-
  epochs / on-SIGTERM trigger attached via
  ``ControlPlane.attach_checkpoints``.

Which experiments are checkpointable, how each one's capsule is built
and what its summary reports is declared in the experiment catalogue
(:mod:`repro.experiments.catalog`), not here.
"""

from .capsule import RunCapsule
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
