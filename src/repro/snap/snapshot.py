"""The on-disk snapshot format.

A snapshot file is one JSON header line followed by a raw pickle
payload::

    {"magic": "bass-snapshot", "version": 2, "fingerprint": "...",
     "scenario": "fig13", "sim_time_s": 60.0,
     "payload_bytes": 123456, "payload_sha256": "..."}\\n
    <pickle bytes>

The header is everything needed to *refuse* a restore without touching
the payload: schema version, the code fingerprint of the ``repro``
package that wrote it (:func:`repro.runner.fingerprint.code_fingerprint`
— restoring a heap of bound methods into different code would resume
deterministically into the *wrong* run), and the payload's length and
SHA-256 (truncation and bit-rot detection).  Only after all four checks
pass is the payload unpickled.

The payload is the capsule alone: every object pickles its own fields
minus the derived ones its class declares (:mod:`repro.sim.derived`),
and flow-id serials live on the emulator.  Restoring touches no
process-global state, so a failed restore leaves the process and the
run directory as they were, and a run's bytes do not depend on what ran
before it in the process.

Writes are atomic temp-then-rename, the same discipline as the result
cache and the status publisher: readers (and a crash mid-write) see
either a complete snapshot or none.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import SnapshotError

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
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

SNAPSHOT_MAGIC = "bass-snapshot"

#: Bump when the payload layout changes incompatibly.  Version 2: the
#: payload is the capsule alone (version 1 wrapped it beside the
#: process-global id sequences).
SNAPSHOT_VERSION = 2


class SnapshotCorruptError(SnapshotError):
    """The file is truncated, bit-rotted, or not a snapshot at all."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written under a different schema version."""


class SnapshotFingerprintError(SnapshotError):
    """The snapshot was written by different ``repro`` code."""


@dataclass(frozen=True)
class SnapshotMeta:
    """The parsed header of one snapshot file."""

    version: int
    fingerprint: str
    scenario: str
    sim_time_s: float
    payload_bytes: int
    payload_sha256: str


def _code_fingerprint() -> str:
    from ..runner.fingerprint import code_fingerprint

    return code_fingerprint()


def write_snapshot(
    path: str | Path,
    capsule,
    *,
    fingerprint: Optional[str] = None,
) -> SnapshotMeta:
    """Serialize ``capsule`` to ``path``, atomically.  Returns the
    header that was written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
    meta = SnapshotMeta(
        version=SNAPSHOT_VERSION,
        fingerprint=(
            fingerprint if fingerprint is not None else _code_fingerprint()
        ),
        scenario=capsule.scenario,
        sim_time_s=capsule.env.engine.now,
        payload_bytes=len(payload),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
    )
    header = json.dumps(
        {
            "magic": SNAPSHOT_MAGIC,
            "version": meta.version,
            "fingerprint": meta.fingerprint,
            "scenario": meta.scenario,
            "sim_time_s": meta.sim_time_s,
            "payload_bytes": meta.payload_bytes,
            "payload_sha256": meta.payload_sha256,
        },
        sort_keys=True,
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header.encode("utf-8") + b"\n")
        handle.write(payload)
    os.replace(tmp, path)
    return meta


def _parse(path: Path) -> tuple[SnapshotMeta, bytes]:
    """Read + integrity-check a snapshot file; payload stays pickled."""
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SnapshotCorruptError(
            f"cannot read snapshot {path}: {error}"
        ) from error
    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotCorruptError(
            f"{path} has no header line; not a snapshot file"
        )
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(
            f"{path} has an unparsable header: {error}"
        ) from error
    if header.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(
            f"{path} has magic {header.get('magic')!r}, "
            f"expected {SNAPSHOT_MAGIC!r}"
        )
    try:
        meta = SnapshotMeta(
            version=int(header["version"]),
            fingerprint=str(header["fingerprint"]),
            scenario=str(header["scenario"]),
            sim_time_s=float(header["sim_time_s"]),
            payload_bytes=int(header["payload_bytes"]),
            payload_sha256=str(header["payload_sha256"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotCorruptError(
            f"{path} header is missing fields: {error}"
        ) from error
    if meta.version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path} has snapshot schema version {meta.version}; this "
            f"code reads version {SNAPSHOT_VERSION} — refusing to restore"
        )
    payload = raw[newline + 1 :]
    if len(payload) != meta.payload_bytes:
        raise SnapshotCorruptError(
            f"{path} payload is {len(payload)} bytes, header promised "
            f"{meta.payload_bytes} (truncated or appended-to)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != meta.payload_sha256:
        raise SnapshotCorruptError(
            f"{path} payload digest mismatch (bit rot or tampering)"
        )
    return meta, payload


def inspect_snapshot(path: str | Path) -> SnapshotMeta:
    """Validate a snapshot's header + payload integrity without
    unpickling or restoring anything."""
    meta, _ = _parse(Path(path))
    return meta


def read_snapshot(
    path: str | Path, *, check_fingerprint: bool = True
) -> tuple[SnapshotMeta, object]:
    """Restore a snapshot: full validation, then unpickle.  Returns
    ``(meta, capsule)``.

    Ordering is the safety property: every header/digest/fingerprint
    check happens *before* the pickle runs — a raised
    :class:`SnapshotError` means nothing was restored.
    """
    path = Path(path)
    meta, payload = _parse(path)
    if check_fingerprint:
        current = _code_fingerprint()
        if meta.fingerprint != current:
            raise SnapshotFingerprintError(
                f"{path} was written by repro code {meta.fingerprint[:12]}…, "
                f"this process runs {current[:12]}… — a restored event heap "
                "would resume into different code; refusing to restore "
                "(pass --no-fingerprint-check / check_fingerprint=False "
                "to override)"
            )
    try:
        capsule = pickle.loads(payload)
        if capsule.scenario != meta.scenario:
            raise ValueError(f"it holds {capsule.scenario!r}")
    except Exception as error:
        raise SnapshotCorruptError(
            f"{path} payload failed to unpickle to the header's "
            f"{meta.scenario!r} capsule: {error}"
        ) from error
    return meta, capsule


def latest_checkpoint(directory: str | Path) -> Optional[Path]:
    """The newest checkpoint in a directory, or None.

    Ordered by modification time with name as tie-breaker: a resumed
    run's periodic ``checkpoint-e…`` files must shadow the previous
    incarnation's ``final-t…`` snapshot even though they sort earlier
    lexicographically.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    paths = sorted(
        directory.glob("*.bass"),
        key=lambda p: (p.stat().st_mtime, p.name),
    )
    return paths[-1] if paths else None
