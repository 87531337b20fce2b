"""Content-addressed on-disk cache for completed sweep cells.

Every cell is addressed by a stable SHA-256 key over its *content*:
the cell function's import path, its keyword arguments (canonically
encoded, so dict insertion order never matters), and a code fingerprint
of the modules the cell exercises (see :mod:`repro.runner.fingerprint`).
Two processes — or two machines — that run the same cell against the
same code compute the same key and share the entry.

Entries are single JSON files under ``<root>/<key[:2]>/<key>.json``.
Writes go to a temporary file in the same directory and are published
with an atomic ``os.replace``, so a crash mid-write can never leave a
partial entry behind: readers see either nothing or a complete record.
The temp name embeds the writer's pid plus a per-process counter, so
any number of workers racing to publish the *same* key is safe: each
replace is atomic, last writer wins, and both wrote identical bytes
(the key is content-addressed).  Corrupt or truncated entries — an
external writer interrupted without the atomic rename, disk trouble —
degrade to a miss with a :class:`CacheEntryWarning` so the sweep
re-runs the cell instead of crashing.

A read-through in-memory layer sits in front of the disk: each
:class:`ResultCache` instance (one per warm worker) keeps the values
it has seen, so repeated probes of a hot key skip the disk after the
first hit.

Example:
    >>> key_a = cell_key("m:f", {"a": 1, "b": {"x": 1, "y": 2}}, "fp")
    >>> key_b = cell_key("m:f", {"b": {"y": 2, "x": 1}, "a": 1}, "fp")
    >>> key_a == key_b  # dict order is irrelevant to the address
    True
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from pathlib import Path
from typing import Any, Mapping, Optional

from .codec import canonical_json, decode_value, encode_value

#: Sentinel distinguishing a cache miss from a legitimately-None value.
MISS: Any = object()

_SCHEMA = 1


class CacheEntryWarning(UserWarning):
    """A cache entry could not be read (treated as a miss) or could not
    be encoded (not written); either way the cell simply re-runs."""


def cell_key(
    fn: str, kwargs: Mapping[str, Any], fingerprint: str
) -> str:
    """The content address of one cell: hash(fn + kwargs + code).

    ``kwargs`` is canonically encoded first (sorted keys at every
    nesting level), so two configurations that differ only in dict
    insertion order share a key — and therefore a cache entry.
    """
    material = canonical_json(
        {"fn": fn, "kwargs": dict(kwargs), "code": fingerprint}
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of completed cell results.

    Args:
        root: cache directory (created on first write).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._memory: dict[str, Any] = {}
        self._temp_serial = itertools.count()

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out by prefix)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any:
        """The decoded result for ``key``, or :data:`MISS`.

        Served from the in-memory read-through layer when this instance
        has already seen the key.  Unreadable or corrupt entries
        (interrupted external writers, schema drift) count as misses —
        with a :class:`CacheEntryWarning` — rather than failures: the
        cell simply re-runs and rewrites the entry.
        """
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        path = self.path_for(key)
        try:
            record = json.loads(path.read_text())
            result = decode_value(record["result"])
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError,
                ModuleNotFoundError, OSError) as error:
            warnings.warn(
                f"unreadable sweep-cache entry {path} "
                f"({type(error).__name__}: {error}); treating as a miss "
                f"and re-running the cell",
                CacheEntryWarning,
                stacklevel=2,
            )
            self.misses += 1
            return MISS
        self.hits += 1
        self._memory[key] = result
        return result

    def put(
        self,
        key: str,
        result: Any,
        *,
        sweep: str = "",
        label: str = "",
    ) -> Path:
        """Persist ``result`` under ``key`` atomically.

        The record is written to a same-directory temp file (named
        uniquely per writer process *and* per write, so concurrent
        same-key writers never collide on the temp path) and published
        with ``os.replace``; on any failure the temp file is removed,
        so no partial entry ever becomes visible.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": _SCHEMA,
            "key": key,
            "sweep": sweep,
            "label": label,
            "result": encode_value(result),
        }
        temp = path.parent / (
            f".{key}.tmp-{os.getpid()}-{next(self._temp_serial)}"
        )
        try:
            temp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        self._memory[key] = result
        return path

    def put_or_warn(
        self, key: str, result: Any, *, sweep: str, label: str
    ) -> None:
        """:meth:`put` for a freshly computed cell result.

        A result the codec cannot encode costs only its cache entry:
        a :class:`CacheEntryWarning` is issued, nothing is written, and
        the cell re-runs next time.  The serial loop and the fabric's
        workers both store through here, so an unencodable result
        behaves the same whichever process computed it.
        """
        try:
            self.put(key, result, sweep=sweep, label=label)
        except TypeError as error:
            warnings.warn(
                f"result of cell {label or key[:12]!r} in sweep {sweep!r} "
                f"is not cacheable ({error}); it still reduces, but the "
                f"cell will re-run next time",
                CacheEntryWarning,
                stacklevel=2,
            )

    def __len__(self) -> int:
        """Number of complete entries on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


def open_cache(root: Optional[str | Path]) -> Optional[ResultCache]:
    """A :class:`ResultCache` at ``root``, or None when ``root`` is None
    (caching disabled)."""
    return None if root is None else ResultCache(root)
