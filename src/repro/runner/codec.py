"""JSON codec for sweep results and cache values.

Sweep cells return result dataclasses (:class:`ThresholdCell`,
:class:`ChurnResult`, ...).  The cache stores them on disk as JSON, and
the golden comparisons pin sweep outputs byte-for-byte, so the encoding
must be *canonical*: the same value always renders to the same bytes,
regardless of dict insertion order or which process produced it.

The encoding is reversible without a schema:

* dataclasses become ``{"__dataclass__": "module:Qualname",
  "fields": {...}}`` and are reconstructed by importing the class;
* tuples become ``{"__tuple__": [...]}`` (JSON has no tuple type, and
  several result dataclasses distinguish tuples from lists);
* dicts keep string keys and are serialized with sorted keys, so two
  configs that differ only in dict insertion order share one encoding
  (and therefore one cache entry);
* floats round-trip exactly through ``repr`` (shortest-repr floats are
  bijective in Python 3), including ``NaN`` for never-recovered stats;
* series fields stay what the figures return — NumPy arrays — and
  become ``{"__ndarray__": [...], "dtype": "float64"}``, decoded back
  to an array of that dtype (NumPy *scalars* still normalize to plain
  Python numbers).

Every cell result round-trips: ``decode_value(encode_value(r)) == r``,
and for the result dataclasses that hold arrays — where NumPy's
elementwise ``==`` makes dataclass equality raise — the arrays are
``np.array_equal`` and ``encode_value`` of both sides is identical.

Decoding re-imports the dataclass by name, so encoded values only
round-trip for classes importable in the decoding process (true for
all result dataclasses, which live in the package).

Example:
    >>> from repro.runner.testing import SquareResult
    >>> decode_value(encode_value(SquareResult(value=3, squared=9, seed=0)))
    SquareResult(value=3, squared=9, seed=0)
    >>> canonical_json({"b": 2, "a": 1}) == canonical_json({"a": 1, "b": 2})
    True
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import Any

import numpy as np

_DATACLASS_KEY = "__dataclass__"
_TUPLE_KEY = "__tuple__"
_NDARRAY_KEY = "__ndarray__"
_MARKERS = (_DATACLASS_KEY, _TUPLE_KEY, _NDARRAY_KEY)


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serializable primitives, reversibly."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _DATACLASS_KEY: f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                spec.name: encode_value(getattr(value, spec.name))
                for spec in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TUPLE_KEY: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"sweep codec requires string dict keys, got {key!r}"
                )
            if key in _MARKERS:
                raise TypeError(
                    f"dict key {key!r} collides with a codec marker"
                )
            encoded[key] = encode_value(item)
        return encoded
    if isinstance(value, np.ndarray):
        return {_NDARRAY_KEY: value.tolist(), "dtype": str(value.dtype)}
    # numpy scalars first: np.float64 *is* a float subclass, but the
    # canonical encoding normalizes to plain Python scalars throughout.
    if isinstance(value, np.generic):
        return encode_value(value.item())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot encode {type(value).__qualname__} for the sweep cache; "
        "cell results must be dataclasses of JSON-friendly primitives"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if _DATACLASS_KEY in value:
            module_name, _, qualname = value[_DATACLASS_KEY].partition(":")
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            fields = {
                name: decode_value(item)
                for name, item in value["fields"].items()
            }
            return obj(**fields)
        if _TUPLE_KEY in value:
            return tuple(decode_value(item) for item in value[_TUPLE_KEY])
        if _NDARRAY_KEY in value:
            return np.asarray(value[_NDARRAY_KEY], dtype=value["dtype"])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic one-line JSON of ``value`` (encoded first).

    Keys are sorted and separators fixed, so equal values — including
    dicts built in different insertion orders — always produce the same
    bytes.  This string is both the cache-key material and the golden
    sweep output format.
    """
    return json.dumps(
        encode_value(value), sort_keys=True, separators=(",", ":")
    )
