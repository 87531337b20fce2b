"""The sweep codec: reversible, canonical, and strict about inputs.

Canonical bytes are load-bearing twice over — they are the cache-key
material (dict-order insensitivity is what makes two equal configs
share an entry) and the golden sweep output format (byte-identity
across ``--jobs`` settings is diffed with ``cmp``).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.experiments.thresholds import ThresholdCell
from repro.runner import canonical_json, decode_value, encode_value
from repro.runner.testing import SquareResult


@dataclass(frozen=True)
class Nested:
    name: str
    point: tuple
    weights: dict = field(default_factory=dict)


def test_dataclass_round_trips():
    cell = ThresholdCell(
        heuristic="bfs",
        threshold=0.65,
        headroom=0.2,
        upper_quartile_latency_s=1.25,
        mean_latency_s=0.875,
        p99_latency_s=3.5,
        migrations=4,
    )
    assert decode_value(encode_value(cell)) == cell


def test_nested_containers_round_trip():
    value = Nested(
        name="n",
        point=(1, (2.5, "x"), None),
        weights={"a": [1, 2], "b": {"c": (True, False)}},
    )
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert isinstance(decoded.point, tuple)
    assert isinstance(decoded.point[1], tuple)
    assert isinstance(decoded.weights["a"], list)


def test_canonical_json_ignores_dict_insertion_order():
    ab = canonical_json({"a": 1, "b": {"x": 1, "y": 2}})
    ba = canonical_json({"b": {"y": 2, "x": 1}, "a": 1})
    assert ab == ba


def test_floats_round_trip_exactly():
    values = [0.1, 1 / 3, 1e-300, -0.0, float("inf")]
    decoded = decode_value(encode_value(values))
    for original, back in zip(values, decoded):
        assert back == original
        assert math.copysign(1.0, back) == math.copysign(1.0, original)


def test_nan_survives_encoding():
    decoded = decode_value(encode_value({"ttr": float("nan")}))
    assert math.isnan(decoded["ttr"])


def test_numpy_scalars_become_python_scalars():
    encoded = encode_value([np.float64(1.5), np.int64(3), np.bool_(True)])
    assert encoded == [1.5, 3, True]
    assert all(
        type(item) in (float, int, bool) for item in encoded
    )


def test_non_string_dict_keys_rejected():
    with pytest.raises(TypeError, match="string dict keys"):
        encode_value({1: "x"})


def test_marker_collision_rejected():
    with pytest.raises(TypeError, match="codec marker"):
        encode_value({"__tuple__": [1]})


def test_unencodable_value_rejected():
    with pytest.raises(TypeError, match="cannot encode"):
        encode_value(object())


def test_decoded_dataclass_is_the_real_class():
    decoded = decode_value(encode_value(SquareResult(2, 4, 0)))
    assert isinstance(decoded, SquareResult)
    assert decoded == SquareResult(value=2, squared=4, seed=0)


def test_arrays_round_trip_as_arrays():
    """Series fields stay NumPy arrays; a size-2 array used to escape
    as ``ValueError: can only convert an array of size 1``."""
    series = np.array([1.0, 2.0, 0.1])
    decoded = decode_value(encode_value(series))
    assert isinstance(decoded, np.ndarray)
    assert decoded.dtype == series.dtype
    assert np.array_equal(decoded, series)
    assert decode_value(encode_value(np.arange(3))).dtype == np.arange(3).dtype
    # Inside a result: same canonical bytes on the far side.
    nested = Nested(name="n", point=(series,), weights={"empty": np.array([])})
    assert canonical_json(decode_value(encode_value(nested))) == canonical_json(
        nested
    )
    with pytest.raises(TypeError, match="collides with a codec marker"):
        encode_value({"__ndarray__": [1.0]})
