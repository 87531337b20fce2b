"""Seeded random-number streams.

Every stochastic subsystem (trace generation, workload arrivals, service
times) draws from its own named stream derived from one master seed, so
changing how one subsystem consumes randomness does not perturb the
others.  This is the standard trick for variance reduction in simulation
studies and makes experiments reproducible bit-for-bit.

Stream names are mapped to spawn keys with a *stable* digest (CRC-32),
never Python's built-in ``hash`` which is salted per process.
"""

from __future__ import annotations

import zlib

import numpy as np


def _stable_key(name: str) -> int:
    """Deterministic 32-bit key for a stream name, stable across runs."""
    return zlib.crc32(name.encode("utf-8"))


class RngStreams:
    """A family of independent :class:`numpy.random.Generator` streams.

    Streams are created lazily, keyed by name.  The same (seed, name) pair
    always yields an identical stream, in any process.

    Example:
        >>> streams = RngStreams(seed=7)
        >>> a = streams.get("arrivals").random()
        >>> b = RngStreams(seed=7).get("arrivals").random()
        >>> a == b
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(_stable_key(name),)
            )
            self._streams[name] = np.random.default_rng(sequence)
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive an independent child family, e.g. one per trial."""
        sequence = np.random.SeedSequence(
            entropy=self._seed, spawn_key=(_stable_key(name), 1)
        )
        return RngStreams(seed=int(sequence.generate_state(1)[0]))
