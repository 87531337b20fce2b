"""Open-loop request arrival processes.

The paper drives the social network with DeathStarBench's workload tool
at a fixed request rate, and separately with an exponential (Poisson)
arrival distribution "commonly used to model arrival rates" (§6.3.3).
Both are exposed as per-second request counts so the fluid traffic
model can scale edge demands each tick.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..errors import ConfigError


class FixedRate:
    """Constant request rate: exactly ``rps`` requests every second."""

    def __init__(self, rps: float) -> None:
        if not rps >= 0:  # NaN included
            raise ConfigError("rps must be non-negative")
        self.rps = float(rps)

    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate (requests/second)."""
        return self.rps

    def counts(self, duration_s: float, *, dt_s: float = 1.0) -> Iterator[float]:
        """Per-interval request counts over the horizon."""
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            yield self.rps * dt_s

    @property
    def mean_rps(self) -> float:
        return self.rps


class ExponentialArrivals:
    """Poisson process: exponential inter-arrivals at a mean rate.

    Per-second request counts are Poisson distributed, so the offered
    load is bursty — many seconds see well below the mean, some far
    above it, which is why §6.3.3 finds *lower* migration thresholds
    work better under this arrival pattern.
    """

    def __init__(
        self, mean_rps: float, rng: Optional[np.random.Generator] = None
    ) -> None:
        if not mean_rps >= 0:  # NaN included
            raise ConfigError("mean_rps must be non-negative")
        self.mean_rps_value = float(mean_rps)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def rate_at(self, t: float) -> float:
        """Realized rate for the second containing ``t`` (random draw).

        Note: each call draws fresh; use :meth:`counts` for a
        reproducible sequence over a horizon.
        """
        return float(self._rng.poisson(self.mean_rps_value))

    def counts(self, duration_s: float, *, dt_s: float = 1.0) -> Iterator[float]:
        steps = int(round(duration_s / dt_s))
        lam = self.mean_rps_value * dt_s
        for _ in range(steps):
            yield float(self._rng.poisson(lam))

    @property
    def mean_rps(self) -> float:
        return self.mean_rps_value
