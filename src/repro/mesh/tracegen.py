"""Synthetic CityLab-like bandwidth trace generation.

The paper drives its emulated mesh with traces captured on CityLab, an
outdoor 802.11n deployment in Antwerp (§2.1).  Those captures are not
public, so we substitute a generative model calibrated to the published
statistics (Fig 2):

* a *stable* link: mean 19.9 Mbps, std ≈ 10 % of mean;
* a *variable* link: mean 7.62 Mbps, std ≈ 27 % of mean.

Wireless capacity processes are well approximated by a mean-reverting
AR(1) (Gauss–Markov) process — fluctuations are temporally correlated
(fading, interference bursts) but revert to a long-run mean — overlaid
with occasional deep *fades* (a truck parking in the Fresnel zone,
foliage swaying) modelled as multiplicative drops of random duration.
Both components exercise exactly the code paths the real traces would:
slow drift stresses headroom probing, deep fades trigger full probes and
migrations.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .traces import BandwidthTrace


def ar1_trace(
    mean_mbps: float,
    rel_std: float,
    duration_s: float,
    *,
    dt_s: float = 1.0,
    phi: float = 0.95,
    rng: np.random.Generator | None = None,
    floor_mbps: float = 0.1,
) -> BandwidthTrace:
    """Mean-reverting AR(1) bandwidth trace.

    ``b[t] = mean + phi * (b[t-1] - mean) + eps``, with ``eps`` white
    Gaussian noise scaled so the *stationary* standard deviation equals
    ``rel_std * mean``.

    Args:
        mean_mbps: long-run mean capacity.
        rel_std: target std as a fraction of the mean (Fig 2: 0.10, 0.27).
        duration_s: trace length in seconds.
        dt_s: sample spacing.
        phi: autocorrelation coefficient in [0, 1); higher = slower drift.
        rng: random generator (defaults to a fresh seeded one).
        floor_mbps: capacities are clipped below at this value — a
            wireless link rarely drops to exactly zero without failing.
    """
    if not 0 <= phi < 1:
        raise TraceError("phi must be in [0, 1)")
    if duration_s <= 0 or dt_s <= 0:
        raise TraceError("duration_s and dt_s must be positive")
    if rel_std < 0:
        raise TraceError("rel_std must be non-negative")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = max(2, int(round(duration_s / dt_s)))
    sigma_stationary = rel_std * mean_mbps
    sigma_eps = sigma_stationary * np.sqrt(1.0 - phi * phi)
    noise = rng.normal(0.0, sigma_eps, size=n)
    # The recursion runs over Python floats: the same IEEE operations in
    # the same order as over numpy scalars, without boxing one per sample.
    mean, phi = float(mean_mbps), float(phi)
    value = mean + rng.normal(0.0, sigma_stationary)
    samples = [value]
    for eps in noise[1:].tolist():
        value = mean + phi * (value - mean) + eps
        samples.append(value)
    values = np.clip(np.array(samples), floor_mbps, None)
    times = np.arange(n) * dt_s
    return BandwidthTrace(times, values)


def trace_with_fades(
    base: BandwidthTrace,
    *,
    fade_rate_per_hour: float = 6.0,
    fade_depth: tuple[float, float] = (0.3, 0.7),
    fade_duration_s: tuple[float, float] = (30.0, 180.0),
    rng: np.random.Generator | None = None,
) -> BandwidthTrace:
    """Overlay random deep fades on a base trace.

    Fades arrive as a Poisson process; each multiplies capacity by a
    factor drawn uniformly from ``1 - fade_depth`` range for a uniform
    random duration.  These are the events that violate headroom and
    force BASS to migrate.

    Args:
        base: underlying trace.
        fade_rate_per_hour: expected fades per hour.
        fade_depth: (min, max) fractional capacity *reduction*.
        fade_duration_s: (min, max) fade length in seconds.
        rng: random generator.
    """
    if fade_rate_per_hour < 0:
        raise TraceError("fade_rate_per_hour must be non-negative")
    rng = rng if rng is not None else np.random.default_rng(0)
    times = base.times
    values = base.values
    horizon = float(times[-1])
    multiplier = np.ones_like(values)
    t = 0.0
    rate_per_s = fade_rate_per_hour / 3600.0
    while rate_per_s > 0:
        t += rng.exponential(1.0 / rate_per_s)
        if t >= horizon:
            break
        depth = rng.uniform(*fade_depth)
        duration = rng.uniform(*fade_duration_s)
        mask = (times >= t) & (times < t + duration)
        multiplier[mask] = np.minimum(multiplier[mask], 1.0 - depth)
    return BandwidthTrace(times, np.maximum(values * multiplier, 0.1))


def citylab_stable_link_trace(
    duration_s: float = 3600.0,
    *,
    rng: np.random.Generator | None = None,
) -> BandwidthTrace:
    """A trace matching Fig 2's *stable* CityLab link.

    Mean 19.9 Mbps, std 10 % of mean, slow drift, rare shallow fades.
    """
    rng = rng if rng is not None else np.random.default_rng(1)
    base = ar1_trace(19.9, 0.10, duration_s, phi=0.97, rng=rng)
    return trace_with_fades(
        base,
        fade_rate_per_hour=1.0,
        fade_depth=(0.15, 0.30),
        fade_duration_s=(20.0, 60.0),
        rng=rng,
    )


def citylab_variable_link_trace(
    duration_s: float = 3600.0,
    *,
    rng: np.random.Generator | None = None,
) -> BandwidthTrace:
    """A trace matching Fig 2's *variable* CityLab link.

    Mean 7.62 Mbps, std 27 % of mean, faster drift, frequent deep fades.
    """
    rng = rng if rng is not None else np.random.default_rng(2)
    base = ar1_trace(7.62, 0.22, duration_s, phi=0.92, rng=rng)
    return trace_with_fades(
        base,
        fade_rate_per_hour=8.0,
        fade_depth=(0.3, 0.6),
        fade_duration_s=(30.0, 120.0),
        rng=rng,
    )


def citylab_link_trace(
    mean_mbps: float,
    duration_s: float = 1200.0,
    *,
    variability: str = "moderate",
    rng: np.random.Generator | None = None,
) -> BandwidthTrace:
    """A CityLab-style trace around an arbitrary mean capacity.

    Used to drive every link of the emulated 5-node mesh (§6.3): links
    get a mean from the topology (Fig 15a) and a variability class.

    Args:
        mean_mbps: long-run mean capacity of the link.
        duration_s: trace length (the paper's runs are ~20 minutes).
        variability: ``"low"`` | ``"moderate"`` | ``"high"``, mapping to
            increasing relative std and fade frequency.
        rng: random generator.
    """
    profiles = {
        "low": dict(rel_std=0.08, phi=0.97, fades=1.0, depth=(0.1, 0.25)),
        "moderate": dict(rel_std=0.15, phi=0.95, fades=4.0, depth=(0.2, 0.45)),
        "high": dict(rel_std=0.27, phi=0.92, fades=9.0, depth=(0.3, 0.65)),
    }
    if variability not in profiles:
        raise TraceError(
            f"variability must be one of {sorted(profiles)}, got {variability!r}"
        )
    profile = profiles[variability]
    rng = rng if rng is not None else np.random.default_rng(3)
    base = ar1_trace(
        mean_mbps, profile["rel_std"], duration_s, phi=profile["phi"], rng=rng
    )
    # Fades last minutes — the paper's CityLab captures show capacity
    # drops persisting long enough that "bandwidth fluctuations needing
    # a component migration happen in the order of minutes" (§6.3.4);
    # Fig 8's example drop lasts >5 minutes.
    return trace_with_fades(
        base,
        fade_rate_per_hour=profile["fades"],
        fade_depth=profile["depth"],
        fade_duration_s=(90.0, 420.0),
        rng=rng,
    )
