"""System-wide configuration for BASS.

:class:`BassConfig` gathers the per-application tunables the paper
exposes: the link utilisation (goodput) threshold for migration, the
headroom fraction kept spare on each link, the probing interval and
the controller cooldown.  Defaults follow the values used throughout
§4 and §6 of the paper (50 % goodput threshold, 20 % headroom, 30 s
probe interval).  The probe's own size and length are fixed by §4.2
(10 % of link capacity for 1 s) and live as constants in
:mod:`repro.core.netmonitor`, as does the full-probe cooldown; the
per-evaluation migration budget is a constant of
:mod:`repro.core.controller`.  :class:`FleetConfig` holds the
one per-mesh knob of the control plane: how the mesh is cut into
regions (default one region spanning it).

Two settings live outside these classes, each in one place.  The
restart cost a migration pays (paper: ~20 s for Pion, ~30 s end to end)
is the orchestrator's, set per environment by
``build_env(restart_seconds=)``; :attr:`MigrationConfig.min_residency_s`
derives its default from it.  The component-ordering heuristic is the
scheduler's name: ``bass-bfs``, ``bass-longest-path`` or
``bass-hybrid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import ConfigError


@dataclass(frozen=True)
class ProbeConfig:
    """The net-monitor's probing cadence (§4.2, §6.3).

    The paper varies only the interval (Fig 12/13); the probe itself is
    fixed (see :mod:`repro.core.netmonitor`).

    Attributes:
        headroom_interval_s: seconds between headroom probes on each link.
            The paper defaults to 30 s ("conservative", 0.6 % overhead).
    """

    headroom_interval_s: float = 30.0

    def validate(self) -> None:
        if not 0 < self.headroom_interval_s < math.inf:
            raise ConfigError("headroom_interval_s must be positive and finite")


@dataclass(frozen=True)
class MigrationConfig:
    """Parameters of the bandwidth controller's migration policy (§4.3).

    Attributes:
        goodput_threshold: migrate when a dependency's goodput (achieved /
            required bandwidth) falls below this fraction.  §6.3.3 finds
            50–65 % balances premature and late migrations.
        link_utilization_threshold: alternative trigger — migrate when a
            component's traffic uses more than this fraction of the link,
            eroding headroom even without a capacity change.
        headroom_fraction: spare capacity the system keeps on every link,
            as a fraction of link capacity (paper: ~20 %).
        cooldown_s: minimum time between a low-bandwidth detection and the
            migration trigger, to ignore transient dips.
        improvement_margin: a migration target must promise at least
            this fractional gain in the component's achievable bandwidth
            (hysteresis against ping-pong under sustained congestion).
        min_residency_s: minimum time a component stays put after a
            migration before it may move again.  None derives a default
            of one probe interval plus the restart cost the orchestrator
            charges (``build_env(restart_seconds=)``); raise it for
            applications whose migration cost amortizes slowly (§6.3.2:
            a conference must last "at least tens of minutes" to
            amortize the 20 s reconnect).
    """

    goodput_threshold: float = 0.50
    link_utilization_threshold: float = 0.65
    headroom_fraction: float = 0.20
    cooldown_s: float = 30.0
    improvement_margin: float = 0.10
    min_residency_s: Optional[float] = None

    def validate(self) -> None:
        if not 0 <= self.goodput_threshold <= 1:
            raise ConfigError("goodput_threshold must be in [0, 1]")
        if not 0 < self.link_utilization_threshold <= 1:
            raise ConfigError("link_utilization_threshold must be in (0, 1]")
        if not 0 <= self.headroom_fraction < 1:
            raise ConfigError("headroom_fraction must be in [0, 1)")
        if not self.cooldown_s >= 0:
            raise ConfigError("cooldown_s must be >= 0")
        if not self.improvement_margin >= 0:
            raise ConfigError("improvement_margin must be >= 0")
        if self.min_residency_s is not None and not self.min_residency_s >= 0:
            raise ConfigError("min_residency_s must be >= 0 or None")


@dataclass(frozen=True)
class FleetConfig:
    """The regional layout of one mesh's control plane.

    Unlike :class:`BassConfig`, which is per application, a
    :class:`FleetConfig` governs machinery *shared* by every tenant of
    one mesh.  Every tenant probes through its home region's view of
    the one fleet monitor, and a cross-region handoff's admit step runs
    one fixed control round-trip after the release
    (:data:`~repro.core.controlplane.HANDOFF_RTT_S`).

    Attributes:
        region_specs: the region layout as ``(name, (node, ...))``
            pairs.  None, the default that every single-app figure runs
            on, is one region named ``region0`` spanning the mesh.
            Kept as nested tuples so the config stays hashable and
            JSON-encodable for the sweep runner's cache keys.
    """

    region_specs: Optional[tuple[tuple[str, tuple[str, ...]], ...]] = None

    def validate(self) -> "FleetConfig":
        """Refuse an empty layout; return self for chaining."""
        if self.region_specs is not None and not self.region_specs:
            raise ConfigError("region_specs must be non-empty or None")
        return self


@dataclass(frozen=True)
class BassConfig:
    """Top-level configuration: probing and migration knobs.

    The component-ordering heuristic is not a field: the scheduler name
    chooses it (§3.2.1 leaves the choice to the developer).

    Attributes:
        probe: net-monitor probing parameters.
        migration: controller migration parameters.
        migrations_enabled: master switch for dynamic re-orchestration;
            disabled reproduces the "no migration" baselines.
    """

    probe: ProbeConfig = field(default_factory=ProbeConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    migrations_enabled: bool = True

    def validate(self) -> "BassConfig":
        """Check all nested values; return self for chaining."""
        self.probe.validate()
        self.migration.validate()
        return self

    def with_migration(self, **overrides: Any) -> "BassConfig":
        """Return a copy with migration sub-fields replaced."""
        return replace(
            self, migration=replace(self.migration, **overrides)
        ).validate()

    def with_probe(self, **overrides: Any) -> "BassConfig":
        """Return a copy with probe sub-fields replaced."""
        return replace(self, probe=replace(self.probe, **overrides)).validate()
