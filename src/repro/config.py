"""System-wide configuration for BASS.

:class:`BassConfig` gathers every tunable the paper exposes: the link
utilisation (goodput) threshold for migration, the headroom fraction kept
spare on each link, probing intervals and costs, and the controller
cooldown.  Defaults follow the values used throughout §4 and §6 of the
paper (50 % goodput threshold, 20 % headroom, 30 s probe interval, 1 s
probe duration, 20–30 s restart cost).  :class:`FleetConfig` holds
the per-mesh knobs of the one control plane: whether tenants share
probes, and how many regions the mesh is cut into (default one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import ConfigError


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of the net-monitor's probing machinery (§4.2).

    Attributes:
        headroom_interval_s: seconds between headroom probes on each link.
            The paper defaults to 30 s ("conservative", 0.6 % overhead).
        probe_duration_s: how long a single probe floods the link.
        headroom_probe_fraction: fraction of link capacity injected during
            a headroom probe (paper: 10 % of capacity for 1 s).
        full_probe_cooldown_s: minimum spacing between max-capacity probes
            of the same link, so a flapping link is not flooded repeatedly.
        headroom_reuse_s: window within which a link's last headroom-probe
            result is served from cache instead of injecting fresh probe
            traffic.  0 disables reuse (every request probes).  A shared
            fleet monitor raises this so tenants at different cadences do
            not multiply probe traffic on common links.
    """

    headroom_interval_s: float = 30.0
    probe_duration_s: float = 1.0
    headroom_probe_fraction: float = 0.10
    full_probe_cooldown_s: float = 60.0
    headroom_reuse_s: float = 0.0

    def validate(self) -> None:
        if self.headroom_interval_s <= 0:
            raise ConfigError("headroom_interval_s must be positive")
        if self.probe_duration_s <= 0:
            raise ConfigError("probe_duration_s must be positive")
        if not 0 < self.headroom_probe_fraction <= 1:
            raise ConfigError("headroom_probe_fraction must be in (0, 1]")
        if self.full_probe_cooldown_s < 0:
            raise ConfigError("full_probe_cooldown_s must be >= 0")
        if self.headroom_reuse_s < 0:
            raise ConfigError("headroom_reuse_s must be >= 0")


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
        restart_seconds: service unavailability while a component restarts
            on its new node (paper: ~20 s for Pion, ~30 s end to end).
        max_per_iteration: migrations allowed per controller evaluation;
            bounds disruption (Table 1's iterations migrate 1–2 each).
        improvement_margin: a migration target must promise at least
            this fractional gain in the component's achievable bandwidth
            (hysteresis against ping-pong under sustained congestion).
        min_residency_s: minimum time a component stays put after a
            migration before it may move again.  None derives a default
            from the probe interval plus the restart cost; raise it for
            applications whose migration cost amortizes slowly (§6.3.2:
            a conference must last "at least tens of minutes" to amortize
            the 20 s reconnect).
    """

    goodput_threshold: float = 0.50
    link_utilization_threshold: float = 0.65
    headroom_fraction: float = 0.20
    cooldown_s: float = 30.0
    restart_seconds: float = 20.0
    max_per_iteration: int = 2
    improvement_margin: float = 0.10
    min_residency_s: Optional[float] = None

    def validate(self) -> None:
        if not 0 <= self.goodput_threshold <= 1:
            raise ConfigError("goodput_threshold must be in [0, 1]")
        if not 0 < self.link_utilization_threshold <= 1:
            raise ConfigError("link_utilization_threshold must be in (0, 1]")
        if not 0 <= self.headroom_fraction < 1:
            raise ConfigError("headroom_fraction must be in [0, 1)")
        if self.cooldown_s < 0:
            raise ConfigError("cooldown_s must be >= 0")
        if not self.restart_seconds >= 0:  # NaN included
            raise ConfigError("restart_seconds must be >= 0")
        if self.max_per_iteration < 1:
            raise ConfigError("max_per_iteration must be >= 1")
        if self.improvement_margin < 0:
            raise ConfigError("improvement_margin must be >= 0")
        if self.min_residency_s is not None and self.min_residency_s < 0:
            raise ConfigError("min_residency_s must be >= 0 or None")


@dataclass(frozen=True)
class FleetConfig:
    """Multi-tenant control-plane knobs (one instance per mesh).

    Unlike :class:`BassConfig`, which is per application, a
    :class:`FleetConfig` governs machinery *shared* by every tenant of
    one mesh: the fleet-wide net-monitor and the regional layout of the
    one control plane.

    Attributes:
        probe_sharing: tenants share a single :class:`NetMonitor`, so
            each link is probed once per epoch regardless of tenant
            count.  Disabled, every app gets a private monitor (scoped
            to its home region) and duplicates probe traffic.
        regions: shard the control plane into this many regions via the
            deterministic topology partitioner.  The default, one
            region spanning the mesh, is what every single-app figure
            runs on.
        region_specs: explicit region layout as ``(name, (node, ...))``
            pairs; overrides ``regions``.  Kept as nested tuples so the
            config stays hashable and JSON-encodable for the sweep
            runner's cache keys.
        handoff_rtt_s: control-plane round-trip between a region and the
            fleet arbiter.  A cross-region handoff's destination-admit
            step runs this long after the source released, so the
            two-phase protocol is visible in simulation time.
    """

    probe_sharing: bool = True
    regions: int = 1
    region_specs: Optional[tuple[tuple[str, tuple[str, ...]], ...]] = None
    handoff_rtt_s: float = 2.0

    def validate(self) -> "FleetConfig":
        """Range-check the region knobs; return self for chaining."""
        regions = self.regions
        if (
            not isinstance(regions, int)
            or isinstance(regions, bool)
            or regions < 1
        ):
            raise ConfigError(f"regions must be an int >= 1, got {regions!r}")
        if self.region_specs is not None and not self.region_specs:
            raise ConfigError("region_specs must be non-empty or None")
        if self.handoff_rtt_s < 0:
            raise ConfigError("handoff_rtt_s must be >= 0")
        return self


@dataclass(frozen=True)
class BassConfig:
    """Top-level configuration: probing + migration + scheduling knobs.

    Attributes:
        probe: net-monitor probing parameters.
        migration: controller migration parameters.
        heuristic: default component-ordering heuristic, ``"bfs"`` or
            ``"longest_path"`` (§3.2.1 leaves the choice to the developer).
        migrations_enabled: master switch for dynamic re-orchestration;
            disabled reproduces the "no migration" baselines.
    """

    probe: ProbeConfig = field(default_factory=ProbeConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    heuristic: str = "longest_path"
    migrations_enabled: bool = True

    _HEURISTICS = ("bfs", "longest_path", "hybrid")

    def validate(self) -> "BassConfig":
        """Check all nested values; return self for chaining."""
        self.probe.validate()
        self.migration.validate()
        if self.heuristic not in self._HEURISTICS:
            raise ConfigError(
                f"heuristic must be one of {self._HEURISTICS}, "
                f"got {self.heuristic!r}"
            )
        return self

    def with_options(self, **overrides: Any) -> "BassConfig":
        """Return a copy with top-level fields replaced.

        Nested fields can be overridden by passing whole ``ProbeConfig`` /
        ``MigrationConfig`` instances, or with the convenience helpers
        :meth:`with_migration` / :meth:`with_probe`.
        """
        return replace(self, **overrides).validate()

    def with_migration(self, **overrides: Any) -> "BassConfig":
        """Return a copy with migration sub-fields replaced."""
        return replace(
            self, migration=replace(self.migration, **overrides)
        ).validate()

    def with_probe(self, **overrides: Any) -> "BassConfig":
        """Return a copy with probe sub-fields replaced."""
        return replace(self, probe=replace(self.probe, **overrides)).validate()


DEFAULT_CONFIG = BassConfig()
