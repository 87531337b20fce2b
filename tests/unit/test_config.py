"""Unit tests for configuration validation."""

import dataclasses
import inspect

import pytest

from repro.cluster.k3s import K3sScheduler
from repro.config import (
    BassConfig,
    FleetConfig,
    MigrationConfig,
    ProbeConfig,
)
from repro.errors import ConfigError
from repro.sim.engine import Engine


class TestProbeConfig:
    def test_defaults_valid(self):
        ProbeConfig().validate()

    def test_field_set_is_exactly_the_interval(self):
        # The probe's size, length and full-probe cooldown are §4.2
        # constants of repro.core.netmonitor.
        assert {f.name for f in dataclasses.fields(ProbeConfig)} == {
            "headroom_interval_s"
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"headroom_interval_s": 0},
            {"headroom_interval_s": float("nan")},
            {"headroom_interval_s": float("inf")},
            {"headroom_interval_s": -1},
            {"headroom_interval_s": float("-inf")},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ProbeConfig(**kwargs).validate()


class TestMigrationConfig:
    def test_defaults_match_paper(self):
        config = MigrationConfig()
        assert config.goodput_threshold == 0.50
        assert config.link_utilization_threshold == 0.65
        assert config.headroom_fraction == 0.20
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"goodput_threshold": -0.1},
            {"goodput_threshold": 1.1},
            {"link_utilization_threshold": 0.0},
            {"headroom_fraction": 1.0},
            {"cooldown_s": -1},
            {"min_residency_s": -1.0},
            {"improvement_margin": -0.1},
            {"cooldown_s": float("nan")},
            {"improvement_margin": float("nan")},
            {"min_residency_s": float("nan")},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            MigrationConfig(**kwargs).validate()


class TestFleetConfig:
    def test_defaults_are_one_shared_region(self):
        assert FleetConfig().validate().region_specs is None

    def test_field_set_is_exactly_region_specs(self):
        assert {f.name for f in dataclasses.fields(FleetConfig)} == {
            "region_specs"
        }

    @pytest.mark.parametrize("kwargs", [{"region_specs": ()}])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            FleetConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "removed",
        [
            "arbiter_enabled",
            "ledger_checks",
            "startup_probe_respects_cooldown",
            "probe_sharing",
            "regions",
            "handoff_rtt_s",
        ],
    )
    def test_removed_switches_are_unknown_keywords(self, removed):
        with pytest.raises(TypeError, match=removed):
            FleetConfig(**{removed: True})


class TestBassConfig:
    def test_default_is_valid(self):
        config = BassConfig()
        assert config.validate() is config

    @pytest.mark.parametrize(
        "cls, removed",
        [
            (MigrationConfig, "restart_seconds"),
            (BassConfig, "heuristic"),
            (ProbeConfig, "headroom_reuse_s"),
            (ProbeConfig, "probe_duration_s"),
            (ProbeConfig, "headroom_probe_fraction"),
            (ProbeConfig, "full_probe_cooldown_s"),
            (MigrationConfig, "max_per_iteration"),
            (K3sScheduler, "scoring"),
            (Engine, "start_time"),
        ],
    )
    def test_removed_settings_are_unknown_keywords(self, cls, removed):
        # The restart cost is the orchestrator's, the heuristic is the
        # scheduler name, every headroom request probes, the probe and
        # the per-evaluation migration budget are paper constants, k3s
        # scores LeastAllocated only, and every clock starts at zero.
        assert removed not in inspect.signature(cls).parameters
        with pytest.raises(TypeError):
            cls(**{removed: 1.0})

    def test_with_migration(self):
        config = BassConfig().with_migration(goodput_threshold=0.25)
        assert config.migration.goodput_threshold == 0.25
        assert config.migration.headroom_fraction == 0.20

    def test_with_probe(self):
        config = BassConfig().with_probe(headroom_interval_s=60.0)
        assert config.probe.headroom_interval_s == 60.0

    def test_with_migration_validates(self):
        with pytest.raises(ConfigError):
            BassConfig().with_migration(goodput_threshold=5.0)

    def test_migrations_toggle(self):
        assert BassConfig().migrations_enabled
        assert not BassConfig(migrations_enabled=False).migrations_enabled
