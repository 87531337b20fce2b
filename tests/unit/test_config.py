"""Unit tests for configuration validation."""

import dataclasses

import pytest

from repro.config import (
    BassConfig,
    FleetConfig,
    MigrationConfig,
    ProbeConfig,
)
from repro.errors import ConfigError


class TestProbeConfig:
    def test_defaults_valid(self):
        ProbeConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"headroom_interval_s": 0},
            {"probe_duration_s": -1},
            {"headroom_probe_fraction": 0},
            {"headroom_probe_fraction": 1.5},
            {"full_probe_cooldown_s": -1},
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
            {"max_per_iteration": 0},
            {"improvement_margin": -0.1},
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
        "config_class, removed",
        [
            (MigrationConfig, "restart_seconds"),
            (BassConfig, "heuristic"),
            (ProbeConfig, "headroom_reuse_s"),
        ],
    )
    def test_removed_settings_are_unknown_keywords(self, config_class, removed):
        # The restart cost is the orchestrator's, the heuristic is the
        # scheduler name, and every headroom request probes.
        with pytest.raises(TypeError, match=removed):
            config_class(**{removed: 1.0})

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
