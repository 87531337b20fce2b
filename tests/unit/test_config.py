"""Unit tests for configuration validation."""

import dataclasses

import pytest

from repro.config import (
    DEFAULT_CONFIG,
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
            {"restart_seconds": -1},
            {"max_per_iteration": 0},
            {"improvement_margin": -0.1},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            MigrationConfig(**kwargs).validate()


class TestFleetConfig:
    def test_defaults_are_one_shared_region(self):
        config = FleetConfig().validate()
        assert (config.regions, config.probe_sharing) == (1, True)

    def test_field_set_is_exactly_the_four_with_callers(self):
        assert {f.name for f in dataclasses.fields(FleetConfig)} == {
            "probe_sharing",
            "regions",
            "region_specs",
            "handoff_rtt_s",
        }

    @pytest.mark.parametrize("regions", [None, 0, -1, True, False, 2.0, "2"])
    def test_regions_must_be_a_positive_int(self, regions):
        with pytest.raises(ConfigError, match="regions"):
            FleetConfig(regions=regions).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [{"region_specs": ()}, {"handoff_rtt_s": -1.0}],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            FleetConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "removed",
        ["arbiter_enabled", "ledger_checks", "startup_probe_respects_cooldown"],
    )
    def test_removed_switches_are_unknown_keywords(self, removed):
        with pytest.raises(TypeError, match=removed):
            FleetConfig(**{removed: True})


class TestBassConfig:
    def test_default_is_valid(self):
        assert DEFAULT_CONFIG.validate() is DEFAULT_CONFIG

    def test_unknown_heuristic_raises(self):
        with pytest.raises(ConfigError):
            BassConfig(heuristic="alphabetical").validate()

    def test_with_options(self):
        config = BassConfig().with_options(heuristic="bfs")
        assert config.heuristic == "bfs"
        # Originals are untouched (frozen dataclass).
        assert BassConfig().heuristic == "longest_path"

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
