"""Unit tests for the pluggable scheduler registry."""

import pytest

from repro.core.registry import (
    get_scheduler,
    register_scheduler,
    scheduler_names,
    unregister_scheduler,
)
from repro.errors import ConfigError


class TestBuiltins:
    def test_legacy_names_all_resolve(self):
        for name in (
            "k3s",
            "bass-bfs",
            "bass-longest-path",
            "bass-hybrid",
        ):
            assert callable(get_scheduler(name))

    def test_scheduler_names_sorted_and_complete(self):
        names = scheduler_names()
        assert names == tuple(sorted(names))
        assert {"k3s", "bass-bfs", "bass-longest-path", "bass-hybrid"} <= set(
            names
        )

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ConfigError, match="bass-bfs"):
            get_scheduler("does-not-exist")


class TestCustomRegistration:
    def test_register_resolve_unregister(self):
        @register_scheduler("test-custom")
        def custom(dag, cluster, netem=None):
            return {}

        try:
            assert get_scheduler("test-custom") is custom
            assert "test-custom" in scheduler_names()
        finally:
            unregister_scheduler("test-custom")
        with pytest.raises(ConfigError):
            get_scheduler("test-custom")

    def test_aliases_resolve_to_same_function(self):
        @register_scheduler("test-aliased", "test-alias-a")
        def custom(dag, cluster, netem=None):
            return {}

        try:
            assert get_scheduler("test-alias-a") is custom
        finally:
            unregister_scheduler("test-aliased")
            unregister_scheduler("test-alias-a")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):

            @register_scheduler("k3s")
            def clash(dag, cluster, netem=None):
                return {}

    def test_unregister_unknown_is_noop(self):
        unregister_scheduler("never-registered")
