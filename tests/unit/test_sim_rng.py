"""Unit tests for seeded RNG streams."""

import pickle

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(seed=7).get("arrivals").random(5)
        b = RngStreams(seed=7).get("arrivals").random(5)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        streams = RngStreams(seed=7)
        a = streams.get("arrivals").random(5)
        b = streams.get("traces").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).get("x").random(5)
        b = RngStreams(seed=2).get("x").random(5)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        streams = RngStreams(seed=0)
        assert streams.get("a") is streams.get("a")

    def test_spawn_derives_independent_family(self):
        parent = RngStreams(seed=3)
        child = parent.spawn("trial-1")
        assert child.seed != parent.seed
        a = child.get("x").random(3)
        b = parent.get("x").random(3)
        assert not (a == b).all()

    def test_spawn_is_deterministic(self):
        a = RngStreams(seed=3).spawn("trial-1").get("x").random(3)
        b = RngStreams(seed=3).spawn("trial-1").get("x").random(3)
        assert (a == b).all()

    def test_seed_property(self):
        assert RngStreams(seed=42).seed == 42


class TestStateRoundTrip:
    """Checkpoint/restore of stream positions: snapshots pickle the
    family, and a byte-identical resume needs these invariants."""

    def test_draws_after_restore_match(self):
        original = RngStreams(seed=11)
        original.get("arrivals").random(7)
        original.get("traces").random(3)

        restored = pickle.loads(pickle.dumps(original))
        for name in ("arrivals", "traces"):
            a = original.get(name).random(5)
            b = restored.get(name).random(5)
            assert (a == b).all()

    def test_streams_created_after_restore_match(self):
        """A name first requested after the restore must be derived
        fresh from the seed, identical to the uninterrupted family."""
        original = RngStreams(seed=11)
        original.get("arrivals").random(7)

        restored = pickle.loads(pickle.dumps(original))
        a = original.get("late-stream").random(5)
        b = restored.get("late-stream").random(5)
        assert (a == b).all()
