"""Unit tests for the fluid link queues.

Each case drives one row of the production ``QueueArrays`` in lock-step
with the scalar oracle (``tests.oracles.LockstepQueue``): the dynamics
asserted here hold for the product, bit-identically to the oracle.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.queues import QueueArrays
from tests.oracles import LinkQueue, LockstepQueue


class TestQueueDynamics:
    def test_no_backlog_when_underloaded(self):
        queue = LockstepQueue()
        sample = queue.update(1.0, offered_mbps=5.0, capacity_mbps=10.0)
        assert sample.backlog_mbit == 0.0
        assert sample.delay_s == 0.0
        assert sample.loss_fraction == 0.0

    def test_backlog_grows_at_excess_rate(self):
        queue = LockstepQueue(buffer_mbit=100.0)
        queue.update(1.0, offered_mbps=15.0, capacity_mbps=10.0)
        assert queue.backlog_mbit == pytest.approx(5.0)
        queue.update(1.0, offered_mbps=15.0, capacity_mbps=10.0)
        assert queue.backlog_mbit == pytest.approx(10.0)

    def test_backlog_drains_when_capacity_recovers(self):
        queue = LockstepQueue(buffer_mbit=100.0)
        queue.update(1.0, offered_mbps=30.0, capacity_mbps=10.0)
        assert queue.backlog_mbit == pytest.approx(20.0)
        queue.update(1.0, offered_mbps=0.0, capacity_mbps=15.0)
        assert queue.backlog_mbit == pytest.approx(5.0)
        queue.update(1.0, offered_mbps=0.0, capacity_mbps=15.0)
        assert queue.backlog_mbit == 0.0

    def test_delay_is_backlog_over_capacity(self):
        queue = LockstepQueue(buffer_mbit=100.0)
        queue.update(1.0, offered_mbps=20.0, capacity_mbps=10.0)
        assert queue.delay_s(10.0) == pytest.approx(1.0)
        assert queue.delay_s(5.0) == pytest.approx(2.0)

    def test_overflow_drops_and_caps_backlog(self):
        queue = LockstepQueue(buffer_mbit=10.0)
        sample = queue.update(1.0, offered_mbps=50.0, capacity_mbps=10.0)
        assert sample.backlog_mbit == 10.0
        assert sample.loss_fraction > 0
        assert queue.dropped_mbit_total == pytest.approx(30.0)

    def test_loss_fraction_is_share_of_offered(self):
        queue = LockstepQueue(buffer_mbit=10.0)
        sample = queue.update(1.0, offered_mbps=50.0, capacity_mbps=10.0)
        # 50 offered, 10 drained, 10 buffered -> 30 dropped.
        assert sample.loss_fraction == pytest.approx(30.0 / 50.0)

    def test_loss_zero_when_nothing_offered(self):
        queue = LockstepQueue()
        sample = queue.update(1.0, offered_mbps=0.0, capacity_mbps=1.0)
        assert sample.loss_fraction == 0.0

    def test_dead_link_delay_bounded_by_nominal_drain(self):
        queue = LockstepQueue(buffer_mbit=10.0)
        queue.update(1.0, offered_mbps=10.0, capacity_mbps=0.0)
        assert queue.delay_s(0.0) == pytest.approx(queue.backlog_mbit / 1.0)

    def test_reset(self):
        queue = LinkQueue()
        queue.update(1.0, offered_mbps=50.0, capacity_mbps=1.0)
        queue.reset()
        assert queue.backlog_mbit == 0.0
        assert queue.last_loss_fraction == 0.0

    def test_negative_dt_raises(self):
        with pytest.raises(SimulationError):
            LockstepQueue().update(-1.0, 1.0, 1.0)

    def test_nonpositive_buffer_raises(self):
        with pytest.raises(SimulationError):
            LockstepQueue(buffer_mbit=0.0)


class TestNonFiniteInputs:
    """NaN would otherwise pass the range checks and turn backlog and
    loss into NaN; an infinite buffer is legal and never drops."""

    def test_nan_buffer_raises(self):
        with pytest.raises(SimulationError):
            QueueArrays([10.0, float("nan")])

    @pytest.mark.parametrize("dt_s", [float("nan"), float("inf")])
    def test_non_finite_dt_raises_and_keeps_state(self, dt_s):
        queues = QueueArrays([10.0])
        queues.update_all(1.0, np.array([15.0]), np.array([10.0]))
        with pytest.raises(SimulationError):
            queues.update_all(dt_s, np.array([15.0]), np.array([10.0]))
        assert queues.backlog_mbit.tolist() == [5.0]

    def test_unbounded_buffer_backs_up_without_dropping(self):
        queues = QueueArrays([float("inf")])
        for _ in range(3):
            queues.update_all(1.0, np.array([50.0]), np.array([10.0]))
        assert queues.backlog_mbit.tolist() == [120.0]
        assert queues.dropped_mbit_total.tolist() == [0.0]
        assert queues.last_loss_fraction.tolist() == [0.0]


# -- the quiet skip -------------------------------------------------------------

INF, NAN = float("inf"), float("nan")
STATE = ("backlog_mbit", "last_loss_fraction", "dropped_mbit_total")


@st.composite
def histories(draw):
    """``(buffers, steps, restore_at)``: rows with finite or unbounded
    buffers, and steps of ``(dt_s, offered, capacity)`` where each
    row's offered load is its capacity exactly, under it, negative,
    one ulp or 1 Mbps over it, or flooding the buffer.  The queues are pickled and
    restored before step ``restore_at``."""
    n = draw(st.integers(1, 4))
    buffers = draw(st.lists(st.sampled_from([5.0, 25.0, INF]), min_size=n, max_size=n))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        dt_s = draw(st.sampled_from([1.0, 0.5, 2.0, 0.0]))
        capacity = draw(
            st.lists(
                st.sampled_from([0.0, NAN, 3.0, 10.0, 1e3, INF, 1e308]),
                min_size=n,
                max_size=n,
            )
        )
        offered = []
        for cap in capacity:
            relation = draw(
                st.sampled_from(["equal", "under", "negative", "ulp over", "over", "flood"])
            )
            if relation == "negative":
                offered.append(-draw(st.sampled_from([0.0, 1.0, 1e3])))
            else:
                offered.append(
                    {
                        "equal": cap,
                        "under": cap / 2,
                        "ulp over": math.nextafter(cap, INF),
                        "over": cap + 1.0,
                        "flood": cap + 100.0,
                    }[relation]
                )
        steps.append((dt_s, offered, capacity))
    return buffers, steps, draw(st.integers(0, len(steps)))


def assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # a -0.0 shows


class TestQuietSkip:
    """A step over quiet queues that offers no row more than its
    capacity is skipped; the state is bit-equal to a full update's."""

    @given(history=histories())
    @example(
        # Exact fit, then a loss tick on the finite buffer, then quiet
        # ticks (one straight after the restore) on a dead link with
        # negative offered load and an unbounded buffer.
        history=(
            [5.0, INF],
            [
                (1.0, [10.0, -0.0], [10.0, 0.0]),
                (1.0, [50.0, -1.0], [10.0, 0.0]),
                (1.0, [0.0, 3.0], [100.0, 3.0]),
                (1.0, [3.0, 3.0], [3.0, 3.0]),
                (1.0, [-1.0, 0.0], [0.0, 1e3]),
            ],
            3,
        )
    )
    @example(history=([25.0], [(1.0, [1.0], [1.0]), (1.0, [1.0], [NAN]), (1.0, [0.0], [1.0])], 2))
    @example(history=([INF], [(0.0, [1.0], [INF]), (2.0, [1e308], [1e308])], 1))
    @settings(max_examples=300, deadline=None)
    def test_skip_is_bit_equal_to_a_full_update(self, history):
        buffers, steps, restore_at = history
        skipping, full = QueueArrays(buffers), QueueArrays(buffers)
        for i, (dt_s, offered, capacity) in enumerate(steps):
            if i == restore_at:
                assert "_quiet" not in skipping.__getstate__()
                skipping = pickle.loads(pickle.dumps(skipping))
            full._quiet = False  # forces the full update
            offered, capacity = np.array(offered), np.array(capacity)
            with np.errstate(all="ignore"):  # inf - inf and the like
                skipping.update_all(dt_s, offered, capacity)
                full.update_all(dt_s, offered, capacity)
            for name in STATE:
                assert_bit_equal(getattr(skipping, name), getattr(full, name))
            assert skipping.quiet == full.quiet

    def test_a_quiet_fitting_step_is_skipped(self):
        queues = QueueArrays([5.0, 5.0])
        queues._scratch_offered.fill(NAN)
        queues.update_all(1.0, np.array([3.0, 4.0]), np.array([3.0, 10.0]))
        assert np.isnan(queues._scratch_offered).all()  # never written
        assert queues.quiet

    def test_quiet_follows_the_backlog(self):
        queues = QueueArrays([5.0])
        assert queues.quiet
        queues.update_all(1.0, np.array([8.0]), np.array([3.0]))
        assert not queues.quiet
        assert not pickle.loads(pickle.dumps(queues)).quiet
        queues.update_all(1.0, np.array([0.0]), np.array([10.0]))
        assert queues.quiet
        assert pickle.loads(pickle.dumps(queues)).quiet
