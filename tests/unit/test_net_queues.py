"""Unit tests for the fluid link queues.

Each case drives one row of the production ``QueueArrays`` in lock-step
with the scalar oracle (``tests.oracles.LockstepQueue``): the dynamics
asserted here hold for the product, bit-identically to the oracle.
"""

import pytest

from repro.errors import SimulationError
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
