"""Unit tests for resource accounting."""

import pytest

from repro.cluster.resources import NodeResources, ResourceSpec
from repro.errors import SchedulingError


class TestResourceSpec:
    def test_addition(self):
        total = ResourceSpec(1, 512) + ResourceSpec(2, 256)
        assert total == ResourceSpec(3, 768)

    def test_subtraction_floors_at_zero(self):
        result = ResourceSpec(1, 100) - ResourceSpec(5, 500)
        assert result == ResourceSpec(0, 0)

    def test_fits_within(self):
        assert ResourceSpec(1, 100).fits_within(ResourceSpec(2, 200))
        assert not ResourceSpec(3, 100).fits_within(ResourceSpec(2, 200))
        assert not ResourceSpec(1, 300).fits_within(ResourceSpec(2, 200))

    def test_fits_within_exact(self):
        assert ResourceSpec(2, 200).fits_within(ResourceSpec(2, 200))

    def test_negative_raises(self):
        with pytest.raises(SchedulingError):
            ResourceSpec(-1, 0)


class TestNodeResources:
    def test_allocate_and_release(self):
        node = NodeResources("n", ResourceSpec(4, 1024))
        node.allocate(ResourceSpec(1, 256))
        assert node.free == ResourceSpec(3, 768)
        node.release(ResourceSpec(1, 256))
        assert node.free == ResourceSpec(4, 1024)

    def test_oversubscription_raises(self):
        node = NodeResources("n", ResourceSpec(4, 1024))
        node.allocate(ResourceSpec(3, 0))
        with pytest.raises(SchedulingError):
            node.allocate(ResourceSpec(2, 0))

    def test_can_fit(self):
        node = NodeResources("n", ResourceSpec(4, 1024))
        assert node.can_fit(ResourceSpec(4, 1024))
        assert not node.can_fit(ResourceSpec(4.1, 0))

    def test_exact_fill_with_float_accumulation(self):
        node = NodeResources("n", ResourceSpec(1.2, 100))
        for _ in range(4):
            node.allocate(ResourceSpec(0.3, 25))
        assert not node.can_fit(ResourceSpec(0.01, 0))

    def test_fraction_free(self):
        node = NodeResources("n", ResourceSpec(4, 1000))
        node.allocate(ResourceSpec(1, 250))
        assert node.cpu_fraction_free() == pytest.approx(0.75)
        assert node.memory_fraction_free() == pytest.approx(0.75)
