"""Tests for the resource pool."""

import pytest

from repro.cluster.resources import GPUPool


class TestGPUPool:
    def test_allocate_release_cycle(self):
        pool = GPUPool(4)
        pool.allocate(3, 0.0)
        assert pool.available == 1
        pool.release(3, 1.0)
        assert pool.available == 4

    def test_over_allocation_raises(self):
        pool = GPUPool(2)
        pool.allocate(2, 0.0)
        with pytest.raises(RuntimeError, match="over-allocation"):
            pool.allocate(1, 0.0)

    def test_release_more_than_held_raises(self):
        pool = GPUPool(2)
        pool.allocate(1, 0.0)
        with pytest.raises(RuntimeError):
            pool.release(2, 1.0)

    def test_utilization_integral(self):
        pool = GPUPool(2)
        pool.allocate(2, 0.0)
        pool.release(2, 5.0)
        # 2 GPUs busy for 5 h of a 10 h horizon on a 2-GPU pool = 50%.
        assert pool.utilization(10.0) == pytest.approx(0.5)

    def test_utilization_includes_open_interval(self):
        pool = GPUPool(1)
        pool.allocate(1, 0.0)
        assert pool.utilization(4.0) == pytest.approx(1.0)

    def test_time_going_backwards_raises(self):
        pool = GPUPool(1)
        pool.allocate(1, 5.0)
        with pytest.raises(ValueError):
            pool.release(1, 3.0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            GPUPool(0)
