"""Unit tests for out-of-core batch planning."""

import numpy as np
import pytest

from repro.data.dataset import PointDataset
from repro.device.batching import plan_batches
from repro.device.memory import GPUDevice
from repro.errors import DeviceError


def make_points(n: int) -> PointDataset:
    return PointDataset(
        np.zeros(n), np.zeros(n), {"a": np.zeros(n, dtype=np.float32)}
    )


class TestPlanBatches:
    def test_no_device_single_batch(self):
        plan = plan_batches(make_points(1000), ("x", "y"), None)
        assert plan.ranges() == [(0, 1000)]

    def test_row_bytes_counts_only_requested_columns(self):
        plan = plan_batches(make_points(10), ("x", "y", "a"), None)
        assert plan.row_bytes == 8 + 8 + 4
        plan2 = plan_batches(make_points(10), ("x", "y"), None)
        assert plan2.row_bytes == 16

    def test_capacity_splits(self):
        dev = GPUDevice(capacity_bytes=16 * 100)  # 100 rows of (x, y)
        plan = plan_batches(make_points(250), ("x", "y"), dev)
        assert plan.rows_per_batch == 100
        assert plan.ranges() == [(0, 100), (100, 200), (200, 250)]

    def test_reserved_bytes_shrink_batches(self):
        dev = GPUDevice(capacity_bytes=16 * 100)
        plan = plan_batches(make_points(250), ("x", "y"), dev,
                            reserved_bytes=16 * 50)
        assert plan.rows_per_batch == 50

    def test_reserved_exceeding_capacity_raises(self):
        dev = GPUDevice(capacity_bytes=1000)
        with pytest.raises(DeviceError):
            plan_batches(make_points(10), ("x", "y"), dev, reserved_bytes=1000)

    def test_ranges_cover_every_row_once(self):
        dev = GPUDevice(capacity_bytes=16 * 7)
        plan = plan_batches(make_points(23), ("x", "y"), dev)
        seen = np.zeros(23, dtype=int)
        for start, end in plan.ranges():
            seen[start:end] += 1
        assert np.all(seen == 1)

    def test_empty_dataset(self):
        plan = plan_batches(make_points(0), ("x", "y"), None)
        assert plan.ranges() == []

    def test_more_constraint_columns_mean_more_batches(self):
        """The Figure 11 driver: larger vertex payload -> smaller batches."""
        dev = GPUDevice(capacity_bytes=2_000)
        thin = plan_batches(make_points(500), ("x", "y"), dev)
        wide = plan_batches(make_points(500), ("x", "y", "a"), dev)
        assert len(wide.ranges()) >= len(thin.ranges())
