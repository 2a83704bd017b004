"""Unit tests for out-of-core batch sizing."""

import numpy as np
import pytest

from repro.core.engine import point_batches
from repro.data.dataset import PointDataset
from repro.device.batching import rows_per_batch
from repro.device.memory import GPUDevice
from repro.errors import DeviceError
from repro.types import ExecutionStats


def make_points(n: int) -> PointDataset:
    return PointDataset(
        np.arange(n, dtype=np.float64), np.zeros(n),
        {"a": np.zeros(n, dtype=np.float32)},
    )


def batch_lengths(points, device, columns=("x", "y")) -> list[int]:
    return [
        batch.length for batch in point_batches(
            points, columns, device, ExecutionStats()
        )
    ]


class TestRowsPerBatch:
    def test_no_device_single_batch(self):
        assert rows_per_batch(make_points(1000), ("x", "y"), None) == 1000
        assert batch_lengths(make_points(1000), None) == [1000]

    def test_row_bytes_counts_only_requested_columns(self):
        dev = GPUDevice(capacity_bytes=20 * 100)
        assert rows_per_batch(make_points(10), ("x", "y", "a"), dev) == 100
        assert rows_per_batch(make_points(10), ("x", "y"), dev) == 125

    def test_capacity_splits(self):
        dev = GPUDevice(capacity_bytes=16 * 100)  # 100 rows of (x, y)
        assert rows_per_batch(make_points(250), ("x", "y"), dev) == 100
        assert batch_lengths(make_points(250), dev) == [100, 100, 50]

    def test_reserved_bytes_shrink_batches(self):
        dev = GPUDevice(capacity_bytes=16 * 100)
        assert rows_per_batch(make_points(250), ("x", "y"), dev,
                              reserved_bytes=16 * 50) == 50

    def test_reserved_exceeding_capacity_raises(self):
        dev = GPUDevice(capacity_bytes=1000)
        with pytest.raises(DeviceError):
            rows_per_batch(make_points(10), ("x", "y"), dev,
                           reserved_bytes=1000)

    def test_ranges_cover_every_row_once(self):
        dev = GPUDevice(capacity_bytes=16 * 7)
        seen = np.concatenate([
            batch.column("x") for batch in point_batches(
                make_points(23), ("x", "y"), dev, ExecutionStats()
            )
        ])
        np.testing.assert_array_equal(seen, np.arange(23))

    def test_empty_dataset(self):
        assert batch_lengths(make_points(0), None) == []

    def test_more_constraint_columns_mean_more_batches(self):
        """The Figure 11 driver: larger vertex payload -> smaller batches."""
        dev = GPUDevice(capacity_bytes=2_000)
        thin = batch_lengths(make_points(500), dev)
        wide = batch_lengths(make_points(500), dev, ("x", "y", "a"))
        assert len(wide) >= len(thin)
