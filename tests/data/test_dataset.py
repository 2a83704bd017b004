"""Unit tests for PointDataset."""

import numpy as np
import pytest

from repro.data.dataset import PointDataset
from repro.errors import SchemaError


def make(n=10):
    return PointDataset(
        np.arange(n, dtype=float),
        np.arange(n, dtype=float) * 2,
        {"a": np.arange(n, dtype=np.float32)},
    )


class TestConstruction:
    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            PointDataset(np.zeros(3), np.zeros(4))

    def test_attribute_length_mismatch(self):
        with pytest.raises(SchemaError):
            PointDataset(np.zeros(3), np.zeros(3), {"a": np.zeros(4)})

    def test_non_numeric_attribute(self):
        with pytest.raises(SchemaError):
            PointDataset(
                np.zeros(2), np.zeros(2), {"s": np.asarray(["x", "y"])}
            )

    def test_locations_coerced_float64(self):
        ds = PointDataset(np.asarray([1, 2], dtype=np.int32), np.zeros(2))
        assert ds.xs.dtype == np.float64

    def test_2d_rejected(self):
        with pytest.raises(SchemaError):
            PointDataset(np.zeros((2, 2)), np.zeros(4))


class TestColumns:
    def test_xy_access(self):
        ds = make()
        assert ds.column("x") is ds.xs
        assert ds.column("y") is ds.ys

    def test_attribute_access(self):
        assert make().column("a")[3] == 3.0

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            make().column("missing")


class TestSlicing:
    def test_take_mask_indices(self):
        ds = make()
        sub = ds.take(np.asarray([0, 5, 9]))
        assert sub.xs.tolist() == [0.0, 5.0, 9.0]
        assert sub.column("a").tolist() == [0.0, 5.0, 9.0]

    def test_head(self):
        assert len(make().head(3)) == 3
        assert len(make(5).head(100)) == 5

    def test_batches_cover_once(self):
        ds = make(10)
        batches = list(ds.batches(3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert np.concatenate([b.xs for b in batches]).tolist() == ds.xs.tolist()

    def test_batches_invalid(self):
        with pytest.raises(SchemaError):
            list(make().batches(0))

    def test_bbox(self):
        box = make(10).bbox
        assert box.xmin == 0.0 and box.xmax == 9.0
