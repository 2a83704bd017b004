"""Unit tests for aggregate functions."""

import numpy as np
import pytest

from repro.core.aggregates import Average, Count, Max, Min, Sum
from repro.errors import QueryError


class TestCount:
    def test_channels(self):
        agg = Count()
        assert agg.channels == {"count": None}
        assert agg.columns == ()

    def test_finalize_passthrough(self):
        out = Count().finalize({"count": np.asarray([1, 2, 3])})
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_blend_into(self):
        acc = np.zeros(3)
        Count().blend_into(acc, np.asarray([0, 0, 2]), 1.0)
        assert acc.tolist() == [2.0, 0.0, 1.0]

    def test_reduce_segments(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        out = Count().reduce_segments(values, np.asarray([0, 3]))
        assert out.tolist() == [6.0, 4.0]
        # No segments (no polygon kept a value): nothing to blend.
        empty = np.zeros(0, dtype=np.int64)
        assert Count().reduce_segments(np.zeros(0), empty).shape == (0,)

    def test_float32_values_accumulate_in_float64(self):
        """A bounded framebuffer is float32; its sums must not be."""
        values = np.full(1 << 12, 16777217.0, dtype=np.float32)  # 2**24
        values[1::2] = 1.0
        out = Sum("a").reduce_segments(values, np.asarray([0]))
        assert out.dtype == np.float64
        assert out[0] == float(np.sum(values, dtype=np.float64))
        assert out[0] != float(np.add.reduceat(values, [0])[0])


class TestSum:
    def test_requires_column(self):
        with pytest.raises(QueryError):
            Sum("")

    def test_columns(self):
        assert Sum("fare").columns == ("fare",)

    def test_combine_adds(self):
        agg = Sum("fare")
        out = agg.combine(np.asarray([1.0, 2.0]), np.asarray([3.0, 4.0]))
        assert out.tolist() == [4.0, 6.0]


class TestAverage:
    def test_two_channels(self):
        agg = Average("fare")
        assert set(agg.channels) == {"sum", "count"}

    def test_finalize_divides(self):
        out = Average("fare").finalize(
            {"sum": np.asarray([10.0, 0.0]), "count": np.asarray([4.0, 0.0])}
        )
        assert out[0] == 2.5
        assert np.isnan(out[1])  # empty region -> NaN, not a crash


class TestMinMax:
    def test_identity(self):
        assert Min("a").identity() == np.inf
        assert Max("a").identity() == -np.inf

    def test_blend_into_order_statistics(self):
        acc = np.full(2, np.inf)
        Min("a").blend_into(acc, np.asarray([0, 0, 1]), np.asarray([5.0, 3.0, 7.0]))
        assert acc.tolist() == [3.0, 7.0]

    def test_reduce_segments(self):
        values = np.asarray([4.0, 2.0, 7.0, 9.0])
        starts = np.asarray([0, 2])
        assert Min("a").reduce_segments(values, starts).tolist() == [2.0, 7.0]
        assert Max("a").reduce_segments(values, starts).tolist() == [4.0, 9.0]

    def test_nan_poisons_its_segment_only(self):
        values = np.asarray([4.0, np.nan, 7.0, 9.0])
        starts = np.asarray([0, 2])
        for agg, clean in ((Min("a"), 7.0), (Max("a"), 9.0)):
            out = agg.reduce_segments(values, starts)
            assert np.isnan(out[0]) and out[1] == clean
            merged = agg.combine(np.full(2, agg.identity()), out)
            assert np.isnan(merged[0]) and merged[1] == clean

    def test_empty_segment_is_the_callers_problem(self):
        """The pitfall the kernels are built around: ``reduceat`` hands
        back the *element* at the start of an empty segment, never the
        identity — so callers keep only polygons that own a value."""
        out = Min("a").reduce_segments(
            np.asarray([4.0, 2.0]), np.asarray([0, 1, 1])
        )
        assert out.tolist() == [4.0, 2.0, 2.0]

    def test_combine(self):
        out = Min("a").combine(np.asarray([1.0, 5.0]), np.asarray([2.0, 4.0]))
        assert out.tolist() == [1.0, 4.0]

    def test_finalize_maps_empty_to_nan(self):
        out = Min("a").finalize({"min": np.asarray([np.inf, 2.0])})
        assert np.isnan(out[0]) and out[1] == 2.0
