"""Unit tests for the Zhang-style materializing comparator."""

import numpy as np
import pytest

from repro import MaterializingJoin, PointDataset, PolygonSet, Sum
from repro.geometry.polygon import rectangle
from tests.conftest import brute_force_counts, brute_force_sums


class TestCorrectness:
    def test_exact_without_truncation(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = MaterializingJoin(truncate_bits=None).execute(
            uniform_points, three_regions
        )
        assert np.array_equal(result.values, exact)

    def test_sum_without_truncation(self, uniform_points, three_regions):
        exact = brute_force_sums(uniform_points, three_regions, "fare")
        result = MaterializingJoin(truncate_bits=None).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert np.allclose(result.values, exact, rtol=1e-9)

    def test_truncation_is_approximate_but_close(
        self, uniform_points, three_regions
    ):
        """16-bit coordinate snapping (the comparator's compression)
        introduces small errors, as the paper notes of Zhang et al."""
        exact = brute_force_counts(uniform_points, three_regions)
        result = MaterializingJoin(truncate_bits=16).execute(
            uniform_points, three_regions
        )
        rel = np.abs(result.values - exact) / exact
        assert rel.max() < 0.01

    def test_coarser_truncation_worse(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        fine = MaterializingJoin(truncate_bits=16).execute(
            uniform_points, three_regions
        )
        coarse = MaterializingJoin(truncate_bits=8).execute(
            uniform_points, three_regions
        )
        fine_err = np.abs(fine.values - exact).sum()
        coarse_err = np.abs(coarse.values - exact).sum()
        assert coarse_err >= fine_err


class TestPointsOutsideEveryPolygon:
    """Two points at (0,0)/(100,100) against the [40,60]² square: both
    lie outside the only polygon's MBR, so the answer is Count 0."""

    @pytest.fixture
    def far_points(self):
        return PointDataset(np.array([0.0, 100.0]), np.array([0.0, 100.0]))

    @pytest.fixture
    def square(self):
        return PolygonSet([rectangle(40.0, 40.0, 60.0, 60.0)])

    def test_no_surviving_candidate_skips_refinement(self, far_points, square):
        """Regression: the per-point MBR tightening left zero candidate
        pairs and refinement indexed the empty pair list (IndexError)."""
        result = MaterializingJoin(truncate_bits=None).execute(
            far_points, square
        )
        assert np.array_equal(result.values, [0.0])
        assert result.stats.pip_tests == 0

    def test_truncation_quantizes_without_relocating(self, far_points, square):
        """Regression: 16-bit truncation clipped out-of-extent points
        onto the polygon-set bbox border and counted one of them in."""
        result = MaterializingJoin().execute(far_points, square)
        assert np.array_equal(result.values, [0.0])

    def test_point_just_outside_the_extent_stays_outside(self, square):
        """Closer to the border than half a lattice step: rounding to
        the nearest lattice line would land it exactly on the edge."""
        step = 20.0 / ((1 << 16) - 1)
        points = PointDataset(
            np.array([40.0 - step / 4, 60.0 + step / 4]),
            np.array([50.0, 50.0]),
        )
        result = MaterializingJoin().execute(points, square)
        assert np.array_equal(result.values, [0.0])


class TestMaterializationCost:
    def test_pairs_materialized(self, uniform_points, three_regions):
        """The defining inefficiency: candidate pairs are written out."""
        result = MaterializingJoin(truncate_bits=None).execute(
            uniform_points, three_regions
        )
        pairs = result.stats.extra["materialized_pairs"]
        join_size = result.stats.extra["join_size"]
        assert pairs >= join_size > 0

    def test_join_size_equals_matches(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = MaterializingJoin(truncate_bits=None).execute(
            uniform_points, three_regions
        )
        assert result.stats.extra["join_size"] == exact.sum()

    def test_quadtree_built_per_batch(self, uniform_points, three_regions):
        result = MaterializingJoin(truncate_bits=None).execute(
            uniform_points, three_regions
        )
        assert result.stats.index_build_s > 0
