"""Unit tests for result-range estimation (§5)."""

import threading

import numpy as np
import pytest

from repro import (
    Average, BoundedRasterJoin, Count, Max, Min, PointDataset, PolygonSet, Sum,
)
from repro.errors import QueryError
from tests.conftest import brute_force_counts, random_star_polygon


class TestLooseBounds:
    def test_contain_exact_always(self, uniform_points, three_regions):
        """The 100%-confidence guarantee of the loose interval."""
        exact = brute_force_counts(uniform_points, three_regions)
        for res in (64, 128, 512):
            result = BoundedRasterJoin(
                resolution=res, compute_bounds=True
            ).execute(uniform_points, three_regions)
            assert result.intervals is not None
            assert result.intervals.contains(exact).all(), (
                f"loose interval violated at resolution {res}"
            )

    def test_interval_shrinks_with_resolution(
        self, uniform_points, three_regions
    ):
        widths = []
        for res in (64, 256, 1024):
            result = BoundedRasterJoin(
                resolution=res, compute_bounds=True
            ).execute(uniform_points, three_regions)
            iv = result.intervals
            widths.append(float(np.sum(iv.loose_hi - iv.loose_lo)))
        assert widths[0] > widths[1] > widths[2]

    def test_random_polygons(self, rng):
        points = PointDataset(rng.uniform(0, 100, 30_000),
                              rng.uniform(0, 100, 30_000))
        polys = PolygonSet(
            [random_star_polygon(rng, center=(30 + 20 * k, 50),
                                 radius_range=(5, 18), vertices=9)
             for k in range(3)]
        )
        exact = brute_force_counts(points, polys)
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            points, polys
        )
        assert result.intervals.contains(exact).all()


class TestExpectedBounds:
    def test_tighter_than_loose(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions
        )
        iv = result.intervals
        assert np.all(iv.expected_lo >= iv.loose_lo - 1e-9)
        assert np.all(iv.expected_hi <= iv.loose_hi + 1e-9)

    def test_expected_value_closer_on_uniform_data(
        self, uniform_points, three_regions
    ):
        """On uniform data the area-fraction correction is near-unbiased:
        the expected value beats the raw approximate value in aggregate."""
        exact = brute_force_counts(uniform_points, three_regions)
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions
        )
        raw_err = np.abs(result.values - exact).sum()
        corrected_err = np.abs(result.intervals.expected_value - exact).sum()
        assert corrected_err <= raw_err * 1.05

    def test_sum_aggregate_bounds(self, uniform_points, three_regions):
        from tests.conftest import brute_force_sums

        exact = brute_force_sums(uniform_points, three_regions, "fare")
        result = BoundedRasterJoin(resolution=128, compute_bounds=True).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert result.intervals.contains(exact).all()


class TestDisabled:
    def test_no_intervals_by_default(self, uniform_points, three_regions):
        result = BoundedRasterJoin(resolution=128).execute(
            uniform_points, three_regions
        )
        assert result.intervals is None


class TestRefusedAggregates:
    """Boundary-pixel totals bound one additive channel; an average, a
    minimum or a maximum is not that, so the engine refuses it rather than
    return intervals that do not contain the answer."""

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_non_additive_aggregate_raises(
        self, uniform_points, three_regions, aggregate
    ):
        engine = BoundedRasterJoin(resolution=64, compute_bounds=True)
        with pytest.raises(QueryError, match="COUNT and SUM"):
            engine.execute(uniform_points, three_regions, aggregate=aggregate)

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_without_bounds_every_aggregate_runs(
        self, uniform_points, three_regions, aggregate
    ):
        result = BoundedRasterJoin(resolution=64).execute(
            uniform_points, three_regions, aggregate=aggregate
        )
        assert result.intervals is None
        assert np.isfinite(result.values).all()

    @pytest.mark.parametrize(
        "aggregate", [Average("fare"), Min("fare"), Max("fare")], ids=repr
    )
    def test_refusal_leaves_the_engine_usable(
        self, uniform_points, three_regions, aggregate
    ):
        """The check runs before the tile loop, so a refused query leaves
        no intervals behind and the next COUNT bounds its own answer."""
        engine = BoundedRasterJoin(resolution=64, compute_bounds=True)
        with pytest.raises(QueryError):
            engine.execute(uniform_points, three_regions, aggregate=aggregate)
        result = engine.execute(uniform_points, three_regions)
        exact = brute_force_counts(uniform_points, three_regions)
        assert result.intervals.contains(exact).all()

    @pytest.mark.parametrize("aggregate", [Count(), Sum("fare")], ids=repr)
    def test_additive_intervals_hold_the_approximate_value(
        self, uniform_points, three_regions, aggregate
    ):
        result = BoundedRasterJoin(resolution=64, compute_bounds=True).execute(
            uniform_points, three_regions, aggregate=aggregate
        )
        iv = result.intervals
        assert np.all(iv.loose_lo <= result.values)
        assert np.all(result.values <= iv.loose_hi)


class TestConcurrentStatements:
    def test_each_caller_gets_its_own_intervals(
        self, uniform_points, three_regions
    ):
        """The intervals travel with the statement, not the engine: a
        statement held after its tile loop while another runs a larger
        polygon set on the same engine still returns its own."""
        engine = BoundedRasterJoin(resolution=128, compute_bounds=True)
        one = PolygonSet(list(three_regions)[:1])
        two = PolygonSet(list(three_regions)[:2])
        held, release = threading.Event(), threading.Event()
        checkpoint = engine._checkpoint_session

        def hold_first_caller():
            if threading.current_thread().name == "first":
                held.set()
                release.wait(30)
            checkpoint()

        engine._checkpoint_session = hold_first_caller
        results = {}
        first = threading.Thread(
            target=lambda: results.update(
                first=engine.execute(uniform_points, one)
            ),
            name="first",
        )
        first.start()
        try:
            assert held.wait(30)
            results["second"] = engine.execute(uniform_points, two)
        finally:
            release.set()
            first.join(30)
        assert not first.is_alive()
        alone = BoundedRasterJoin(resolution=128, compute_bounds=True)
        for name, polygons in (("first", one), ("second", two)):
            expected = alone.execute(uniform_points, polygons).intervals
            got = results[name].intervals
            assert len(got.loose_lo) == len(polygons)
            assert np.array_equal(got.loose_lo, expected.loose_lo)
            assert np.array_equal(got.loose_hi, expected.loose_hi)
