"""Unit tests for the SQL planner and catalog."""

import numpy as np
import pytest

from repro import AccurateRasterJoin, BoundedRasterJoin
from repro.errors import SqlError
from repro.sql.planner import QueryPlanner
from tests.conftest import brute_force_counts, brute_force_sums


@pytest.fixture
def planner(uniform_points, three_regions):
    p = QueryPlanner()
    p.register_points("taxi", uniform_points)
    p.register_regions("hoods", three_regions)
    return p


class TestCatalog:
    def test_name_collision(self, planner, uniform_points, three_regions):
        with pytest.raises(SqlError):
            planner.register_regions("taxi", three_regions)
        with pytest.raises(SqlError):
            planner.register_points("hoods", uniform_points)

    def test_unknown_tables(self, planner):
        with pytest.raises(SqlError):
            planner.execute(
                "SELECT COUNT(*) FROM nope, hoods "
                "WHERE nope.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )

    def test_from_order_insensitive(self, planner, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = planner.execute(
            "SELECT COUNT(*) FROM hoods, taxi "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert np.array_equal(result.values, exact)


class TestLowering:
    def test_default_engine_accurate(self, planner):
        engine, *_ = planner.plan(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert isinstance(engine, AccurateRasterJoin)

    def test_within_selects_bounded(self, planner):
        engine, *_ = planner.plan(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry WITHIN 2.0 "
            "GROUP BY hoods.id"
        )
        assert isinstance(engine, BoundedRasterJoin)
        assert engine.epsilon == 2.0

    def test_unknown_aggregate_column(self, planner):
        with pytest.raises(Exception):
            planner.execute(
                "SELECT SUM(bogus) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )

    def test_aggregate_from_region_table_rejected(self, planner):
        with pytest.raises(SqlError):
            planner.plan(
                "SELECT SUM(hoods.fare) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )

    def test_group_by_validated(self, planner):
        with pytest.raises(SqlError):
            planner.plan(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY taxi.id"
            )
        with pytest.raises(SqlError):
            planner.plan(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.shape"
            )


class TestExecution:
    def test_count_matches_brute_force(
        self, planner, uniform_points, three_regions
    ):
        exact = brute_force_counts(uniform_points, three_regions)
        result = planner.execute(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert np.array_equal(result.values, exact)

    def test_filtered_sum(self, planner, uniform_points, three_regions):
        mask = uniform_points.column("hour") >= 12
        subset = uniform_points.take(np.flatnonzero(mask))
        exact = brute_force_sums(subset, three_regions, "fare")
        result = planner.execute(
            "SELECT SUM(taxi.fare) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry AND hour >= 12 "
            "GROUP BY hoods.id"
        )
        assert np.allclose(result.values, exact, rtol=1e-9)

    def test_bounded_within_close(self, planner, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = planner.execute(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry WITHIN 0.2 "
            "GROUP BY hoods.id"
        )
        rel = np.abs(result.values - exact) / exact
        assert rel.max() < 0.02


class TestSharedBackend:
    """Every engine a planner lowers shares one backend instance, so the
    persistent worker pool survives across statements instead of being
    respawned (and leaked) per query."""

    QUERY = (
        "SELECT COUNT(*) FROM taxi, hoods "
        "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
    )

    def _parallel_planner(self, uniform_points, three_regions):
        from repro import EngineConfig, GPUDevice, QuerySession

        # The pool-event assertions below describe a first, cold
        # statement: no ambient disk tier.
        p = QueryPlanner(
            device=GPUDevice(max_resolution=48),
            session=QuerySession(store=False),
            config=EngineConfig(backend="thread", workers=2),
        )
        p.register_points("taxi", uniform_points)
        p.register_regions("hoods", three_regions)
        return p

    def test_lowered_engines_share_one_backend(
        self, uniform_points, three_regions
    ):
        planner = self._parallel_planner(uniform_points, three_regions)
        try:
            one, *_ = planner.plan(self.QUERY)
            two, *_ = planner.plan(self.QUERY)
            assert one.backend is two.backend
        finally:
            planner.close()

    def test_second_statement_reuses_the_pool(
        self, uniform_points, three_regions
    ):
        planner = self._parallel_planner(uniform_points, three_regions)
        try:
            first = planner.execute(self.QUERY)
            assert first.stats.extra["pool"] == "created"
            second = planner.execute(self.QUERY)
            assert second.stats.extra["pool"] == "reused"
            assert np.array_equal(first.values, second.values)
        finally:
            planner.close()

    def test_planner_context_manager_closes_pool(
        self, uniform_points, three_regions
    ):
        with self._parallel_planner(uniform_points, three_regions) as planner:
            planner.execute(self.QUERY)
            assert planner.config.backend._pool is not None
        assert planner.config.backend._pool is None
