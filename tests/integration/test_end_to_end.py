"""End-to-end scenarios exercising the full public API surface."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    BoundedRasterJoin,
    Count,
    Filter,
    GPUDevice,
    RasterJoinOptimizer,
    Sum,
)
from repro.data import generate_taxi, generate_twitter, generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT, USA_REGION_EXTENT
from repro.sql import QueryPlanner
from tests.conftest import brute_force_counts


class TestUrbaneScenario:
    """The paper's motivating application: interactive heat maps with
    dynamically changing filters (Figure 1)."""

    @pytest.fixture(scope="class")
    def setup(self):
        taxi = generate_taxi(30_000, seed=31)
        hoods = generate_voronoi_regions(20, NYC_REGION_EXTENT, seed=31)
        return taxi, hoods

    def test_interactive_filter_changes(self, setup):
        taxi, hoods = setup
        engine = BoundedRasterJoin(epsilon=20.0)
        morning = engine.execute(
            taxi, hoods, filters=[Filter("hour", ">=", 7), Filter("hour", "<=", 9)]
        )
        evening = engine.execute(
            taxi, hoods, filters=[Filter("hour", ">=", 17), Filter("hour", "<=", 19)]
        )
        assert morning.values.sum() > 0
        assert evening.values.sum() > 0
        assert not np.array_equal(morning.values, evening.values)

    def test_changing_aggregation(self, setup):
        taxi, hoods = setup
        engine = AccurateRasterJoin(resolution=512)
        counts = engine.execute(taxi, hoods, aggregate=Count())
        fares = engine.execute(taxi, hoods, aggregate=Sum("fare"))
        # Regions with zero trips must have zero fares.
        empty = counts.values == 0
        assert np.all(fares.values[empty] == 0)

    def test_rezoning_polygons_changed_between_queries(self, setup):
        """Urban planning scenario: polygons change, no precomputation can
        be reused — the engines must handle fresh polygons cheaply."""
        taxi, _ = setup
        engine = BoundedRasterJoin(epsilon=50.0)
        for seed in (1, 2, 3):
            zones = generate_voronoi_regions(12, NYC_REGION_EXTENT, seed=seed)
            result = engine.execute(taxi, zones)
            assert len(result.values) == 12
            assert result.values.sum() > 0


class TestTwitterCountiesScenario:
    def test_continental_scale_epsilon(self):
        """County-scale analysis with the paper's 1 km bound."""
        tweets = generate_twitter(25_000, seed=41)
        counties = generate_voronoi_regions(40, USA_REGION_EXTENT, seed=41)
        exact = brute_force_counts(tweets, counties)
        approx = BoundedRasterJoin(epsilon=1000.0).execute(tweets, counties)
        nonzero = exact > 10
        rel = np.abs(approx.values[nonzero] - exact[nonzero]) / exact[nonzero]
        assert np.median(rel) < 0.05


class TestSqlRoundTrip:
    def test_full_stack(self):
        taxi = generate_taxi(15_000, seed=51)
        hoods = generate_voronoi_regions(10, NYC_REGION_EXTENT, seed=51)
        planner = QueryPlanner(device=GPUDevice())
        planner.register_points("taxi", taxi)
        planner.register_regions("hoods", hoods)
        result = planner.execute(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry AND hour >= 7 "
            "GROUP BY hoods.id"
        )
        mask = taxi.column("hour") >= 7
        subset = taxi.take(np.flatnonzero(mask))
        exact = brute_force_counts(subset, hoods)
        assert np.array_equal(result.values, exact)


class TestOptimizerScenario:
    def test_lod_exploration(self):
        """Level-of-detail: coarse first, then zoom with tighter bounds;
        EXPLAIN's cheaper variant flips across the sweep, and the coarse
        bounded pass runs."""
        taxi = generate_taxi(10_000, seed=61)
        hoods = generate_voronoi_regions(8, NYC_REGION_EXTENT, seed=61)
        optimizer = RasterJoinOptimizer()

        def cheaper(eps):
            costs = {
                type(engine).__name__: sum(
                    optimizer.explain_terms(taxi, hoods, engine)[1].values()
                )
                for engine in (BoundedRasterJoin(epsilon=eps),
                               AccurateRasterJoin())
            }
            return min(costs, key=costs.get)

        assert cheaper(500.0) == "BoundedRasterJoin"
        assert cheaper(0.05) == "AccurateRasterJoin"
        coarse = BoundedRasterJoin(epsilon=500.0).execute(
            taxi, hoods, aggregate=Count()
        )
        assert len(coarse.values) == len(hoods)
