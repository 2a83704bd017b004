"""Unit tests for the multiple-aggregates-per-query extension (§8)."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    IndexJoin,
    Min,
    Sum,
)
from repro.core.multi import MultiAggregate
from repro.errors import QueryError
from tests.conftest import brute_force_counts, brute_force_sums


class TestConstruction:
    def test_channel_dedup(self):
        multi = MultiAggregate([Count(), Average("fare"), Sum("fare")])
        # count is shared; Average and Sum share sum:fare.
        assert set(multi.channels) == {"count", "sum:fare"}

    def test_distinct_columns_get_distinct_channels(self):
        multi = MultiAggregate([Sum("fare"), Sum("tip")])
        assert set(multi.channels) == {"sum:fare", "sum:tip"}

    def test_output_names(self):
        multi = MultiAggregate([Count(), Average("fare")])
        assert multi.output_names == ("count", "avg(fare)")

    def test_repeated_item_keeps_its_own_label(self):
        multi = MultiAggregate([Sum("fare"), Average("fare"), Sum("fare")])
        assert multi.output_names == ("sum(fare)", "avg(fare)", "sum(fare)#2")
        assert set(multi.channels) == {"sum:fare", "count"}

    def test_min_max_rejected(self):
        with pytest.raises(QueryError):
            MultiAggregate([Count(), Min("fare")])

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MultiAggregate([])

    def test_nesting_rejected(self):
        with pytest.raises(QueryError):
            MultiAggregate([MultiAggregate([Count()])])


class TestSinglePassResults:
    @pytest.fixture
    def multi(self):
        return MultiAggregate([Count(), Sum("fare"), Average("fare")])

    def test_accurate_engine_all_exact(self, uniform_points, three_regions, multi):
        counts = brute_force_counts(uniform_points, three_regions)
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=multi
        )
        all_values = multi.finalize_all(result.channels)
        assert np.array_equal(all_values["count"], counts)
        assert np.allclose(all_values["sum(fare)"], sums, rtol=1e-9)
        assert np.allclose(all_values["avg(fare)"], sums / counts, rtol=1e-9)

    def test_primary_value_is_first_aggregate(
        self, uniform_points, three_regions, multi
    ):
        counts = brute_force_counts(uniform_points, three_regions)
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=multi
        )
        assert np.array_equal(result.values, counts)

    def test_every_item_is_returned_duplicates_included(
        self, uniform_points, three_regions
    ):
        """Three items, three answers: outputs are positional, so a
        repeated ``sum(fare)`` cannot collide with the first."""
        multi = MultiAggregate([Sum("fare"), Average("fare"), Sum("fare")])
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions, aggregate=multi
        )
        split = multi.split(result.channels)
        assert [set(private) for private in split] == [
            {"sum"}, {"sum", "count"}, {"sum"},
        ]
        all_values = multi.finalize_all(result.channels)
        assert list(all_values) == list(multi.output_names)
        assert len(all_values) == 3
        for agg, private, values in zip(
            multi.aggregates, split, all_values.values()
        ):
            solo = AccurateRasterJoin(resolution=256).execute(
                uniform_points, three_regions, aggregate=agg
            )
            assert np.array_equal(values, solo.values)
            for name, channel in solo.channels.items():
                assert np.array_equal(private[name], channel)
        assert np.array_equal(result.values, all_values["sum(fare)"])

    def test_index_join_engine(self, uniform_points, three_regions, multi):
        counts = brute_force_counts(uniform_points, three_regions)
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        result = IndexJoin(mode="gpu").execute(
            uniform_points, three_regions, aggregate=multi
        )
        all_values = multi.finalize_all(result.channels)
        assert np.array_equal(all_values["count"], counts)
        assert np.allclose(all_values["sum(fare)"], sums, rtol=1e-9)

    def test_single_pass_matches_separate_queries_bounded(
        self, uniform_points, three_regions, multi
    ):
        """One fused pass must equal three separate bounded queries —
        identical canvas, identical approximation."""
        fused = BoundedRasterJoin(resolution=512).execute(
            uniform_points, three_regions, aggregate=multi
        )
        all_values = multi.finalize_all(fused.channels)
        for agg, label in zip(multi.aggregates, multi.output_names):
            separate = BoundedRasterJoin(resolution=512).execute(
                uniform_points, three_regions, aggregate=agg
            )
            got = all_values[label]
            both = np.isfinite(separate.values) & np.isfinite(got)
            assert np.allclose(got[both], separate.values[both], rtol=1e-6)

    def test_transfer_payload_is_union_of_columns(
        self, uniform_points, three_regions
    ):
        """§8: multiple aggregates increase the vertex payload — but only
        by the distinct attribute columns."""
        from repro.core.engine import SpatialAggregationEngine
        from repro.core.filters import FilterSet

        multi = MultiAggregate([Count(), Average("fare"), Sum("fare")])
        columns = SpatialAggregationEngine.required_columns(multi, FilterSet())
        assert columns == ("x", "y", "fare")
