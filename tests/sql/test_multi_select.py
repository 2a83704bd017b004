"""Tests for multi-aggregate SELECT lists in the SQL frontend (§8)."""

import numpy as np
import pytest

from repro.core.multi import MultiAggregate
from repro.errors import SqlError
from repro.sql.parser import parse
from repro.sql.planner import QueryPlanner
from tests.conftest import brute_force_counts, brute_force_sums

MULTI = (
    "SELECT COUNT(*), SUM(taxi.fare), AVG(taxi.fare) FROM taxi, hoods "
    "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
)


@pytest.fixture
def planner(uniform_points, three_regions):
    p = QueryPlanner()
    p.register_points("taxi", uniform_points)
    p.register_regions("hoods", three_regions)
    return p


class TestParsing:
    def test_select_list_parsed(self):
        stmt = parse(MULTI)
        assert len(stmt.select_list()) == 3
        assert stmt.select_list()[0].function == "COUNT"
        assert stmt.select_list()[2].function == "AVG"
        assert stmt.aggregate.function == "COUNT"  # primary = first

    def test_single_aggregate_unchanged(self):
        stmt = parse(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert len(stmt.select_list()) == 1

    def test_str_round_trips(self):
        stmt = parse(MULTI)
        reparsed = parse(str(stmt))
        assert len(reparsed.select_list()) == 3

    def test_trailing_comma_rejected(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT(*), FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )


class TestPlanning:
    def test_lowered_to_multi_aggregate(self, planner):
        _, _, _, aggregate, _ = planner.plan(MULTI)
        assert isinstance(aggregate, MultiAggregate)
        assert aggregate.output_names == ("count", "sum(fare)", "avg(fare)")

    def test_min_in_select_list_rejected(self, planner):
        with pytest.raises(Exception):
            planner.plan(
                "SELECT COUNT(*), MIN(taxi.fare) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )


class TestExecution:
    def test_all_values_exact(self, planner, uniform_points, three_regions):
        counts = brute_force_counts(uniform_points, three_regions)
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        result = planner.execute(MULTI)
        # Primary values = first SELECT item.
        assert np.array_equal(result.values, counts)
        # Remaining items come from the shared channels.
        engine, _, _, aggregate, _ = planner.plan(MULTI)
        everything = aggregate.finalize_all(result.channels)
        assert np.allclose(everything["sum(fare)"], sums, rtol=1e-9)
        assert np.allclose(everything["avg(fare)"], sums / counts, rtol=1e-9)

    def test_duplicate_item_is_returned_too(self, planner):
        sql = MULTI.replace("AVG(taxi.fare)", "AVG(taxi.fare), SUM(taxi.fare)")
        _, _, _, aggregate, _ = planner.plan(sql)
        assert aggregate.output_names == (
            "count", "sum(fare)", "avg(fare)", "sum(fare)#3",
        )
        everything = aggregate.finalize_all(planner.execute(sql).channels)
        assert len(everything) == 4
        assert np.array_equal(everything["sum(fare)#3"],
                              everything["sum(fare)"])

    def test_one_pass_only(self, planner):
        result = planner.execute(MULTI)
        # One fused query: the channels hold count and sum:fare only.
        assert set(result.channels) == {"count", "sum:fare"}
