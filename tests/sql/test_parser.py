"""Unit tests for the SQL parser."""

import pytest

from repro.errors import SqlError
from repro.sql.parser import parse

BASE = (
    "SELECT COUNT(*) FROM taxi, hoods "
    "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
)


class TestValidStatements:
    def test_count_star(self):
        stmt = parse(BASE)
        assert stmt.aggregate.function == "COUNT"
        assert stmt.aggregate.column is None
        assert stmt.point_table == "taxi"
        assert stmt.region_table == "hoods"
        assert stmt.spatial.epsilon is None

    def test_avg_with_column(self):
        stmt = parse(
            "SELECT AVG(taxi.fare) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert stmt.aggregate.function == "AVG"
        assert stmt.aggregate.column == "fare"
        assert stmt.aggregate.table == "taxi"

    def test_unqualified_aggregate_column(self):
        stmt = parse(
            "SELECT SUM(fare) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        assert stmt.aggregate.column == "fare"
        assert stmt.aggregate.table is None

    def test_filters(self):
        stmt = parse(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry "
            "AND hour >= 7 AND taxi.fare < 50 GROUP BY hoods.id"
        )
        assert len(stmt.conditions) == 2
        assert stmt.conditions[0].column == "hour"
        assert stmt.conditions[1].table == "taxi"
        assert stmt.conditions[1].value == 50.0

    def test_within_bound(self):
        stmt = parse(
            "SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry WITHIN 12.5 "
            "GROUP BY hoods.id"
        )
        assert stmt.spatial.epsilon == 12.5

    def test_min_max(self):
        for func in ("MIN", "MAX"):
            stmt = parse(
                f"SELECT {func}(fare) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )
            assert stmt.aggregate.function == func

    def test_str_round_trip_parses(self):
        stmt = parse(BASE)
        assert parse(str(stmt)).point_table == "taxi"

    def test_str_round_trips_the_epsilon_bound(self):
        # The canonical text keys the server's coalescing: a bounded
        # statement must not read like its exact twin.
        bounded = parse(BASE.replace("geometry", "geometry WITHIN 12.5"))
        assert parse(str(bounded)) == bounded
        assert str(bounded) != str(parse(BASE))


class TestErrors:
    def test_missing_group_by(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry"
            )

    def test_missing_inside(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE hour > 7 GROUP BY hoods.id"
            )

    def test_count_needs_parens(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )

    def test_unqualified_inside_rejected(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE loc INSIDE geometry GROUP BY hoods.id"
            )

    def test_negative_within(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT COUNT(*) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry WITHIN -5 "
                "GROUP BY hoods.id"
            )

    def test_trailing_garbage(self):
        with pytest.raises(SqlError):
            parse(BASE + " LIMIT 5")

    def test_unknown_aggregate(self):
        with pytest.raises(SqlError):
            parse(
                "SELECT MEDIAN(fare) FROM taxi, hoods "
                "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
            )

    def test_error_reports_position(self):
        try:
            parse("SELECT COUNT(*) FROM taxi hoods WHERE x GROUP BY y")
        except SqlError as exc:
            assert "position" in str(exc)
        else:
            pytest.fail("expected SqlError")
