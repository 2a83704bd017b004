"""EXPLAIN ANALYZE: parsing, planning, and the three-regime report."""

import numpy as np
import pytest

from repro import EngineConfig, GPUDevice, Polygon, PolygonSet, QuerySession
from repro.core.optimizer import CostModel
from repro.errors import SqlError
from repro.sql.explain import ExplainResult
from repro.sql.parser import parse
from repro.sql.planner import QueryPlanner

QUERY = (
    "SELECT COUNT(*) FROM taxi, hoods "
    "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
)


@pytest.fixture
def planner(uniform_points, three_regions):
    p = QueryPlanner()
    p.register_points("taxi", uniform_points)
    p.register_regions("hoods", three_regions)
    return p


class TestParsing:
    def test_prefix_sets_flag(self):
        stmt = parse("EXPLAIN ANALYZE " + QUERY)
        assert stmt.explain_analyze is True

    def test_plain_select_unflagged(self):
        assert parse(QUERY).explain_analyze is False

    def test_explain_without_analyze_rejected(self):
        with pytest.raises(SqlError):
            parse("EXPLAIN " + QUERY)

    def test_str_round_trips_the_prefix(self):
        stmt = parse("EXPLAIN ANALYZE " + QUERY)
        assert str(stmt).startswith("EXPLAIN ANALYZE SELECT")
        assert parse(str(stmt)).explain_analyze is True

    def test_table_swap_keeps_aggregates_and_flag(
        self, uniform_points, three_regions
    ):
        # Regression: _resolve used to rebuild the statement field by
        # field on a FROM-order swap, dropping the SELECT list and the
        # EXPLAIN ANALYZE flag.
        p = QueryPlanner()
        p.register_points("taxi", uniform_points)
        p.register_regions("hoods", three_regions)
        stmt = parse(
            "EXPLAIN ANALYZE SELECT SUM(taxi.fare) FROM hoods, taxi "
            "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id"
        )
        resolved, points, regions = p._resolve(stmt)
        assert resolved.point_table == "taxi"
        assert resolved.explain_analyze is True
        (spec,) = resolved.select_list()
        assert spec.function == "SUM" and spec.column == "fare"


class TestReport:
    def test_cold_then_warm_regimes(self, uniform_points, three_regions):
        # Asserts a tier state: the session is the test's own, with no
        # ambient disk tier to answer the first statement warm.
        planner = QueryPlanner(session=QuerySession(store=False))
        planner.register_points("taxi", uniform_points)
        planner.register_regions("hoods", three_regions)
        first = planner.execute("EXPLAIN ANALYZE " + QUERY)
        assert isinstance(first, ExplainResult)
        assert first.regime == "cold"
        second = planner.execute("EXPLAIN ANALYZE " + QUERY)
        assert second.regime == "warm"
        # The warm prediction drops the preparation-heavy terms.
        assert second.predicted["prepare"] <= first.predicted["prepare"]

    @pytest.mark.parametrize("prewarmed", [True, False],
                             ids=["prewarmed", "not-prewarmed"])
    @pytest.mark.parametrize("select,where", [
        ("COUNT(*)", ""),
        ("SUM(fare)", "AND fare >= 12 "),
        ("MAX(fare)", ""),
    ], ids=["unfiltered", "filtered", "max"])
    def test_explain_names_the_path_that_ran(
        self, uniform_points, three_regions, select, where, prewarmed
    ):
        """The regime label, the predicted terms and ``extra["pyramid"]``
        agree with the spans beneath them, whatever the aggregate or
        filter."""
        planner = QueryPlanner(session=QuerySession(store=False))
        planner.register_points("taxi", uniform_points)
        planner.register_regions("hoods", three_regions)
        statement = (
            f"SELECT {select} FROM taxi, hoods "
            f"WHERE taxi.loc INSIDE hoods.geometry {where}GROUP BY hoods.id"
        )
        plain = planner.execute(statement)  # warms the artifact
        if prewarmed:
            planner.prewarm("taxi", "hoods")
        report = planner.execute("EXPLAIN ANALYZE " + statement)
        stats = report.result.stats
        assert report.regime == ("pyramid-warm" if prewarmed else "warm")
        assert stats.extra["pyramid"] == ("hit" if prewarmed else "cold")
        assert f"regime: {report.regime}" in report.text
        # One set of terms, each naming a span that exists.
        assert set(report.predicted) == {
            "prepare", "point_pass", "boundary_pip", "polygon_pass"
        }
        assert set(report.measured) == set(report.predicted)
        assert (report.predicted["point_pass"] == 0.0) == prewarmed
        assert not [
            span.name for span in report.root.walk()
            if span.name.startswith("pyramid")
        ]
        # No scatter share: a prewarmed point pass reads only the rows
        # on boundary pixels, which are the un-prewarmed run's PIP rows.
        n = len(uniform_points)
        if prewarmed:
            assert stats.points_processed == (
                stats.extra["pyramid_fallback_points"]
            ) < n
            assert stats.boundary_points == plain.stats.boundary_points
        else:
            assert stats.points_processed == n
            assert "pyramid_fallback_points" not in stats.extra
        assert stats.pip_tests == plain.stats.pip_tests
        assert np.array_equal(
            report.result.values, plain.values, equal_nan=True
        )

    def test_values_match_plain_execution(self, planner):
        explained = planner.execute("EXPLAIN ANALYZE " + QUERY)
        plain = planner.execute(QUERY)
        assert np.array_equal(explained.result.values, plain.values)

    def test_text_has_tree_and_prediction_table(self, planner):
        report = planner.execute("EXPLAIN ANALYZE " + QUERY)
        text = str(report)
        assert text.startswith("regime: ")
        assert "query" in text
        header = next(
            line for line in text.splitlines() if line.startswith("term")
        )
        assert "predicted" in header and "measured" in header
        assert "rel_error" in header
        # Every measured term line carries a numeric relative error.
        for term, meas in report.measured.items():
            if meas > 0:
                (line,) = [
                    l for l in text.splitlines() if l.startswith(term)
                ]
                assert "+" in line or "-" in line

    def test_measured_terms_cover_the_span_tree(self, planner):
        report = planner.execute("EXPLAIN ANALYZE " + QUERY)
        assert report.root.name in ("query", "explain")
        assert "prepare" in report.measured
        for seconds in report.measured.values():
            assert seconds >= 0.0

    def test_bounded_within_path(self, planner):
        report = planner.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM taxi, hoods "
            "WHERE taxi.loc INSIDE hoods.geometry WITHIN 2.0 "
            "GROUP BY hoods.id"
        )
        assert isinstance(report, ExplainResult)
        assert report.regime in ("cold", "warm")
        assert {"prepare", "point_pass", "polygon_pass"} <= set(
            report.predicted
        )

    @pytest.mark.parametrize("within", ["", "WITHIN 0.3 "],
                             ids=["accurate", "bounded"])
    def test_prediction_prices_the_canvas_that_ran(self, uniform_points,
                                                   within):
        """The planner's cost model is built from its device alone and
        reads canvas and tiles off the engine the statement lowers to."""
        device = GPUDevice(max_resolution=256)
        planner = QueryPlanner(
            device=device, session=QuerySession(store=False),
            config=EngineConfig(backend="serial"),
        )
        planner.register_points("taxi", uniform_points)
        planner.register_regions("hoods", PolygonSet([Polygon(
            [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
        )]))
        optimizer = planner.optimizer()
        assert optimizer.device is device
        assert planner.optimizer() is optimizer
        optimizer._model = CostModel(
            per_point_render=1.0, per_pixel_polygon_pass=1.0,
            per_boundary_point=0.0, per_vertex_triangulate=0.0,
        )
        report = planner.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM taxi, hoods "
            f"WHERE taxi.loc INSIDE hoods.geometry {within}"
            "GROUP BY hoods.id"
        )
        width, height = report.result.stats.extra["canvas"]
        assert report.result.stats.extra["tiles"] > 1
        # One worker: every tile scans its share after one projection,
        # and the square covers the whole padded canvas's extent.
        assert report.predicted["point_pass"] == pytest.approx(
            2 * len(uniform_points)
        )
        assert report.predicted["polygon_pass"] == width * height
