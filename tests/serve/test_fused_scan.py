"""Shared group execution: every member bit-identical to its solo run.

``execute_shared`` answers several additive aggregates over the same
points, regions and filter set from one ordinary ``engine.execute`` of a
``MultiAggregate``; a member's values *and* private channels must be the
bits its own ``engine.execute`` returns — asserted here, not argued,
across tile counts, backends, session warmth and what can answer (the
exact engine, prewarmed or not, and the bounded one).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Filter,
    FilterSet,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.core.multi import MultiAggregate
from repro.errors import ExecutionBackendError
from repro.obs import metrics
from repro.serve import ServeConfig, Server, execute_shared
from repro.sql.planner import QueryPlanner
from tests.conftest import (
    WorkerKiller,
    cutting_capacity,
    random_star_polygon,
    routed_tile_rows,
)
from tests.serve.test_server import _Blocker

#: NaN / ±inf attributes are in the inputs on purpose (inf - inf, a
#: float32 overflow); the worker threads that meet them are outside any
#: ``np.errstate`` a test could open.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ANCHOR = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]

#: The additive members a shared execution can hold, over two columns:
#: five statements, three distinct channels.
MEMBERS = (Count, lambda: Sum("a"), lambda: Average("a"),
           lambda: Sum("b"), lambda: Average("b"))
FILTERS = {
    "unfiltered": FilterSet(),
    "keeps-some": FilterSet([Filter("hour", ">=", 12), Filter("b", "<", 40)]),
    "keeps-none": FilterSet([Filter("hour", "<", -1)]),
}
STAT_FIELDS = ("pip_tests", "boundary_points", "points_processed",
               "points_filtered_out")


@pytest.fixture
def region_sets(rng):
    """Two heterogeneous polygon sets sharing one bounding box."""
    set_a = PolygonSet([
        Polygon(ANCHOR),
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(5.0, 20.0)),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(5.0, 20.0)),
    ])
    set_b = PolygonSet([
        Polygon(ANCHOR),
        random_star_polygon(rng, center=(50.0, 30.0), vertices=14,
                            radius_range=(5.0, 20.0)),
    ])
    return set_a, set_b


def _make_engine(kind: str, device=None, session=None, config=None):
    if kind == "bounded":
        return BoundedRasterJoin(epsilon=2.2, device=device, session=session,
                                 config=config)
    return AccurateRasterJoin(resolution=64, grid_resolution=64,
                              device=device, session=session, config=config)


def hard_points(rng, polygons: PolygonSet, canvases) -> PointDataset:
    """Non-integer attributes with NaN / ±inf / -0.0 among them, and
    points exactly on tile seams and polygon outlines."""
    n = 2500
    xs = rng.uniform(0.0, 100.0, n)
    ys = rng.uniform(0.0, 100.0, n)
    seam_x, seam_y = [], []
    for canvas in canvases:
        side = -(-max(canvas.width, canvas.height) // 4)  # the 16-tile cut
        extent = canvas.extent
        seam_x += [extent.xmin + col * canvas.pixel_width
                   for col in range(side, canvas.width, side)]
        seam_y += [extent.ymin + row * canvas.pixel_height
                   for row in range(side, canvas.height, side)]
    outline = np.concatenate([
        np.concatenate([ring, (ring + np.roll(ring, 1, axis=0)) / 2.0])
        for polygon in polygons for ring in polygon.rings
    ])
    xs = np.concatenate([xs, np.repeat(seam_x, 8),
                         rng.uniform(0.0, 100.0, 8 * len(seam_y)),
                         outline[:, 0]])
    ys = np.concatenate([ys, rng.uniform(0.0, 100.0, 8 * len(seam_x)),
                         np.repeat(seam_y, 8), outline[:, 1]])
    total = len(xs)
    a = rng.uniform(-5.0, 60.0, total)
    a[rng.choice(total, 12, replace=False)] = [
        np.nan, np.inf, -np.inf, -0.0, -0.0, -0.0,
        1e-300, -1e-300, 1e300, -1e300, 0.1, -0.1,
    ]
    return PointDataset(xs, ys, {
        "a": a,
        "b": rng.uniform(0.5, 80.0, total),
        "hour": rng.integers(0, 24, total).astype(np.float64),
    })


def assert_same_answer(result, solo) -> None:
    """Values, every private channel and the work counts, bit for bit."""
    assert np.array_equal(result.values, solo.values, equal_nan=True)
    assert set(result.channels) == set(solo.channels)
    for name, channel in solo.channels.items():
        assert np.array_equal(result.channels[name], channel, equal_nan=True)
    for field in STAT_FIELDS:
        want = getattr(solo.stats, field)
        if field == "pip_tests" and (
            result.stats.extra.get("pairs") == "recorded"
        ):
            # The boundary join runs once per pairing: a statement that
            # replays the artifact's record of it runs no PIP test.
            want = 0
        assert getattr(result.stats, field) == want


def _assert_member_equals_solo(shared, solo, group_size: int) -> None:
    assert_same_answer(shared, solo)
    assert shared.stats.extra["fused_queries"] == group_size
    assert "fused_queries" not in solo.stats.extra
    # What the ledger reads off every member's stats.
    assert shared.stats.extra["tiles"] == solo.stats.extra["tiles"]
    assert ((shared.stats.extra.get("pyramid") == "hit")
            == (solo.stats.extra.get("pyramid") == "hit"))
    assert ("partition" in shared.stats.extra) == ("partition" in solo.stats.extra)


BACKENDS = {
    "serial": lambda: EngineConfig(backend="serial"),
    "thread": lambda: EngineConfig(backend="thread", workers=2),
    "process": lambda: EngineConfig(backend="process", workers=2),
}


class TestSharedChannelsAreTheSoloBits:
    """The matrix: {1, 4, 16 tiles} x {serial, thread, process} x
    {session-warm, session-less} x {exact, pyramid-warm, bounded}, three
    filter sets each, five members over three channels."""

    @pytest.mark.parametrize("cuts", [1, 2, 4],
                             ids=["1-tile", "4-tiles", "16-tiles"])
    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("kind,warm", [
        ("exact", True), ("exact", False), ("pyramid", True),
        ("bounded", True), ("bounded", False),
    ], ids=["exact-warm", "exact-sessionless", "pyramid-warm",
            "bounded-warm", "bounded-sessionless"])
    def test_every_member_equals_its_solo_execute(
        self, rng, region_sets, kind, warm, backend, cuts
    ):
        polygons, _ = region_sets
        canvases = [_make_engine(k)._make_canvas(polygons)
                    for k in ("exact", "bounded")]
        points = hard_points(rng, polygons, canvases)
        canvas = canvases[kind == "bounded"]
        device = GPUDevice(max_resolution=-(
            -max(canvas.width, canvas.height) // cuts
        ))
        engine = _make_engine(
            kind, device, QuerySession(store=False) if warm else None,
            BACKENDS[backend](),
        )
        aggregates = [make() for make in MEMBERS]
        try:
            if kind == "pyramid":
                engine.prewarm(points, polygons)
            for filters in FILTERS.values():
                # Solo first: on a session this also warms what the
                # shared run then hits (artifact, routing, pyramid).
                solos = [engine.execute(points, polygons, aggregate, filters)
                         for aggregate in aggregates]
                results = execute_shared(
                    engine, points, polygons, aggregates, filters
                )
                assert results is not None and len(results) == len(solos)
                for shared, solo in zip(results, solos):
                    _assert_member_equals_solo(shared, solo, len(aggregates))
                assert results[0].stats.extra["tiles"] == cuts * cuts
                if warm:
                    assert results[0].stats.extra["prepared"] == "hit"
                if kind == "pyramid":
                    assert results[0].stats.extra["pyramid"] == "hit"
            # Not vacuous: something finite and something poisoned came
            # out of the unfiltered group.
            sums = execute_shared(
                engine, points, polygons, aggregates, FilterSet()
            )[1].values
            assert np.isnan(sums).any() and np.isfinite(sums).any()
        finally:
            engine.close()


class TestExecuteShared:
    def test_session_under_byte_pressure_matches_solo(
        self, uniform_points, region_sets
    ):
        # The budget pass after the group's one execution demotes what
        # it just used; the next group rebuilds it and still answers as
        # solo runs do.
        set_a, _ = region_sets
        aggregates = [Count(), Sum("fare")]
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, set_a)
        session.byte_budget = 1
        for _ in range(2):
            results = execute_shared(
                engine, uniform_points, set_a, aggregates, FilterSet()
            )
            assert session.demotions > 0
            for aggregate, result in zip(aggregates, results):
                solo = AccurateRasterJoin(resolution=128).execute(
                    uniform_points, set_a, aggregate
                )
                assert np.array_equal(result.values, solo.values)
                for name, channel in solo.channels.items():
                    assert np.array_equal(result.channels[name], channel)

    def test_member_stats_report_the_shared_execution(self, uniform_points,
                                                      region_sets):
        set_a, _ = region_sets
        engine = AccurateRasterJoin(resolution=128, session=QuerySession())
        results = execute_shared(
            engine, uniform_points, set_a, [Count(), Sum("fare")], FilterSet()
        )
        assert results[0].stats is not results[1].stats
        assert results[0].stats.extra is not results[1].stats.extra
        for result in results:
            assert result.stats.extra["fused_queries"] == 2
            assert result.stats.points_processed == len(uniform_points.xs)
            assert result.stats.engine == "accurate-raster"


class TestThroughTheServer:
    """Whole groups as the queue forms them: tables, filters and blends
    mixed, pinned behind a busy pool."""

    @staticmethod
    def _planner(points, tables, **kwargs) -> QueryPlanner:
        planner = QueryPlanner(**kwargs)
        planner.register_points("taxi", points)
        for name, regions in tables.items():
            planner.register_regions(name, regions)
        return planner

    @staticmethod
    def _sql(select: str, table: str, where: str = "") -> str:
        return (f"SELECT {select} FROM taxi, {table} WHERE taxi.loc INSIDE "
                f"{table}.geometry {where} GROUP BY {table}.id")

    def test_heterogeneous_members_match_solo(self, uniform_points,
                                              region_sets):
        set_a, set_b = region_sets
        statements = [
            self._sql("COUNT(*)", "a"),
            self._sql("AVG(fare)", "a"),
            self._sql("MIN(fare)", "a"),
            self._sql("SUM(fare)", "b"),
            self._sql("AVG(fare)", "a", "AND hour >= 12"),
            self._sql("MAX(fare)", "a", "AND hour < 6"),
            self._sql("COUNT(*)", "a", "AND hour < 6"),
            self._sql("COUNT(*), SUM(fare)", "a"),
            "EXPLAIN ANALYZE " + self._sql("SUM(fare)", "a"),
        ]
        planner = self._planner(uniform_points, {"a": set_a, "b": set_b})
        try:
            solos = [planner.execute(q) for q in statements]
            with Server(planner, ServeConfig(max_workers=2)) as server:
                blocker = _Blocker(server, workers=2)
                futures = [server.submit(q) for q in statements]
                blocker.done()
                results = [future.result(120.0) for future in futures]
                counters = server.counters()
        finally:
            planner.close()
        # Only COUNT + AVG over (a, no filter) found a companion: Min /
        # Max, the multi-item SELECT and EXPLAIN ANALYZE ride alone.
        assert counters["fused_scans"] == 1
        assert counters["fused_queries"] == 2
        assert counters["depth"] == 0
        for index, (result, solo) in enumerate(zip(results, solos)):
            if index == len(statements) - 1:
                result, solo = result.result, solo.result
            assert np.array_equal(result.values, solo.values, equal_nan=True)
            for name, channel in solo.channels.items():
                assert np.array_equal(
                    result.channels[name], channel, equal_nan=True
                )
            assert result.stats.extra.get("fused_queries") == (
                2 if index < 2 else None
            )

    def test_a_worker_lost_mid_group_ends_in_solo_answers_or_errors(
        self, uniform_points, region_sets, monkeypatch
    ):
        """A forked worker dies partway through a shared group's
        execution: every member re-runs solo and settles with its own
        answer — the solo bits — or its own typed error, and once the
        planner is closed no worker process is left."""
        set_a, _ = region_sets
        planner = self._planner(
            uniform_points, {"a": set_a},
            device=GPUDevice(max_resolution=512),
            config=EngineConfig(backend="process", workers=2),
        )
        statements = [self._sql("COUNT(*)", "a"), self._sql("SUM(fare)", "a"),
                      self._sql("SUM(hour)", "a")]
        try:
            solos = [planner.execute(q) for q in statements[:2]]
            assert solos[1].stats.extra["tiles"] == 4
            assert solos[1].stats.extra["pool"] == "forked"
            plan = planner.plan

            def killing_plan(statement):
                engine, points, regions, aggregate, filters = plan(statement)
                if getattr(aggregate, "column", None) == "hour":
                    aggregate = WorkerKiller("hour")
                return engine, points, regions, aggregate, filters

            monkeypatch.setattr(planner, "plan", killing_plan)
            fallbacks = metrics.snapshot()["counters"].get(
                "serve_fused_fallbacks", 0
            )
            with Server(planner, ServeConfig(max_workers=1)) as server:
                blocker = _Blocker(server, workers=1)
                futures = [server.submit(q) for q in statements]
                blocker.done()
                for future, solo in zip(futures, solos):
                    result = future.result(120.0)
                    assert np.array_equal(result.values, solo.values)
                    for name, channel in solo.channels.items():
                        assert np.array_equal(result.channels[name], channel)
                    assert "fused_queries" not in result.stats.extra
                with pytest.raises(ExecutionBackendError,
                                   match="died mid-dispatch"):
                    futures[2].result(120.0)
                counters = server.counters()
            assert counters["fused_scans"] == 0
            assert counters["fused_fallbacks"] == 1
            assert counters["depth"] == 0
            assert metrics.snapshot()["counters"][
                "serve_fused_fallbacks"] == fallbacks + 1
        finally:
            planner.close()
        assert not multiprocessing.active_children()

    def test_multi_batch_union_plan_is_shared(self, uniform_points,
                                               region_sets):
        """A host input whose union plan cuts every tile into several
        device batches — where each member alone is cut elsewhere — is
        still one shared execution, and every member is bit-identical to
        its solo run: a tile folds its boundary matches once, whatever
        its cut."""
        set_a, _ = region_sets
        device = GPUDevice(capacity_bytes=200_000, max_resolution=64)
        engine = AccurateRasterJoin(
            resolution=64, device=device, session=QuerySession()
        )
        aggregates = [Count(), Sum("fare"), Average("fare")]
        shared = execute_shared(
            engine, uniform_points, set_a, aggregates, FilterSet()
        )
        solos = [
            AccurateRasterJoin(resolution=64, device=device).execute(
                uniform_points, set_a, aggregate
            ) for aggregate in aggregates
        ]
        # The union's wider framebuffer cuts where COUNT alone does not.
        assert shared[0].stats.batches > solos[0].stats.batches > 1
        for result, solo in zip(shared, solos):
            assert np.array_equal(result.values, solo.values)
            for name, channel in solo.channels.items():
                assert np.array_equal(result.channels[name], channel)

        fallbacks = metrics.snapshot()["counters"].get(
            "serve_fused_fallbacks", 0
        )
        # A planner's canvas is 1 024 pixels wide, where no tile of the
        # uniform points holds more rows than a third of its pixels — so
        # no member alone, whose framebuffer needs half the union's, is
        # ever cut beside the union's.  Squeezed into the first 64-pixel
        # tile they are: the device holds that framebuffer and a quarter
        # of the tile's rows.
        dense = PointDataset(uniform_points.xs / 16, uniform_points.ys / 16,
                             uniform_points.attributes)
        probe = AccurateRasterJoin(device=GPUDevice(max_resolution=64))
        rows = int(routed_tile_rows(probe, dense, set_a).max())
        device = GPUDevice(
            capacity_bytes=cutting_capacity(
                probe, dense, set_a, MultiAggregate([Count(), Sum("fare")]),
                FilterSet(), rows // 4,
            ),
            max_resolution=64,
        )
        planner = self._planner(dense, {"a": set_a}, device=device)
        try:
            statements = [self._sql("COUNT(*)", "a"),
                          self._sql("SUM(fare)", "a")]
            solos = [planner.execute(q) for q in statements]
            assert solos[1].stats.batches > solos[0].stats.batches > 1
            with Server(planner, ServeConfig(max_workers=1)) as server:
                blocker = _Blocker(server, workers=1)
                futures = [server.submit(q) for q in statements]
                blocker.done()
                for future, solo in zip(futures, solos):
                    result = future.result(60.0)
                    assert np.array_equal(result.values, solo.values)
                    for name, channel in solo.channels.items():
                        assert np.array_equal(result.channels[name], channel)
                    assert result.stats.extra["fused_queries"] == 2
                    assert result.stats.batches >= solos[1].stats.batches
                assert server.counters()["fused_scans"] == 1
                assert server.counters()["depth"] == 0
        finally:
            planner.close()
        assert metrics.snapshot()["counters"].get(
            "serve_fused_fallbacks", 0
        ) == fallbacks
