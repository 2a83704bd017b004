"""Unit and integration tests for the prepared-state cache subsystem."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    FilterSet,
    GPUDevice,
    IndexJoin,
    MaterializingJoin,
    PointDataset,
    PreparedPolygons,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.errors import QueryError
from repro.types import ExecutionStats
from tests.conftest import brute_force_counts


def shifted_regions(regions: PolygonSet, dx: float) -> PolygonSet:
    return PolygonSet(
        [Polygon(p.exterior + [dx, 0.0],
                 holes=[h + [dx, 0.0] for h in p.holes]) for p in regions]
    )


class TestFingerprint:
    def test_same_content_same_fingerprint(self, three_regions):
        clone = PolygonSet(
            [Polygon(p.exterior.copy(), holes=[h.copy() for h in p.holes])
             for p in three_regions]
        )
        assert three_regions.fingerprint == clone.fingerprint

    def test_vertex_edit_changes_fingerprint(self, three_regions):
        shifted = shifted_regions(three_regions, 1e-9)
        assert three_regions.fingerprint != shifted.fingerprint

    def test_order_matters(self, three_regions):
        reordered = PolygonSet(list(three_regions)[::-1])
        assert three_regions.fingerprint != reordered.fingerprint


class TestQuerySession:
    def test_hit_miss_accounting(self, three_regions):
        session = QuerySession()
        a1, hit1 = session.prepared_for(three_regions, ("spec", 1))
        a2, hit2 = session.prepared_for(three_regions, ("spec", 1))
        _, hit3 = session.prepared_for(three_regions, ("spec", 2))
        # The source tag is falsy on a miss and truthy on any hit; an
        # in-memory hit reports "memory" (see the store tests for the
        # disk tier's "store" tag).
        assert (bool(hit1), bool(hit2), bool(hit3)) == (False, True, False)
        assert hit2 == "memory"
        assert a1 is a2
        assert session.hits == 1 and session.misses == 2

    def test_lru_eviction(self, three_regions):
        session = QuerySession(capacity=2)
        session.prepared_for(three_regions, ("a",))
        session.prepared_for(three_regions, ("b",))
        session.prepared_for(three_regions, ("c",))  # evicts ("a",)
        assert len(session) == 2
        _, hit = session.prepared_for(three_regions, ("a",))
        assert not hit

    def test_invalidate_all_and_by_polygons(self, three_regions):
        other = shifted_regions(three_regions, 5.0)
        session = QuerySession()
        session.prepared_for(three_regions, ("a",))
        session.prepared_for(three_regions, ("b",))
        session.prepared_for(other, ("a",))
        assert session.invalidate(three_regions) == 2
        assert len(session) == 1
        assert session.invalidate() == 1
        assert len(session) == 0

    def test_invalid_capacity(self):
        with pytest.raises(QueryError):
            QuerySession(capacity=0)

    def test_prepared_repr_and_nbytes(self, three_regions):
        session = QuerySession()
        engine = AccurateRasterJoin(resolution=128, session=session)
        # populate via a real execution
        from repro import PointDataset

        pts = PointDataset(np.array([20.0, 60.0]), np.array([20.0, 70.0]))
        engine.execute(pts, three_regions)
        assert session.nbytes > 0
        assert "QuerySession" in repr(session)


class TestEnginesReusePreparedState:
    @pytest.fixture
    def session(self):
        return QuerySession()

    def assert_warm_reuses(self, engine, uniform_points, three_regions,
                           baseline_engine, point_side_index=False):
        cold = engine.execute(uniform_points, three_regions,
                              aggregate=Sum("fare"))
        warm = engine.execute(uniform_points, three_regions,
                              aggregate=Sum("fare"))
        base = baseline_engine.execute(uniform_points, three_regions,
                                       aggregate=Sum("fare"))
        assert cold.stats.prepared_misses == 1
        assert cold.stats.prepared_hits == 0
        assert warm.stats.prepared_hits == 1
        assert warm.stats.prepared_misses == 0
        # No polygon-side rebuild on the warm run (the materializing engine
        # still indexes the *points* per batch).
        assert warm.stats.triangulation_s == 0.0
        if not point_side_index:
            assert warm.stats.index_build_s == 0.0
        # Cached and uncached results are bit-identical.
        assert np.array_equal(cold.values, warm.values)
        assert np.array_equal(warm.values, base.values)
        for name in base.channels:
            assert np.array_equal(warm.channels[name], base.channels[name])

    def test_accurate(self, session, uniform_points, three_regions):
        self.assert_warm_reuses(
            AccurateRasterJoin(resolution=256, session=session),
            uniform_points, three_regions,
            AccurateRasterJoin(resolution=256),
        )

    def test_bounded_triangle_path(self, session, uniform_points,
                                   three_regions):
        self.assert_warm_reuses(
            BoundedRasterJoin(resolution=256, session=session),
            uniform_points, three_regions,
            BoundedRasterJoin(resolution=256),
        )

    def test_index_join(self, session, uniform_points, three_regions):
        self.assert_warm_reuses(
            IndexJoin(mode="gpu", session=session),
            uniform_points, three_regions,
            IndexJoin(mode="gpu"),
        )

    def test_materializing(self, session, uniform_points, three_regions):
        self.assert_warm_reuses(
            MaterializingJoin(truncate_bits=None, session=session),
            uniform_points, three_regions,
            MaterializingJoin(truncate_bits=None),
            point_side_index=True,
        )

    def test_accurate_results_stay_exact(self, session, uniform_points,
                                         three_regions):
        engine = AccurateRasterJoin(resolution=256, session=session)
        engine.execute(uniform_points, three_regions)
        warm = engine.execute(uniform_points, three_regions)
        assert np.array_equal(
            warm.values, brute_force_counts(uniform_points, three_regions)
        )

    def test_changed_polygons_never_hit(self, session, uniform_points,
                                        three_regions):
        engine = AccurateRasterJoin(resolution=256, session=session)
        engine.execute(uniform_points, three_regions)
        moved = shifted_regions(three_regions, 3.0)
        result = engine.execute(uniform_points, moved)
        assert result.stats.prepared_hits == 0
        assert np.array_equal(
            result.values, brute_force_counts(uniform_points, moved)
        )

    def test_session_shared_across_engines(self, session, uniform_points,
                                           three_regions):
        """Engines with different specs coexist in one session."""
        acc = AccurateRasterJoin(resolution=256, session=session)
        bounded = BoundedRasterJoin(resolution=256, session=session)
        acc.execute(uniform_points, three_regions)
        bounded.execute(uniform_points, three_regions)
        warm_a = acc.execute(uniform_points, three_regions)
        warm_b = bounded.execute(uniform_points, three_regions)
        assert warm_a.stats.prepared_hits == 1
        assert warm_b.stats.prepared_hits == 1

    def test_different_aggregates_share_prepared_state(
        self, session, uniform_points, three_regions
    ):
        """The artifact is keyed by geometry + render spec, not the query:
        a different aggregate over the same zoning is a warm run."""
        engine = AccurateRasterJoin(resolution=256, session=session)
        engine.execute(uniform_points, three_regions)
        warm = engine.execute(uniform_points, three_regions,
                              aggregate=Sum("fare"))
        assert warm.stats.prepared_hits == 1

    def test_streamed_execution_uses_session(self, session, uniform_points,
                                             three_regions):
        engine = AccurateRasterJoin(resolution=256, session=session)
        whole = engine.execute(uniform_points, three_regions)
        streamed = engine.execute_stream(
            lambda: uniform_points.batches(4_000), three_regions
        )
        assert streamed.stats.prepared_hits == 1
        assert np.array_equal(streamed.values, whole.values)

    def test_no_session_records_no_counters(self, uniform_points,
                                            three_regions):
        result = AccurateRasterJoin(resolution=256).execute(
            uniform_points, three_regions
        )
        assert result.stats.prepared_hits == 0
        assert result.stats.prepared_misses == 0


class TestWiring:
    def test_planner_reuses_prepared_state(self, uniform_points,
                                           three_regions):
        from repro.sql.planner import QueryPlanner

        planner = QueryPlanner()
        planner.register_points("trips", uniform_points)
        planner.register_regions("zones", three_regions)
        sql = (
            "SELECT COUNT(*) FROM trips, zones "
            "WHERE trips.location INSIDE zones.geometry GROUP BY zones.id"
        )
        first = planner.execute(sql)
        second = planner.execute(sql)
        assert first.stats.prepared_misses == 1
        assert second.stats.prepared_hits == 1
        assert np.array_equal(first.values, second.values)

    def test_planner_accepts_shared_session(self, uniform_points,
                                            three_regions):
        from repro.sql.planner import QueryPlanner

        session = QuerySession()
        planner = QueryPlanner(session=session)
        planner.register_points("trips", uniform_points)
        planner.register_regions("zones", three_regions)
        engine = AccurateRasterJoin(resolution=1024, session=session)
        engine.execute(uniform_points, three_regions)
        result = planner.execute(
            "SELECT COUNT(*) FROM trips, zones "
            "WHERE trips.location INSIDE zones.geometry GROUP BY zones.id"
        )
        # Planner default engine is accurate @ 1024 with default grid — the
        # same spec as the hand-built engine, so the statement is a warm run.
        assert result.stats.prepared_hits == 1


class TestPreparedPolygons:
    def test_throwaway_artifact_builds_everything(self, three_regions):
        """One artifact shape: the artifact an engine builds without a
        session owns per-polygon units like a session's does, so a tile
        task asks both for the same "what the units lack"."""
        prepared = PreparedPolygons(three_regions)
        cached, _ = QuerySession().prepared_for(three_regions, ("spec",))
        assert prepared.key is None and cached.key is not None
        assert len(prepared.units) == len(cached.units) == len(three_regions)
        for artifact in (prepared, cached):
            assert artifact.unit_slices("boundary", 0) == {}
            assert artifact.unit_slices("coverage", 0) == {}
        tris = prepared.ensure_triangles(three_regions)
        assert tris == [unit.triangles for unit in prepared.units]
        assert prepared.ensure_triangles(three_regions) is tris
        grid = prepared.ensure_grid(three_regions, 64, "mbr")
        assert prepared.ensure_grid(three_regions, 64, "mbr") is grid
        mbrs = prepared.ensure_mbr_arrays(three_regions)
        assert len(mbrs) == 4
        assert prepared.nbytes > 0

    def test_derived_state_is_accounted_and_rederives_bit_identically(
        self, uniform_points, three_regions, tmp_path
    ):
        """The units' coverage runs and the edge table count in
        ``nbytes``; the run tables and candidate lists are never stored,
        and a reloaded artifact's first query re-derives them bit for
        bit — as it does the answer."""
        store = ArtifactStore(tmp_path / "s")

        def run(session):
            return AccurateRasterJoin(
                resolution=128, grid_resolution=64,
                device=GPUDevice(max_resolution=64), session=session,
            ).execute(uniform_points, three_regions, Sum("fare"))

        session = QuerySession(store=store)
        before = run(session)
        (artifact,) = session._entries.values()
        records = dict(artifact.views)
        assert set(records) == {0, 1, 2, 3}
        full = artifact.nbytes
        assert full >= artifact.edge_table.nbytes + sum(
            runs.nbytes for unit in artifact.units
            for runs in unit.coverage.values()
        )

        reloaded = QuerySession(store=store)
        after = run(reloaded)
        assert after.stats.extra["prepared"] == "store-hit"
        assert np.array_equal(after.values, before.values)
        assert after.stats.pip_tests == before.stats.pip_tests > 0
        assert (after.stats.extra["boundary_pixels"]
                == before.stats.extra["boundary_pixels"] > 0)
        (again,) = reloaded._entries.values()
        assert again.nbytes == full
        for idx, record in records.items():
            for field in ("coverage", "candidates"):
                for mine, theirs in zip(getattr(record, field),
                                        getattr(again.views[idx], field)):
                    assert mine.dtype == theirs.dtype
                    assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("warm", [False, True])
    def test_demotion_while_the_tile_loop_is_in_flight(
        self, uniform_points, three_regions, warm
    ):
        """A budget pass may demote an artifact between a query's
        prepare and its tile loop (another serving thread's checkpoint):
        the entry is only dropped from the session, never mutated, so
        the tile loop holding it answers the undisturbed bits."""
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, device=GPUDevice(max_resolution=64),
            session=session,
        )
        aggregate, filters = Sum("fare"), FilterSet()
        expected = AccurateRasterJoin(
            resolution=128, device=GPUDevice(max_resolution=64)
        ).execute(uniform_points, three_regions, aggregate)
        if warm:
            engine.execute(uniform_points, three_regions, aggregate)
        stats = ExecutionStats(engine=engine.name, batches=0, passes=0)
        member = engine.member(three_regions, aggregate, filters, stats)
        held = dict(member.prepared.views)
        session.byte_budget = 1
        session.checkpoint()
        assert len(session) == 0
        assert member.prepared.edge_table is not None
        assert member.prepared.views.keys() == held.keys()
        assert all(member.prepared.views[i] is r for i, r in held.items())
        accumulators = engine.run_member(
            member, uniform_points, stats
        ).accumulators
        assert np.array_equal(aggregate.finalize(accumulators),
                              expected.values)
        assert stats.pip_tests == expected.stats.pip_tests > 0
        assert (stats.extra["boundary_pixels"]
                == expected.stats.extra["boundary_pixels"])

    def test_edge_table_is_small_and_traced_under_prepare(self, monkeypatch):
        """~1 MB per 100 polygons at ``grid_resolution=1024``, built
        inside the ``prepare`` span under its own name — the only index
        the artifact holds: at 1024² the whole of it stays under 13 MB
        (57 MB when a 1024² MBR grid and its cell lists rode along)."""
        from repro.data import generate_voronoi_regions
        from repro.geometry.bbox import BBox
        from repro.obs import trace

        regions = generate_voronoi_regions(
            100, BBox(0.0, 0.0, 1000.0, 1000.0), seed=4
        )
        points = PointDataset(np.asarray([500.0]), np.asarray([500.0]))
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=1024, grid_resolution=1024, session=session
        )
        monkeypatch.setenv(trace.TRACE_ENV_VAR, "1")
        result = engine.execute(points, regions)
        (artifact,) = session._entries.values()
        assert artifact.edge_table.nbytes <= 1 << 20
        assert artifact.grid is None
        assert artifact.nbytes <= 13e6
        assert sum(
            arr.nbytes for arr in artifact.views[0].candidates
        ) <= 1 << 20
        (prepare,) = [s for s in result.trace.children if s.name == "prepare"]
        (span,) = [s for s in prepare.children if s.name == "edge-table"]
        assert span.attrs["polygons"] == 100

    def test_artifact_is_picklable_for_process_backend(self, uniform_points,
                                                       three_regions):
        """Forked tile workers inherit artifacts copy-on-write, but a
        fully populated artifact must also survive pickling (the
        shareable-or-picklable contract of the execution backends)."""
        import pickle

        session = QuerySession()
        engine = AccurateRasterJoin(resolution=256, session=session)
        expected = engine.execute(uniform_points, three_regions)
        artifact = session._entries[next(iter(session._entries))]
        clone = pickle.loads(pickle.dumps(artifact))
        assert clone.key == artifact.key
        assert clone.canvas.width == artifact.canvas.width
        assert len(clone.tiles) == len(artifact.tiles)
        assert set(clone.views) == set(artifact.views)
        # The clone is a working artifact: a fresh session seeded with it
        # replays to bit-identical results.
        other = QuerySession()
        other._entries[artifact.key] = clone
        replay = AccurateRasterJoin(resolution=256, session=other).execute(
            uniform_points, three_regions
        )
        assert replay.stats.prepared_hits == 1
        assert np.array_equal(replay.values, expected.values)
