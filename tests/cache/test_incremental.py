"""Unit tests for per-polygon artifacts: delta derivation, rebuild
accounting, the partition cache, and fractional warmth."""

import functools
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    BoundedRasterJoin,
    Filter,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.core.filters import FilterSet
from tests.conftest import cutting_capacity, routed_tile_rows


def edited_regions(regions: PolygonSet, shrink: float = 0.25) -> PolygonSet:
    """Move one vertex of the (frame-interior) third polygon inward."""
    polys = list(regions)
    ring = polys[2].exterior.copy()
    center = ring.mean(axis=0)
    ring[0] = ring[0] + (center - ring[0]) * shrink
    polys[2] = Polygon(ring, holes=polys[2].holes)
    out = PolygonSet(polys)
    assert out.bbox.xmin == regions.bbox.xmin  # frame unchanged
    return out


def stretched_regions(regions: PolygonSet) -> PolygonSet:
    """An edit that *changes the frame* (moves the extent corner)."""
    polys = list(regions)
    ring = polys[0].exterior.copy()
    corner = np.argmin(ring[:, 0] + ring[:, 1])
    ring[corner] = ring[corner] - 5.0
    polys[0] = Polygon(ring)
    return PolygonSet(polys)


class TestDeltaDerivation:
    def test_single_edit_rebuilds_one_polygon(self, uniform_points,
                                              three_regions):
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.prepared_delta_hits == 1
        assert result.stats.extra["polygons_rebuilt"] == 1
        assert session.delta_hits == 1
        assert session.polygons_rebuilt == 1
        # Unchanged polygons' units are shared arrays, not copies.
        base_key = (three_regions.fingerprint,) + tuple(engine.prepared_spec())
        new_key = (after.fingerprint,) + tuple(engine.prepared_spec())
        base_units = session._entries[base_key].units
        new_units = session._entries[new_key].units
        assert new_units[0].triangles is base_units[0].triangles
        assert new_units[2].triangles is not base_units[2].triangles

    def test_only_dirty_triangulation_runs(self, uniform_points,
                                           three_regions, monkeypatch):
        from repro.cache import prepared

        triangulated = []
        triangulate = prepared.triangulate_set
        monkeypatch.setattr(
            prepared, "triangulate_set",
            lambda polys: triangulated.extend(polys) or triangulate(polys),
        )
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert triangulated == list(three_regions)
        after = edited_regions(three_regions)
        engine.execute(uniform_points, after, aggregate=Sum("fare"))
        # Cold triangulated 3 polygons; the edit only the changed one
        # (counted, not timed: the holed polygon is most of the clock).
        new_key = (after.fingerprint,) + tuple(engine.prepared_spec())
        entry = session._entries[new_key]
        assert entry.delta.dirty == [2]
        assert triangulated[3:] == [after[2]]

    def test_an_edit_through_a_copied_ring_is_a_delta(self, uniform_points,
                                                      three_regions):
        """Rings are frozen, so an edit copies one; the copy builds a new
        polygon with its own fingerprint while the untouched polygons
        keep theirs — the delta path matches them as before."""
        session = QuerySession(store=False)
        engine = BoundedRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        polys = list(three_regions)
        ring = polys[1].exterior.copy()
        ring[0] += (ring.mean(axis=0) - ring[0]) * 0.25
        polys[1] = Polygon(ring, holes=polys[1].holes)
        after = PolygonSet(polys)
        assert [p.fingerprint == q.fingerprint
                for p, q in zip(after, three_regions)] == [True, False, True]
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        assert np.array_equal(
            result.values,
            BoundedRasterJoin(resolution=128).execute(
                uniform_points, after, aggregate=Sum("fare")
            ).values,
        )

    def test_frame_change_falls_back_to_cold(self, uniform_points,
                                             three_regions):
        session = QuerySession(store=False)
        engine = BoundedRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        moved = stretched_regions(three_regions)
        result = engine.execute(uniform_points, moved, aggregate=Sum("fare"))
        # The extent changed, so every per-polygon artifact is invalid
        # under the new canvas: no delta, a plain (correct) cold build.
        assert result.stats.extra["prepared"] == "miss"
        assert session.delta_hits == 0

    def test_added_and_removed_polygons(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        engine = BoundedRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        extra = Polygon([(45.0, 15.0), (60.0, 18.0), (52.0, 30.0)])
        grown = PolygonSet(list(three_regions) + [extra])
        res = engine.execute(uniform_points, grown, aggregate=Sum("fare"))
        assert res.stats.extra["prepared"] == "delta"
        assert res.stats.extra["polygons_rebuilt"] == 1
        assert np.array_equal(
            res.values,
            BoundedRasterJoin(resolution=128).execute(
                uniform_points, grown, aggregate=Sum("fare")
            ).values,
        )
        shrunk = PolygonSet(list(three_regions)[:2] + [extra])
        res2 = engine.execute(uniform_points, shrunk, aggregate=Sum("fare"))
        assert res2.stats.extra["prepared"] == "delta"
        assert res2.stats.extra["polygons_rebuilt"] == 0  # all reused
        assert np.array_equal(
            res2.values,
            BoundedRasterJoin(resolution=128).execute(
                uniform_points, shrunk, aggregate=Sum("fare")
            ).values,
        )

    def test_unaffected_tiles_keep_composed_views(self, uniform_points,
                                                  three_regions):
        """On a multi-tile canvas, the delta's first statement leaves the
        tiles the edited polygon never touches on its base's composed
        views — the same objects — and recomposes the tiles the moved
        vertex sits on."""
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session,
            device=GPUDevice(max_resolution=48),
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        base_key = (three_regions.fingerprint,) + tuple(engine.prepared_spec())
        base = session._entries[base_key]
        assert len(base.tiles) > 1
        after = edited_regions(three_regions)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        new_key = (after.fingerprint,) + tuple(engine.prepared_spec())
        derived = session._entries[new_key]
        edited_box = three_regions[2].bbox.union(after[2].bbox)
        carried = [
            idx for idx, tile in enumerate(base.tiles)
            if not tile.bbox.intersects(edited_box)
        ]
        assert carried  # some tiles are untouched by the edit
        for idx in carried:
            assert derived.views[idx] is base.views[idx]
        vertices = (three_regions[2].exterior[0], after[2].exterior[0])
        touched = [
            idx for idx, tile in enumerate(base.tiles)
            if any(tile.bbox.contains_point(x, y) for x, y in vertices)
        ]
        assert touched
        for idx in touched:
            for field in ("boundary", "coverage", "candidates"):
                assert (
                    getattr(derived.views[idx], field)
                    is not getattr(base.views[idx], field)
                ), (idx, field)

    def test_delta_result_matches_cold_on_multitile(self, uniform_points,
                                                    three_regions):
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session,
            device=GPUDevice(max_resolution=48),
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        inc = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert inc.stats.extra["prepared"] == "delta"
        cold = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            device=GPUDevice(max_resolution=48),
        ).execute(uniform_points, after, aggregate=Sum("fare"))
        assert np.array_equal(inc.values, cold.values)


    def test_seam_crossing_delta_matches_cold(self, uniform_points,
                                             three_regions):
        """A one-vertex edit of a polygon spanning tile seams patches
        every tile it meets from the base's views: one polygon rebuilt,
        the answer a cold build's."""
        device = GPUDevice(max_resolution=48)
        seam = Polygon([(30, 30), (60, 32), (58, 58), (32, 55)])
        before = PolygonSet(list(three_regions) + [seam])
        ring = seam.exterior.copy()
        ring[2] += (ring.mean(axis=0) - ring[2]) * 0.3
        after = PolygonSet(list(three_regions) + [Polygon(ring)])
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session,
            device=device,
        )
        engine.execute(uniform_points, before, aggregate=Sum("fare"))
        base_key = (before.fingerprint,) + tuple(engine.prepared_spec())
        tiles = session._entries[base_key].tiles
        assert sum(tile.bbox.intersects(seam.bbox) for tile in tiles) > 1
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        cold = AccurateRasterJoin(
            resolution=128, grid_resolution=64, device=device,
        ).execute(uniform_points, after, aggregate=Sum("fare"))
        assert np.array_equal(result.values, cold.values)


    def test_statements_racing_on_one_delta(self, uniform_points,
                                            three_regions):
        """Statements racing on one delta-derived artifact — some
        patching from the base while another's merge drops it — all
        answer a cold build's bits."""
        device = GPUDevice(max_resolution=48)
        session = QuerySession(store=False)
        make = functools.partial(
            AccurateRasterJoin, resolution=128, grid_resolution=64,
            device=device,
        )
        make(session=session).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        after = edited_regions(three_regions)
        cold = make().execute(uniform_points, after, aggregate=Sum("fare"))
        results, errors = [], []

        def run():
            try:
                results.append(make(session=session).execute(
                    uniform_points, after, aggregate=Sum("fare")
                ))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 8
        assert {r.stats.extra["prepared"] for r in results} <= {"delta", "hit"}
        for result in results:
            assert np.array_equal(result.values, cold.values)


    def test_patch_outlives_the_base_being_dropped(self, uniform_points,
                                                   three_regions,
                                                   monkeypatch):
        """A tile task patches from the delta it read on entry: another
        statement's merge dropping the base meanwhile (what finishing
        the last tile does) changes nothing."""
        from repro.cache import prepared

        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        entry, _ = session.prepared_for(after, engine.prepared_spec())
        assert entry.delta.base is not None
        pixel_box = prepared._pixel_box

        def dropped_meanwhile(*args):
            entry.delta = entry.delta._replace(base=None)
            return pixel_box(*args)

        monkeypatch.setattr(prepared, "_pixel_box", dropped_meanwhile)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        cold = AccurateRasterJoin(resolution=128, grid_resolution=64).execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        assert np.array_equal(result.values, cold.values)


class TestWindowedStatement:
    """A delta's statement reuses its base's per-polygon answers only
    under the very key the base answered: the same points (by the
    session's content guard), filter, aggregate and kernel.  Anything
    else runs in full — and every answer is a sessionless engine's."""

    @staticmethod
    def _engine(session=None):
        return AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            device=GPUDevice(max_resolution=48), session=session,
        )

    @classmethod
    def _stroke(cls, session, points, regions, base_kwargs, delta_kwargs,
                delta_points=None, delta_engine=None):
        """Run the base statement, then the stroke's; returns the
        stroke's result checked against a sessionless engine's."""
        cls._engine(session).execute(points, regions, **base_kwargs)
        after = edited_regions(regions)
        points = points if delta_points is None else delta_points
        engine = delta_engine or cls._engine(session)
        result = engine.execute(points, after, **delta_kwargs)
        reference = type(engine)(
            resolution=engine.resolution, device=engine.device,
        ).execute(points, after, **delta_kwargs)
        assert np.array_equal(result.values, reference.values)
        for name, channel in reference.channels.items():
            assert np.array_equal(result.channels[name], channel)
        return result

    def test_the_same_statement_reuses(self, uniform_points,
                                       three_regions):
        kwargs = {"aggregate": Sum("fare")}
        result = self._stroke(QuerySession(store=False), uniform_points,
                              three_regions, kwargs, kwargs)
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_recomputed"][1] == 3

    def test_other_points_of_the_same_shape(self, uniform_points,
                                            three_regions):
        other = PointDataset(
            uniform_points.xs[::-1].copy(), uniform_points.ys[::-1].copy(),
            {name: uniform_points.column(name)[::-1].copy()
             for name in ("fare", "hour")},
        )
        kwargs = {"aggregate": Sum("fare")}
        result = self._stroke(QuerySession(store=False), uniform_points,
                              three_regions, kwargs, kwargs,
                              delta_points=other)
        assert result.stats.extra["prepared"] == "delta"
        assert "polygons_recomputed" not in result.stats.extra

    def test_an_unfrozen_column_mutated_in_place(self, uniform_points,
                                                 three_regions):
        session = QuerySession(store=False)
        kwargs = {"aggregate": Sum("fare")}
        self._engine(session).execute(uniform_points, three_regions, **kwargs)
        fare = uniform_points.column("fare")
        assert fare.flags.writeable  # folded every statement
        fare[0], fare[1] = fare[1], fare[0]
        after = edited_regions(three_regions)
        result = self._engine(session).execute(uniform_points, after, **kwargs)
        assert result.stats.extra["prepared"] == "delta"
        assert "polygons_recomputed" not in result.stats.extra
        reference = self._engine().execute(uniform_points, after, **kwargs)
        assert np.array_equal(result.values, reference.values)

    def test_a_changed_filter_literal(self, uniform_points, three_regions):
        result = self._stroke(
            QuerySession(store=False), uniform_points, three_regions,
            {"aggregate": Sum("fare"), "filters": [Filter("hour", ">=", 12)]},
            {"aggregate": Sum("fare"), "filters": [Filter("hour", ">=", 13)]},
        )
        assert "polygons_recomputed" not in result.stats.extra

    @pytest.mark.parametrize("aggregate", [Sum("hour"), Average("fare")])
    def test_another_aggregate(self, uniform_points, three_regions,
                               aggregate):
        result = self._stroke(
            QuerySession(store=False), uniform_points, three_regions,
            {"aggregate": Sum("fare")}, {"aggregate": aggregate},
        )
        assert result.stats.extra["prepared"] == "delta"
        assert "polygons_recomputed" not in result.stats.extra

    @classmethod
    def _cutting_device(cls, points, regions) -> GPUDevice:
        """The base's device, with memory that cuts each tile into more
        batches than the layout has tiles: the framebuffer plus that
        share of the fewest rows a tile is routed."""
        probe = cls._engine()
        rows = routed_tile_rows(probe, points, regions)
        capacity = cutting_capacity(
            probe, points, regions, Sum("fare"), FilterSet(),
            -(-int(rows.min()) // (len(rows) + 1)),
        )
        return GPUDevice(capacity_bytes=capacity, max_resolution=48)

    @pytest.mark.parametrize("other, reuses", [
        (functools.partial(AccurateRasterJoin, resolution=96), False),
        (functools.partial(BoundedRasterJoin, resolution=128), False),
        (functools.partial(AccurateRasterJoin, resolution=128,
                           grid_resolution=64,
                           device=GPUDevice(max_resolution=64)), False),
        # A delta of the base, its points cut into other batches (the
        # device is sized from the points): the cut reaches no bit, so
        # the base's answers stand.
        (functools.partial(AccurateRasterJoin, resolution=128,
                           grid_resolution=64), True),
    ], ids=["resolution", "engine", "tiles", "device-capacity"])
    def test_another_resolution_engine_or_device(self, uniform_points,
                                                 three_regions, other,
                                                 reuses):
        session = QuerySession(store=False)
        kwargs = {"aggregate": Sum("fare")}
        if reuses:
            other = functools.partial(other, device=self._cutting_device(
                uniform_points, three_regions
            ))
        result = self._stroke(session, uniform_points, three_regions,
                              kwargs, kwargs,
                              delta_engine=other(session=session))
        if reuses:
            assert result.stats.extra["prepared"] == "delta"
            assert result.stats.batches > result.stats.extra["tiles"]
            assert result.stats.extra["polygons_recomputed"][1] == 3
        else:
            assert "polygons_recomputed" not in result.stats.extra

    def test_a_base_invalidated_between_statements(self, uniform_points,
                                                   three_regions):
        session = QuerySession(store=False)
        engine = self._engine(session)
        kwargs = {"aggregate": Sum("fare")}
        engine.execute(uniform_points, three_regions, **kwargs)
        after = edited_regions(three_regions)
        entry, source = session.prepared_for(after, engine.prepared_spec())
        assert source == "delta" and len(entry.delta.answers) == 1
        assert session.invalidate(three_regions) == 1
        result = engine.execute(uniform_points, after, **kwargs)
        assert "polygons_recomputed" not in result.stats.extra
        reference = self._engine().execute(uniform_points, after, **kwargs)
        assert np.array_equal(result.values, reference.values)

    def test_a_base_evicted_between_statements(self, uniform_points,
                                               three_regions):
        """A session of one entry demotes the base the moment the delta
        is derived from it: the stroke runs in full."""
        kwargs = {"aggregate": Sum("fare")}
        result = self._stroke(QuerySession(capacity=1, store=False),
                              uniform_points, three_regions, kwargs, kwargs)
        assert result.stats.extra["prepared"] == "delta"
        assert "polygons_recomputed" not in result.stats.extra

    def test_answers_are_never_persisted(self, uniform_points,
                                         three_regions, tmp_path):
        session = QuerySession(store=ArtifactStore(tmp_path))
        engine = self._engine(session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        restarted = QuerySession(store=ArtifactStore(tmp_path))
        self._engine(restarted).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        (entry,) = restarted._entries.values()
        assert restarted.store_hits == 1
        assert len(entry.answers) == 1  # this statement's, not the disk's
        assert len(pickle.loads(pickle.dumps(entry)).answers) == 0

    def test_threads_racing_on_the_first_windowed_statement(
        self, uniform_points, three_regions
    ):
        """Eight statements race to be the first over one delta: every
        one reuses the base's answers and all agree, bit for bit."""
        session = QuerySession(store=False)
        kwargs = {"aggregate": Average("fare"),
                  "filters": [Filter("hour", "<", 20)]}
        self._engine(session).execute(uniform_points, three_regions, **kwargs)
        after = edited_regions(three_regions)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def run():
            try:
                barrier.wait(timeout=60)
                results.append(self._engine(session).execute(
                    uniform_points, after, **kwargs
                ))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 8
        reference = self._engine().execute(uniform_points, after, **kwargs)
        for result in results:
            assert "polygons_recomputed" in result.stats.extra
            assert np.array_equal(result.values, reference.values,
                                  equal_nan=True)
            for name, channel in reference.channels.items():
                assert np.array_equal(result.channels[name], channel)


class TestDeltaLookup:
    """The delta base comes from a fingerprint index; it must choose as
    a scan over every resident entry's units did."""

    SPEC = ("test", 1)

    @staticmethod
    def _scan(session, key, spec, polygons):
        """The reference: the scan the index replaced."""
        box = polygons.bbox
        bbox = (box.xmin, box.ymin, box.xmax, box.ymax)
        want = Counter(poly.fingerprint for poly in polygons)
        best, best_matched = None, 0
        for candidate_key in reversed(session._entries):
            if candidate_key == key or candidate_key[1:] != tuple(spec):
                continue
            candidate = session._entries[candidate_key]
            if candidate.source_bbox != bbox:
                continue
            have = Counter(unit.fingerprint for unit in candidate.units)
            matched = sum(min(n, have[fp]) for fp, n in want.items())
            if matched > best_matched:
                best, best_matched = candidate, matched
        return best, best_matched

    @staticmethod
    def _square(x: float, y: float, side: float = 5.0) -> Polygon:
        return Polygon([(x, y), (x + side, y), (x + side, y + side),
                        (x, y + side)])

    def _check(self, session, queries):
        for query in queries:
            for spec in (self.SPEC, ("other",)):
                key = (query.fingerprint,) + tuple(spec)
                got = session._find_delta_base(key, spec, query)
                want = self._scan(session, key, spec, query)
                assert got[0] is want[0] and got[1] == want[1]

    def test_index_chooses_as_the_scan(self):
        low, high = self._square(0, 0), self._square(95, 95)
        s1, s2, s3, s4 = (self._square(10 * k, 40) for k in range(1, 5))
        sets = [
            [low, high, s1, s1, s2],      # a duplicate fingerprint
            [low, high, s1, s3, s4],
            [low, high, s2, s3, s3],
            [low, s1, s1, s2],            # another frame
        ]
        queries = [PolygonSet(q) for q in (
            [low, high, s1, s1, s1, s2], [low, high, s3], [low, high, s1],
            [low, high, s3, s3, s4], [low, high, s2, s2], [low, s1, s2],
            [low, high, self._square(60, 60)],
        )]
        session = QuerySession(capacity=4, store=False)
        for polys in sets:
            session.prepared_for(PolygonSet(polys), self.SPEC)
        session.prepared_for(PolygonSet(sets[0]), ("other",))
        self._check(session, queries)
        # Ties go to the most recently used: touch each in turn.
        for polys in sets:
            session.prepared_for(PolygonSet(polys), self.SPEC)
            self._check(session, queries)
        tie = PolygonSet([low, high, s3])
        assert session._find_delta_base(
            (tie.fingerprint,) + self.SPEC, self.SPEC, tie
        )[1] == 3
        # Capacity evictions and invalidation keep the index in step.
        for k in range(3):
            session.prepared_for(PolygonSet([low, high, s4, s4, s1]
                                            + [s2] * k), self.SPEC)
            self._check(session, queries)
        session.invalidate(PolygonSet(sets[2]))
        self._check(session, queries)
        session.invalidate()
        assert session._holders == {}
        self._check(session, queries)


class TestPartitionCache:
    """Satellite: the tile-point partition is cached per (point source,
    canvas spec) so repeated queries skip the partition scan."""

    def _engine(self, session):
        return BoundedRasterJoin(
            resolution=128, session=session,
            device=GPUDevice(max_resolution=48),
        )

    def test_repeat_query_reports_cached(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        engine = self._engine(session)
        first = engine.execute(uniform_points, three_regions,
                               aggregate=Sum("fare"))
        assert first.stats.extra["partition"] == "on"
        second = engine.execute(uniform_points, three_regions,
                                aggregate=Sum("fare"))
        assert second.stats.extra["partition"] == "cached"
        assert session.partition_hits == 1
        assert np.array_equal(first.values, second.values)

    def test_cache_survives_polygon_edits(self, uniform_points,
                                          three_regions):
        """The partition depends on the canvas, not the polygons: the
        edit loop keeps hitting it (frame-preserving edits only)."""
        session = QuerySession(store=False)
        engine = self._engine(session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        edited_run = engine.execute(uniform_points, after,
                                    aggregate=Sum("fare"))
        assert edited_run.stats.extra["partition"] == "cached"
        cold = BoundedRasterJoin(
            resolution=128, device=GPUDevice(max_resolution=48),
        ).execute(uniform_points, after, aggregate=Sum("fare"))
        assert np.array_equal(edited_run.values, cold.values)

    def test_different_points_do_not_hit(self, uniform_points,
                                         three_regions, rng):
        from repro import PointDataset

        session = QuerySession(store=False)
        engine = self._engine(session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        other = PointDataset(
            rng.uniform(0, 100, 500), rng.uniform(0, 100, 500),
            {"fare": rng.uniform(1, 30, 500)},
        )
        res = engine.execute(other, three_regions, aggregate=Sum("fare"))
        assert res.stats.extra["partition"] == "on"
        assert session.partition_hits == 0

    def test_in_place_mutation_is_caught(self, uniform_points,
                                         three_regions):
        session = QuerySession(store=False)
        engine = self._engine(session)
        first = engine.execute(uniform_points, three_regions,
                               aggregate=Sum("fare"))
        # Interior mutation: length and corner values are unchanged —
        # only a full content fingerprint can catch this.
        uniform_points.xs[len(uniform_points) // 2] += 500.0
        res = engine.execute(uniform_points, three_regions,
                             aggregate=Sum("fare"))
        assert res.stats.extra["partition"] == "on"  # guard rejected it
        cold = BoundedRasterJoin(
            resolution=128, device=GPUDevice(max_resolution=48),
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert np.array_equal(res.values, cold.values)


class TestFractionalWarmth:
    def test_exact_hit_has_fraction_one(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert session.warmth(three_regions, engine.prepared_spec()) == 1.0

    def test_edited_set_grades_fractionally(self, uniform_points,
                                            three_regions):
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        warm = session.warmth(after, engine.prepared_spec())
        assert warm == pytest.approx(2.0 / 3.0)

    def test_duplicate_fingerprints_never_overcount(self, uniform_points):
        """Multiset matching: three identical polygons in the sibling
        must not grade a two-polygon query above fraction 1.0 (a
        candidate-side count once produced fractions > 1, flipping cost
        terms negative)."""
        square = Polygon([(10.0, 10.0), (40.0, 10.0), (40.0, 40.0),
                          (10.0, 40.0)])
        triple = PolygonSet([square, square, square])
        session = QuerySession(store=False)
        engine = BoundedRasterJoin(resolution=128, session=session)
        engine.execute(uniform_points, triple, aggregate=Sum("fare"))
        other = Polygon([(10.0, 10.0), (40.0, 12.0), (20.0, 40.0)])
        pair = PolygonSet([square, other])
        warm = session.warmth(pair, engine.prepared_spec())
        assert warm == pytest.approx(0.5)
        result = engine.execute(uniform_points, pair, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        assert np.array_equal(
            result.values,
            BoundedRasterJoin(resolution=128).execute(
                uniform_points, pair, aggregate=Sum("fare")
            ).values,
        )

    def test_cold_set_grades_none(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        moved = stretched_regions(three_regions)  # frame changed: no delta
        assert session.warmth(moved, engine.prepared_spec()) is None

    def test_optimizer_plans_edits_warm(self, uniform_points, three_regions):
        """A 1-of-N edit must cost (nearly) like a warm query: EXPLAIN's
        prediction discounts the matched share."""
        from repro.core.optimizer import RasterJoinOptimizer

        session = QuerySession(store=False)
        optimizer = RasterJoinOptimizer()
        engine = AccurateRasterJoin(resolution=1024, session=session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        assert session.warmth(after, engine.prepared_spec()) == (
            pytest.approx(2 / 3)
        )

        def predicted(polygons):
            regime, terms = optimizer.explain_terms(
                uniform_points, polygons, engine
            )
            assert regime == "warm"
            return sum(terms.values())

        assert predicted(three_regions) <= predicted(after)


class TestPlannerEditLoop:
    def test_reregistered_regions_hit_the_delta_path(self, uniform_points,
                                                     three_regions):
        """The SQL face of incremental edits: replacing a region table
        re-plans statements onto delta-derived prepared state."""
        from repro.sql.planner import QueryPlanner

        planner = QueryPlanner()
        planner.register_points("taxi", uniform_points)
        planner.register_regions("zones", three_regions)
        stmt = (
            "SELECT SUM(taxi.fare) FROM taxi, zones "
            "WHERE taxi.loc INSIDE zones.geometry GROUP BY zones.id"
        )
        planner.execute(stmt)
        after = edited_regions(three_regions)
        planner.register_regions("zones", after)
        result = planner.execute(stmt)
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        reference = AccurateRasterJoin().execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        assert np.array_equal(result.values, reference.values)
        planner.close()
