"""Unit tests for point routing (``repro.exec.partition``).

The routing stage must (1) give each tile exactly the rows its own
transform maps inside it, with the pixel that transform computes,
(2) preserve original row order within a tile, (3) cut a tile's rows on
the tile's batch-plan boundaries, and (4) treat a single-tile canvas as
a one-tile routing that copies no column.  Engine-level bit-equality is
pinned by ``tests/property/test_prop_partition.py`` and the integration
matrix; these tests pin the mechanism.
"""

import weakref

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    GPUDevice,
    PointDataset,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.device.memory import ResidentPointSet
from repro.exec.partition import partition_chunk
from repro.geometry.bbox import BBox
from repro.geometry.polygon import rectangle
from repro.graphics.viewport import Canvas

EXTENT = BBox(0.0, 0.0, 100.0, 100.0)


def _canvas_and_tiles(resolution=96, max_res=48):
    canvas = Canvas.for_resolution(EXTENT, resolution)
    tiles = list(canvas.tiles(max_res))
    return canvas, tiles, max_res


def _partition(chunk, canvas, tiles, max_res, columns=("x", "y"),
               device=None, fbo_bytes=None):
    if fbo_bytes is None:
        fbo_bytes = [0] * len(tiles)
    return partition_chunk(
        chunk, canvas, tiles, max_res, columns, device, fbo_bytes
    )


def _tile_rows(batches):
    """(x, y, pix) of the rows a tile's batches say are on it."""
    xs, ys, pix = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, dtype=int)]
    for batch in batches:
        on = slice(None) if batch.inside is None else batch.inside
        xs.append(batch.column("x")[on])
        ys.append(batch.column("y")[on])
        pix.append(batch.pix[on])
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(pix)


class TestConservativeCoverage:
    def test_every_tile_inside_set_is_covered_in_order(self, rng):
        """Each tile is routed exactly the rows its own ``pixel_of`` maps
        inside, in original row order, at the pixel it computes."""
        canvas, tiles, max_res = _canvas_and_tiles()
        n = 5_000
        chunk = PointDataset(
            rng.uniform(-5.0, 105.0, n), rng.uniform(-5.0, 105.0, n)
        )
        per_tile, _ = _partition(chunk, canvas, tiles, max_res)
        for tile, batches in zip(tiles, per_tile):
            got_x, got_y, got_pix = _tile_rows(batches)
            ix, iy, inside = tile.pixel_of(chunk.xs, chunk.ys)
            np.testing.assert_array_equal(got_x, chunk.xs[inside])
            np.testing.assert_array_equal(got_y, chunk.ys[inside])
            np.testing.assert_array_equal(
                got_pix, (iy * tile.width + ix)[inside]
            )

    def test_seam_points_reach_both_neighbors(self):
        """Points exactly on a tile seam are examined for the adjacent
        tile too, and whichever transform claims them gets them — once,
        decided at routing time."""
        canvas, tiles, max_res = _canvas_and_tiles()
        # World x of the seam between tile column 0 and 1.
        seam_x = tiles[1].bbox.xmin
        ys = np.linspace(5.0, 95.0, 7)
        chunk = PointDataset(np.full_like(ys, seam_x), ys)
        per_tile, duplicates = _partition(chunk, canvas, tiles, max_res)
        assert duplicates >= len(ys)
        claimed = 0
        for tile, batches in zip(tiles, per_tile):
            got_x, got_y, _ = _tile_rows(batches)
            _, _, inside = tile.pixel_of(chunk.xs, chunk.ys)
            np.testing.assert_array_equal(got_y, chunk.ys[inside])
            claimed += len(got_y)
        assert claimed == len(ys)

    def test_far_outside_points_are_dropped(self):
        """Rows off the canvas are on no tile: they ride with the
        nearest one flagged outside (the vertex-stage counters still see
        them), once each."""
        canvas, tiles, max_res = _canvas_and_tiles()
        chunk = PointDataset(
            np.array([-1e6, 1e6, 50.0]), np.array([50.0, 50.0, 1e6])
        )
        per_tile, _ = _partition(chunk, canvas, tiles, max_res)
        batches = [b for subs in per_tile for b in subs]
        assert sum(len(b) for b in batches) == 3
        assert not any(b.inside.any() for b in batches)

    def test_empty_chunk(self):
        canvas, tiles, max_res = _canvas_and_tiles()
        chunk = PointDataset(np.array([]), np.array([]))
        per_tile, dupes = _partition(chunk, canvas, tiles, max_res)
        assert dupes == 0
        assert all(not subs for subs in per_tile)


class TestBatchAlignment:
    def test_sub_chunks_split_on_tile_plan_boundaries(self, rng):
        """With a device, each tile's batches break exactly where the
        tile's own batch plan over the original chunk breaks."""
        from repro.device.batching import plan_batches

        canvas, tiles, max_res = _canvas_and_tiles()
        n = 4_000
        chunk = PointDataset(rng.uniform(0, 100, n), rng.uniform(0, 100, n))
        device = GPUDevice(capacity_bytes=24_000)
        fbo_bytes = [4_000] * len(tiles)
        per_tile, _ = _partition(
            chunk, canvas, tiles, max_res, device=device, fbo_bytes=fbo_bytes
        )
        rows = plan_batches(chunk, ("x", "y"), device, 4_000).rows_per_batch
        assert rows < n  # the plan really is multi-batch
        for subs in per_tile:
            assert len(subs) > 1
            for sub in subs:
                # A batch never spans a plan boundary: all its rows'
                # original indices fall in one [k*rows, (k+1)*rows) range.
                original = np.flatnonzero(
                    np.isin(chunk.xs, sub.column("x"))
                )
                assert len(original) == len(sub)
                assert len(set(original // rows)) == 1
                np.testing.assert_array_equal(
                    sub.column("x"), chunk.xs[original]
                )

    def test_host_chunks_are_trimmed_to_query_columns(self, rng):
        canvas, tiles, max_res = _canvas_and_tiles()
        chunk = PointDataset(
            rng.uniform(0, 100, 100), rng.uniform(0, 100, 100),
            {"val": rng.normal(size=100), "unused": rng.normal(size=100)},
        )
        per_tile, _ = _partition(
            chunk, canvas, tiles, max_res, columns=("x", "y", "val")
        )
        for subs in per_tile:
            for sub in subs:
                assert len(sub.column("val")) == len(sub)
                with pytest.raises(KeyError):
                    sub.column("unused")


class TestResidentInputs:
    def test_resident_chunks_stay_resident(self, rng):
        device = GPUDevice(capacity_bytes=24_000)
        canvas, tiles, max_res = _canvas_and_tiles()
        buffers, _ = device.upload_columns(
            {"x": rng.uniform(0, 100, 500), "y": rng.uniform(0, 100, 500)}
        )
        resident = ResidentPointSet(device, buffers)
        per_tile, _ = _partition(
            resident, canvas, tiles, max_res, device=device
        )
        seen = 0
        for subs in per_tile:
            # One zero-transfer batch per tile, never plan-split.
            assert len(subs) <= 1
            for sub in subs:
                assert sub.resident
                seen += len(sub)
        assert seen == 500  # every point routed once


class TestOneTileRouting:
    def test_single_tile_canvas_is_a_one_tile_routing(self, rng):
        """A single-tile canvas routes like any other — so the session
        caches its projection too — and copies no column doing it."""
        points = PointDataset(
            rng.uniform(0, 100, 1000), rng.uniform(0, 100, 1000)
        )
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(resolution=64, session=session)
        first = engine.execute(points, polygons)
        second = engine.execute(points, polygons)
        assert first.stats.extra["tiles"] == 1
        assert first.stats.extra["partition"] == "on"
        assert second.stats.extra["partition"] == "cached"
        assert second.stats.partition_s > 0.0
        np.testing.assert_array_equal(first.values, second.values)
        (state,) = session._point_cache.values()
        routing = state.value
        assert routing.order is None
        ((batch,),) = routing.per_tile(points, ("x", "y"), None, [0])
        assert np.shares_memory(batch.column("x"), points.xs)
        assert routing.nbytes < points.xs.nbytes

    @pytest.mark.parametrize("max_res", [None, 48, 24])
    def test_points_processed_counts_points(self, rng, max_res):
        """Every input point is charged once whatever the tile count —
        seam candidates a tile rejected are dropped at routing time."""
        n = 3_000
        points = PointDataset(rng.uniform(12, 88, n), rng.uniform(12, 88, n))
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])
        device = None if max_res is None else GPUDevice(max_resolution=max_res)
        result = AccurateRasterJoin(resolution=96, device=device).execute(
            points, polygons
        )
        assert result.stats.extra["tiles"] == {None: 1, 48: 4, 24: 16}[max_res]
        assert result.stats.points_processed == n


class TestEngineSwitch:
    def test_multi_tile_canvas_partitions_by_default(self, rng):
        points = PointDataset(
            rng.uniform(0, 100, 1000), rng.uniform(0, 100, 1000)
        )
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])
        engine = AccurateRasterJoin(
            resolution=96, device=GPUDevice(max_resolution=48)
        )
        result = engine.execute(points, polygons)
        assert result.stats.extra["tiles"] > 1
        assert result.stats.extra["partition"] == "on"


class TestStreamedPartition:
    def test_streamed_source_iterated_once_per_tile(self, rng):
        """Routing follows the input: a stream is scanned by every tile
        for itself — the source is invoked once per tile, nothing of it
        is routed ahead — and answers as the routed point source does."""
        points = PointDataset(
            rng.uniform(0, 100, 2_000), rng.uniform(0, 100, 2_000),
            {"val": rng.normal(size=2_000)},
        )
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])
        calls = {"n": 0}

        def chunk_source():
            calls["n"] += 1
            step = 500
            for s in range(0, len(points), step):
                yield PointDataset(
                    points.xs[s:s + step], points.ys[s:s + step],
                    {"val": points.column("val")[s:s + step]},
                )

        engine = AccurateRasterJoin(
            resolution=96, device=GPUDevice(max_resolution=48)
        )
        result = engine.execute_stream(chunk_source, polygons, Sum("val"))
        assert result.stats.extra["tiles"] == 4
        assert result.stats.extra["partition"] == "scan"
        assert calls["n"] == 4
        routed = engine.execute(points, polygons, Sum("val"))
        assert routed.stats.extra["partition"] == "on"
        # Streamed and monolithic inputs group boundary sums per batch.
        np.testing.assert_allclose(result.values, routed.values, rtol=1e-12)

    @pytest.mark.parametrize("max_res, tiles", [(64, 1), (32, 4), (16, 16)])
    def test_stream_stays_lazy(self, rng, max_res, tiles):
        """A stream is never materialised, whatever the tile count —
        nothing of it could be cached — so each tile routes each chunk
        as it arrives: while chunk k + 1 is produced only chunk k is
        still alive (the disk-resident scan's O(chunk) peak), session or
        not."""
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])
        chunks = [
            (rng.uniform(0, 100, 200), rng.uniform(0, 100, 200))
            for _ in range(8)
        ]
        refs, alive = [], []

        def chunk_source():
            for xs, ys in chunks:
                alive.append(sum(ref() is not None for ref in refs))
                chunk = PointDataset(xs, ys)
                refs.append(weakref.ref(chunk))
                yield chunk
                del chunk

        engine = AccurateRasterJoin(
            resolution=64, device=GPUDevice(max_resolution=max_res),
            session=QuerySession(store=False),
        )
        result = engine.execute_stream(chunk_source, polygons)
        assert result.stats.extra["tiles"] == tiles
        assert result.stats.extra["partition"] == "scan"
        assert len(alive) == 8 * tiles
        assert max(alive) <= 1
        assert not engine.session._point_cache
        whole = PointDataset(*map(np.concatenate, zip(*chunks)))
        np.testing.assert_array_equal(
            result.values, engine.execute(whole, polygons).values
        )

    def test_empty_chunks_still_count_as_seen(self, rng):
        """A source yielding only empty chunks must not raise 'no chunks'
        on a multi-tile canvas: every tile still sees each chunk."""
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])

        def empty_chunks():
            yield PointDataset(np.array([]), np.array([]))

        engine = AccurateRasterJoin(
            resolution=96, device=GPUDevice(max_resolution=48)
        )
        result = engine.execute_stream(empty_chunks, polygons)
        assert np.array_equal(result.values, np.zeros(1))


class TestWarmPartitionedSession:
    def test_partitioned_warm_query_bit_identical(self, rng):
        points = PointDataset(
            rng.uniform(0, 100, 3_000), rng.uniform(0, 100, 3_000),
            {"val": rng.normal(size=3_000)},
        )
        polygons = PolygonSet(
            [rectangle(5, 5, 45, 45), rectangle(55, 55, 95, 95)]
        )
        session = QuerySession()
        engine = AccurateRasterJoin(
            resolution=96, device=GPUDevice(max_resolution=48),
            session=session,
        )
        cold = engine.execute(points, polygons, aggregate=Sum("val"))
        warm = engine.execute(points, polygons, aggregate=Sum("val"))
        assert warm.stats.prepared_hits == 1
        np.testing.assert_array_equal(cold.values, warm.values)

    def test_cap_bounds_an_entry_with_its_column_copies(self, rng, monkeypatch):
        """The byte cap sees the tile-sorted column copies whichever
        statement adds them: a routing a later statement's column pushes
        over the cap goes, and one that only fits without its first
        statement's columns is never cached."""
        n = 2_000
        points = PointDataset(
            rng.uniform(0, 100, n), rng.uniform(0, 100, n),
            {"val": rng.normal(size=n)},
        )
        polygons = PolygonSet([rectangle(10, 10, 90, 90)])

        def run(session, aggregate=None):
            return AccurateRasterJoin(
                resolution=96, device=GPUDevice(max_resolution=48),
                session=session,
            ).execute(points, polygons, aggregate)

        probe = QuerySession(store=False)
        run(probe)
        with_xy = probe.partition_nbytes
        assert with_xy > probe._point_cache.popitem()[1].pinned_nbytes

        monkeypatch.setattr(QuerySession, "PARTITION_BYTE_CAP", with_xy)
        session = QuerySession(store=False)
        run(session)
        assert run(session).stats.extra["partition"] == "cached"
        assert session.partition_nbytes == with_xy
        run(session, Sum("val"))  # one more column copy: over the cap
        assert session.partition_nbytes == 0
        assert run(session).stats.extra["partition"] == "on"

        monkeypatch.setattr(QuerySession, "PARTITION_BYTE_CAP", with_xy - 1)
        session = QuerySession(store=False)
        run(session)
        assert session.partition_nbytes == 0
