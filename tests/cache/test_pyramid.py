"""Tests for the aggregate-pyramid cache (repro.cache.pyramid)."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    Count,
    Filter,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.cache.pyramid import (
    AggregatePyramid,
    channel_kinds,
    classify_cells,
    decompose_blocks,
    pyramid_levels,
)
from repro.exec.partition import route_chunk
from repro.geometry.bbox import BBox
from repro.geometry.polygon import rectangle
from repro.graphics.viewport import Viewport
from repro.index.grid import GridIndex
from tests.conftest import brute_force_counts, brute_force_sums

RES = 128
GRID = 32


@pytest.fixture
def points(rng):
    n = 8_000
    return PointDataset(
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
        {"fare": rng.integers(0, 40, n).astype(np.float64)},
    )


@pytest.fixture
def regions():
    return PolygonSet(
        [
            rectangle(5, 5, 55, 45),
            Polygon([(50, 50), (90, 55), (80, 95), (45, 80), (60, 65)]),
            # Anchors the union bbox so edited sets keep the grid frame.
            rectangle(0, 0, 100, 100),
        ]
    )


def engine(session):
    return AccurateRasterJoin(
        resolution=RES, grid_resolution=GRID, session=session
    )


class TestBlockDecomposition:
    def test_full_grid_promotes_to_root(self):
        res = 16
        cells = np.arange(res * res, dtype=np.int64)
        blocks = decompose_blocks(cells, res, pyramid_levels(res))
        assert len(blocks) == 1
        level, ids = blocks[0]
        assert level == pyramid_levels(res) - 1
        assert list(ids) == [0]

    @pytest.mark.parametrize("res", [8, 13, 32])
    def test_blocks_cover_cells_exactly_once(self, res, rng):
        cells = np.unique(
            rng.integers(0, res * res, size=res * res // 2).astype(np.int64)
        )
        blocks = decompose_blocks(cells, res, pyramid_levels(res))
        covered = []
        for level, ids in blocks:
            # Expand each block back to its level-0 cells.
            ids = np.asarray(ids)
            width = res
            for _ in range(level):
                width = (width + 1) // 2
            for flat in ids:
                cy, cx = divmod(int(flat), width)
                span = 1 << level
                for dy in range(span):
                    for dx in range(span):
                        y, x = cy * span + dy, cx * span + dx
                        if y < res and x < res:
                            covered.append(y * res + x)
        covered = np.sort(np.asarray(covered))
        # Promotion only happens when every in-range child is present,
        # so the expansion reproduces the input set with no duplicates.
        assert np.array_equal(covered, np.sort(cells))

    def test_partial_parent_stays_at_level_zero(self):
        blocks = decompose_blocks(np.asarray([0, 1, 2]), 8, pyramid_levels(8))
        assert len(blocks) == 1
        assert blocks[0][0] == 0
        assert list(blocks[0][1]) == [0, 1, 2]


class TestClassifyCells:
    def test_interior_and_pip_disjoint_and_exact(self, regions):
        grid = GridIndex(regions, resolution=GRID)
        viewport = Viewport(grid.extent, GRID, GRID)
        poly = regions[0]
        cells = GridIndex.cells_for_polygon(
            poly, grid.extent, GRID, grid.assignment
        )
        interior, pip = classify_cells(poly, cells, grid, viewport)
        assert len(np.intersect1d(interior, pip)) == 0
        # Every corner of an interior cell must be strictly inside: the
        # boundary provably misses the cell, so all of it is one side.
        for flat in interior:
            cy, cx = divmod(int(flat), GRID)
            xs = grid.extent.xmin + np.asarray([cx, cx + 1]) * grid.cell_w
            ys = grid.extent.ymin + np.asarray([cy, cy + 1]) * grid.cell_h
            cxs, cys = np.meshgrid(xs, ys)
            assert poly.contains_points(
                cxs.ravel() * 0.999999 + poly.bbox.xmin * 1e-6,
                cys.ravel() * 0.999999 + poly.bbox.ymin * 1e-6,
            ).all()


class TestAggregatePyramid:
    def test_count_channel_matches_histogram(self, points, regions):
        grid = GridIndex(regions, resolution=GRID)
        pyramid = AggregatePyramid.build(points, grid)
        pyramid.ensure_channel("count", None, points)
        level0 = pyramid.channels[("count", None)][0]
        cells = grid.cell_of_points(points.xs, points.ys)
        expect = np.bincount(cells[cells >= 0], minlength=GRID * GRID)
        assert np.array_equal(level0.ravel(), expect.astype(np.float64))
        # The root is the total in-extent population.
        assert pyramid.channels[("count", None)][-1][0, 0] == expect.sum()

    def test_gather_indices_returns_cell_population(self, points, regions):
        grid = GridIndex(regions, resolution=GRID)
        pyramid = AggregatePyramid.build(points, grid)
        cells = np.asarray([3, 100, 501], dtype=np.int64)
        idx = pyramid.gather_indices(cells)
        all_cells = grid.cell_of_points(points.xs, points.ys)
        expect = np.flatnonzero(np.isin(all_cells, cells))
        assert np.array_equal(np.sort(idx), expect)

    def test_channel_kinds_rejects_unsupported(self):
        assert channel_kinds(Count()) == {"count": ("count", None)}
        assert channel_kinds(Sum("v")) == {"sum": ("sum", "v")}
        kinds = channel_kinds(Average("v"))
        assert set(kinds.values()) == {("count", None), ("sum", "v")}


class TestEnginePyramidPath:
    def test_count_sum_bit_identical(self, points, regions):
        for aggregate, reference in [
            (Count(), brute_force_counts(points, regions)),
            (Sum("fare"), brute_force_sums(points, regions, "fare")),
        ]:
            # Asserts a tier state ("cold"), so no ambient disk tier: the
            # first iteration's pyramid must not answer the second's.
            eng = engine(QuerySession(store=False))
            cold = eng.execute(points, regions, aggregate)
            assert cold.stats.extra.get("pyramid") == "cold"
            eng.build_pyramid(points, regions)
            warm = eng.execute(points, regions, aggregate)
            assert warm.stats.extra.get("pyramid") == "hit"
            assert warm.stats.extra["pyramid_fallback_points"] < len(points)
            # Bit-identical to the exact path, and exact vs brute force
            # (integer-valued attributes: float64 additions are exact).
            assert np.array_equal(warm.values, cold.values)
            assert np.array_equal(warm.values, reference)

    def test_min_max_average_agree(self, points, regions):
        for aggregate in (Min("fare"), Max("fare"), Average("fare")):
            session = QuerySession()
            eng = engine(session)
            cold = eng.execute(points, regions, aggregate)
            eng.build_pyramid(points, regions)
            warm = eng.execute(points, regions, aggregate)
            assert warm.stats.extra.get("pyramid") == "hit"
            assert np.allclose(warm.values, cold.values, equal_nan=True)

    def test_filters_fall_back_to_exact_path(self, points, regions):
        session = QuerySession()
        eng = engine(session)
        eng.build_pyramid(points, regions)
        result = eng.execute(
            points, regions, Count(), filters=[Filter("fare", "<", 10.0)]
        )
        assert result.stats.extra.get("pyramid") != "hit"
        fare = points.column("fare")
        keep = fare < 10.0
        expect = np.asarray([
            float(np.count_nonzero(
                p.contains_points(points.xs[keep], points.ys[keep])
            ))
            for p in regions
        ])
        assert np.array_equal(result.values, expect)

    def test_mutated_points_never_replay_stale_partials(
        self, points, regions
    ):
        session = QuerySession()
        eng = engine(session)
        eng.build_pyramid(points, regions)
        assert eng.execute(points, regions, Count()).stats.extra[
            "pyramid"] == "hit"
        # In-place mutation: the content guard must reject the entry.
        points.xs[:] = (points.xs + 37.0) % 100.0
        result = eng.execute(points, regions, Count())
        assert result.stats.extra.get("pyramid") != "hit"
        assert np.array_equal(result.values, brute_force_counts(points, regions))


class TestDeltaEditsKeepPyramid:
    def test_polygon_edit_keeps_pyramid_warm(self, points, regions):
        session = QuerySession()
        eng = engine(session)
        eng.build_pyramid(points, regions)
        assert eng.execute(points, regions, Count()).stats.extra[
            "pyramid"] == "hit"
        # Edit one polygon without moving the union bbox (the anchor
        # rectangle pins the grid frame): the pyramid depends only on
        # points + frame, so the edited set still answers pyramid-warm.
        edited = PolygonSet(
            [rectangle(10, 8, 50, 42), regions[1], regions[2]],
            names=regions.names,
        )
        result = eng.execute(points, edited, Count())
        assert result.stats.extra.get("pyramid") == "hit"
        assert np.array_equal(result.values, brute_force_counts(points, edited))


class TestPyramidPersistence:
    def test_store_round_trip(self, points, regions, tmp_path):
        grid = GridIndex(regions, resolution=GRID)
        pyramid = AggregatePyramid.build(points, grid)
        pyramid.ensure_channel("count", None, points)
        pyramid.ensure_channel("min", "fare", points)
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        key = ("fp", "pyramid", GRID, "mbr", (0.0, 0.0, 1.0, 1.0))
        store.save_pyramid(key, pyramid)
        assert store.contains(key)
        back = store.load_pyramid(key)
        assert np.array_equal(back.point_order, pyramid.point_order)
        assert np.array_equal(back.cell_start, pyramid.cell_start)
        for chan, levels in pyramid.channels.items():
            for mine, theirs in zip(levels, back.channels[chan]):
                assert np.array_equal(mine, theirs, equal_nan=True)
        assert store.load_pyramid(("other",) + key[1:]) is None

    def test_corrupt_pair_loads_as_miss(self, points, regions, tmp_path):
        from repro.store import ArtifactStore

        grid = GridIndex(regions, resolution=GRID)
        pyramid = AggregatePyramid.build(points, grid)
        pyramid.ensure_channel("count", None, points)
        store = ArtifactStore(tmp_path)
        key = ("fp", "pyramid", GRID, "mbr", (0.0, 0.0, 1.0, 1.0))
        store.save_pyramid(key, pyramid)
        npz = next(tmp_path.glob("*.npz"))
        npz.write_bytes(npz.read_bytes()[:-7])
        assert store.load_pyramid(key) is None
        assert store.load_failures == 1

    def test_warm_restart_through_store(self, points, regions, tmp_path):
        first = QuerySession(store=str(tmp_path))
        eng = engine(first)
        eng.build_pyramid(points, regions)
        warm = eng.execute(points, regions, Sum("fare"))
        assert warm.stats.extra.get("pyramid") == "hit"
        first.checkpoint()
        # A fresh process: new session, same store directory.
        second = QuerySession(store=str(tmp_path))
        eng2 = engine(second)
        restarted = eng2.execute(points, regions, Sum("fare"))
        assert restarted.stats.extra.get("pyramid") == "hit"
        assert second.pyramid_store_hits == 1
        assert np.array_equal(restarted.values, warm.values)

    def test_byte_budget_evicts_lru(self, points, regions, rng):
        probe = QuerySession(store=False)
        engine(probe).build_pyramid(points, regions)
        # Room for the artifact and one and a half pyramids.
        session = QuerySession(
            store=False,
            byte_budget=probe.nbytes + probe.pyramid_nbytes * 3 // 2,
        )
        eng = engine(session)
        eng.build_pyramid(points, regions)
        other = PointDataset(
            rng.uniform(0.0, 100.0, len(points)),
            rng.uniform(0.0, 100.0, len(points)),
        )
        eng.build_pyramid(other, regions)
        # The first source's pyramid was the least recently used.
        assert not eng.pyramid_warmth(points, regions)
        assert eng.pyramid_warmth(other, regions)

    def test_partitions_and_pyramids_share_one_lru(self, points, regions):
        """Over budget the least recently used entry goes, whatever its
        kind: a pyramid that was just read outlives an older partition."""
        pyramid = AggregatePyramid.build(
            points, GridIndex(regions, resolution=GRID)
        )
        # One tile holding the whole source.
        routing = route_chunk(
            points, None, [Viewport(BBox(0.0, 0.0, 100.0, 100.0), 64, 64)], 0
        )
        probe = QuerySession(store=False)
        probe.partition_store(points, ("a",), routing)
        one_partition = probe.partition_nbytes
        session = QuerySession(
            store=False,
            byte_budget=pyramid.nbytes + one_partition * 3 // 2,
        )
        session.pyramid_register(points, ("frame",), pyramid)
        session.partition_store(points, ("a",), routing)
        assert session.pyramid_lookup(points, ("frame",)) is pyramid
        session.partition_store(points, ("b",), routing)
        assert session.partition_lookup(points, ("a",)) is None
        assert session.partition_lookup(points, ("b",)) is not None
        assert session.pyramid_warm(points, ("frame",))
        assert (session.partition_nbytes + session.pyramid_nbytes
                <= session.byte_budget)


class TestBoundaryPixelStat:
    @staticmethod
    def _union_outline_pixels(regions):
        """The true union outline population over the engine's canvas."""
        from repro.graphics.raster_line import outline_pixels
        from repro.types import ExecutionStats

        probe = engine(QuerySession())
        prepared = probe._prepare(
            regions, ExecutionStats(engine="probe", batches=0, passes=0)
        )
        total = 0
        for tile in prepared.tiles:
            mask = np.zeros((tile.height, tile.width), dtype=bool)
            for poly in regions:
                if not poly.bbox.intersects(tile.bbox):
                    continue
                ix, iy = outline_pixels(tile, poly.rings)
                mask[iy, ix] = True
            total += int(mask.sum())
        return total

    def test_boundary_pixels_counted_exactly_once(self, points, regions):
        """Regression: the stat is the union outline population — not
        double-counted by the render branch accumulating onto a value
        another branch already assigned — and identical however the
        mask was obtained (direct render, composed units, cached)."""
        expected = self._union_outline_pixels(regions)
        sessionless = AccurateRasterJoin(
            resolution=RES, grid_resolution=GRID
        ).execute(points, regions)
        assert sessionless.stats.extra["boundary_pixels"] == expected
        session = QuerySession()
        eng = engine(session)
        composed = eng.execute(points, regions)  # per-unit build + compose
        cached = eng.execute(points, regions)    # replayed boundary masks
        assert composed.stats.extra["boundary_pixels"] == expected
        assert cached.stats.extra["boundary_pixels"] == expected
