"""Integration tests for the batched rasterization pipeline.

The engines build boundary masks and coverage only through the batched
whole-set builders; the scalar per-triangle / per-polygon kernels
(``triangle_coverage_mask``, ``outline_pixels``) stay in
``repro.graphics`` as the oracle.  Every prepared artifact an engine
leaves in its session must equal, pixel for pixel, what those scalar
kernels produce — each polygon's runs expand to its scalar fragments,
sorted; the tile's run table is those runs less the boundary pixels on
the exact path — and incremental edits and the store must preserve that.
"""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    GPUDevice,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.raster_line import outline_pixels
from repro.graphics.raster_polygon import scanline_polygon_pixels
from tests.conftest import random_star_polygon, run_pixels, scalar_pixels


@pytest.fixture
def many_regions() -> PolygonSet:
    rng = np.random.default_rng(42)
    return PolygonSet(
        [
            random_star_polygon(
                rng,
                center=(rng.uniform(15, 85), rng.uniform(15, 85)),
                radius_range=(3, 12),
                vertices=int(rng.integers(4, 10)),
            )
            for _ in range(64)
        ]
    )


def _edit_one(regions: PolygonSet, pid: int = 10) -> PolygonSet:
    polys = list(regions)
    ring = polys[pid].exterior.copy()
    center = ring.mean(axis=0)
    ring[0] = ring[0] + (center - ring[0]) * 0.25
    polys[pid] = Polygon(ring, holes=polys[pid].holes)
    out = PolygonSet(polys)
    assert out.bbox == regions.bbox  # frame unchanged -> delta eligible
    return out


def scalar_boundary(tile, polygons) -> np.ndarray:
    """The tile's outline mask from the per-polygon scalar kernel."""
    mask = np.zeros((tile.height, tile.width), dtype=bool)
    for polygon in polygons:
        if polygon.bbox.intersects(tile.bbox):
            ix, iy = outline_pixels(tile, polygon.rings)
            mask[iy, ix] = True
    return mask


def scalar_coverage(tile, polygons) -> dict:
    """Per polygon, its coverage from the per-triangle scalar kernel as
    sorted flat ``iy * width + ix`` indices — every fragment, boundary
    pixels included, a pixel two triangles cover twice."""
    coverage = {}
    for pid, polygon in enumerate(polygons):
        pixels = np.zeros(0, dtype=np.int64)
        if polygon.bbox.intersects(tile.bbox):
            pixels = np.sort(scalar_pixels(tile, triangulate_polygon(polygon)))
        coverage[pid] = pixels
    return coverage


def assert_runs_equal(record, expected: dict) -> None:
    """A tile's run table holds, per polygon that owns a run, exactly
    ``expected[pid]``'s pixels, and sorts by ``lo`` through ``order``."""
    owners = [pid for pid, pixels in expected.items() if len(pixels)]
    assert record.pids.tolist() == owners
    ends = np.append(record.starts, len(record.runs))
    for pid, lo, hi in zip(owners, ends[:-1], ends[1:]):
        assert lo < hi
        assert np.array_equal(
            np.sort(run_pixels(record.runs[lo:hi])), expected[pid]
        )
    assert np.all(np.diff(record.runs[record.order, 0]) >= 0)


def assert_artifact_matches_scalar(artifact, polygons, exact: bool) -> None:
    """Every tile's composed boundary mask (``exact``: the accurate
    engine has one), every unit's runs and the tile's run table equal
    the scalar kernels' output — the table trimmed at the mask."""
    assert set(artifact.coverage) == set(range(len(artifact.tiles)))
    for idx, tile in enumerate(artifact.tiles):
        expected = scalar_coverage(tile, polygons)
        for pid, unit in enumerate(artifact.units):
            runs = unit.coverage[idx]
            assert runs.dtype == np.int64 and runs.shape[1:] == (2,)
            assert np.all(np.diff(runs[:, 0]) >= 0)
            assert np.array_equal(run_pixels(runs), expected[pid])
        if exact:
            mask = artifact.boundary_masks[idx]
            assert np.array_equal(mask, scalar_boundary(tile, polygons))
            expected = {
                pid: pixels[~mask.ravel()[pixels]]
                for pid, pixels in expected.items()
            }
        assert_runs_equal(artifact.coverage[idx], expected)


def _only_artifact(session):
    (artifact,) = session._entries.values()
    return artifact


#: (resolution, device): one single-tile canvas, one 2x2-tile canvas.
CANVASES = [(64, None), (256, 128)]


class TestScalarOracle:
    @pytest.mark.parametrize("resolution,max_fbo", CANVASES)
    def test_accurate_artifacts_match_scalar_kernels(
        self, uniform_points, many_regions, resolution, max_fbo
    ):
        device = GPUDevice(max_resolution=max_fbo) if max_fbo else None
        session = QuerySession(store=False)
        warm = AccurateRasterJoin(
            resolution=resolution, grid_resolution=64, device=device,
            session=session,
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        assert_artifact_matches_scalar(
            _only_artifact(session), many_regions, exact=True
        )
        # The session-less run builds the same pieces and reduces them
        # through the same code; nothing retained, same bits.
        cold = AccurateRasterJoin(
            resolution=resolution, grid_resolution=64, device=device
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        assert np.array_equal(warm.values, cold.values)
        # The units' runs are counted; the run tables and candidates,
        # derived from them, are not.
        artifact = _only_artifact(session)
        counted = artifact.nbytes
        artifact.coverage.clear()
        artifact.candidates.clear()
        assert artifact.nbytes == counted

    @pytest.mark.parametrize("resolution,max_fbo", CANVASES)
    def test_bounded_artifacts_match_scalar_kernels(
        self, uniform_points, many_regions, resolution, max_fbo
    ):
        device = GPUDevice(max_resolution=max_fbo) if max_fbo else None
        session = QuerySession(store=False)
        warm = BoundedRasterJoin(
            resolution=resolution, device=device, session=session
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        assert_artifact_matches_scalar(
            _only_artifact(session), many_regions, exact=False
        )
        cold = BoundedRasterJoin(
            resolution=resolution, device=device
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        assert np.array_equal(warm.values, cold.values)

    @pytest.mark.parametrize("resolution,max_fbo", CANVASES)
    def test_bounded_artifacts_match_scanline_fill(
        self, uniform_points, many_regions, resolution, max_fbo
    ):
        """The second oracle: per tile, each polygon's runs hold exactly
        the pixels the scanline fill emits."""
        device = GPUDevice(max_resolution=max_fbo) if max_fbo else None
        session = QuerySession(store=False)
        BoundedRasterJoin(
            resolution=resolution, device=device, session=session
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        artifact = _only_artifact(session)
        for idx, tile in enumerate(artifact.tiles):
            expected = []
            for pid, polygon in enumerate(many_regions):
                ix, iy = scanline_polygon_pixels(tile, polygon.rings)
                if len(ix):
                    expected.append((pid, iy * tile.width + ix))
            record = artifact.coverage[idx]
            assert record.pids.tolist() == [pid for pid, _ in expected]
            for pid, pixels in expected:
                assert np.array_equal(
                    run_pixels(artifact.units[pid].coverage[idx]),
                    np.sort(pixels),
                )


class TestIncrementalThroughBatch:
    def test_one_of_64_edit_rebuilds_one_polygon(
        self, uniform_points, many_regions
    ):
        """PR 5's per-polygon invalidation survives the batched
        builders: a single edit rebuilds exactly one polygon's slice,
        touches no grid index, and the derived artifact still equals
        the scalar kernels' output."""
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=256,
            grid_resolution=128,
            session=session,
        )
        engine.execute(uniform_points, many_regions, aggregate=Sum("fare"))
        after = _edit_one(many_regions)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        assert "grid_spliced" not in result.stats.extra
        derived = session._entries[
            (after.fingerprint,) + tuple(engine.prepared_spec())
        ]
        assert_artifact_matches_scalar(derived, after, exact=True)
        fresh = AccurateRasterJoin(
            resolution=256,
            grid_resolution=128,
        ).execute(uniform_points, after, aggregate=Sum("fare"))
        assert np.array_equal(result.values, fresh.values)

    @pytest.mark.parametrize("max_fbo", [None, 128, 64],
                             ids=["1-tile", "4-tiles", "16-tiles"])
    def test_edited_views_match_a_from_scratch_artifact(
        self, uniform_points, many_regions, max_fbo, monkeypatch
    ):
        """After a one-vertex edit every per-tile view of the derived
        artifact — mask, run table, candidates —
        equals a from-scratch build's; tiles the edit does not touch
        carry theirs by identity; no ``GridIndex`` method runs; and the
        answer is the from-scratch bits."""
        from repro.index.grid import GridIndex

        def engine(session):
            return AccurateRasterJoin(
                resolution=256, grid_resolution=256, session=session,
                device=GPUDevice(max_resolution=max_fbo) if max_fbo else None,
            )

        session = QuerySession(store=False)
        engine(session).execute(
            uniform_points, many_regions, aggregate=Sum("fare")
        )
        (base,) = session._entries.values()
        after = _edit_one(many_regions, pid=33)

        def no_grid(*args, **kwargs):
            raise AssertionError("an edit must not touch a GridIndex")

        for name in ("__init__", "from_arrays", "splice",
                     "cells_for_polygon", "default_extent"):
            monkeypatch.setattr(GridIndex, name, no_grid)
        result = engine(session).execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        monkeypatch.undo()
        assert result.stats.extra["polygons_rebuilt"] == 1
        derived = session._entries[
            (after.fingerprint,)
            + tuple(engine(None).prepared_spec())
        ]
        assert derived.grid is None
        scratch = QuerySession(store=False)
        fresh = engine(scratch).execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        (rebuilt,) = scratch._entries.values()
        assert np.array_equal(result.values, fresh.values)
        # The stroke tests only its window's pairs: the base answered
        # the same statement.
        assert "polygons_recomputed" in result.stats.extra
        assert result.stats.pip_tests < fresh.stats.pip_tests
        edited_boxes = (many_regions[33].bbox, after[33].bbox)
        carried = 0
        for idx, tile in enumerate(derived.tiles):
            assert np.array_equal(
                derived.boundary_masks[idx], rebuilt.boundary_masks[idx]
            )
            for field in ("coverage", "candidates"):
                for mine, theirs in zip(
                    getattr(derived, field)[idx], getattr(rebuilt, field)[idx]
                ):
                    assert mine.dtype == theirs.dtype
                    assert np.array_equal(mine, theirs)
            if not any(tile.bbox.intersects(box) for box in edited_boxes):
                carried += 1
                for field in ("boundary_masks", "coverage", "candidates"):
                    assert (
                        getattr(derived, field)[idx]
                        is getattr(base, field)[idx]
                    )
        assert carried or max_fbo is None


class TestStoreRoundTrip:
    def test_batched_built_units_round_trip(
        self, tmp_path, uniform_points, many_regions
    ):
        """Coverage runs built by the batched pass persist and reload
        bit-identically; the run tables are left to the first tile
        task."""
        store = ArtifactStore(tmp_path / "artifacts")
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=128,
            grid_resolution=64,
            session=session,
        )
        expected = engine.execute(
            uniform_points, many_regions, aggregate=Sum("fare")
        )
        key = next(iter(session._entries))
        artifact = session._entries[key]
        loaded = store.load(key, many_regions)
        assert loaded is not None
        assert not loaded.coverage
        for mine, theirs in zip(artifact.units, loaded.units):
            assert mine.coverage.keys() == theirs.coverage.keys()
            for idx, runs in mine.coverage.items():
                assert np.array_equal(runs, theirs.coverage[idx])
        # Warm replay from disk is bit-identical.
        other = QuerySession(store=store)
        replay = AccurateRasterJoin(
            resolution=128,
            grid_resolution=64,
            session=other,
        ).execute(uniform_points, many_regions, aggregate=Sum("fare"))
        assert replay.stats.prepared_store_hits == 1
        assert np.array_equal(replay.values, expected.values)


class TestCalibrationStat:
    def test_polygon_pass_share_measured(self, uniform_points, many_regions):
        result = AccurateRasterJoin(resolution=128).execute(
            uniform_points, many_regions, aggregate=Sum("fare")
        )
        assert 0.0 < result.stats.polygon_pass_s <= result.stats.processing_s
