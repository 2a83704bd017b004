"""Coverage runs against the scalar raster, polygon by polygon and tile
by tile.

Coverage is held as ``[lo, hi)`` flat pixel runs: per polygon the
covered rows merged where they abut (``coverage_by_polygon``), per tile
those runs split at the boundary-mask pixels
(``PreparedPolygons.compose_coverage``).  For overlapping, nested,
holed and edge-sharing sets — a canvas-wide rectangle among them, so
runs end on a tile's last pixel — on canvases of 1, 16, 97 and 256
pixels a side and 1 / 4 / 16 tiles:

(a) a polygon's runs expand to exactly the sorted multiset of the scalar
    ``covered_pixels`` fragments of its triangles;
(b) per tile, the trimmed runs and the ``(boundary pixel, polygon)``
    pairs the trim cut out partition that multiset: no trimmed run
    touches a boundary pixel, every cut pixel is one;
(c) the polygon pass's kernel (``Aggregate.reduce_segments`` over the
    runs sorted by ``lo``, then per polygon) equals a direct reduction
    of each polygon's trimmed pixels — exactly for Min / Max and integer
    sums, to 1e-12 for float sums;
(d) the raster's own fragment count is unchanged: ``len(frags.ix)`` is
    the scalar count (the ledger's ``graphics.fragments``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AccurateRasterJoin, GPUDevice, Max, Min, QuerySession, Sum
from repro.geometry.polygon import PolygonSet, rectangle
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.raster_batch import flatten_triangles, rasterize_triangles
from tests.conftest import run_pixels, scalar_pixels
from tests.property.test_prop_candidates import _points, _polygon_set


def _sets(seed: int) -> PolygonSet:
    return PolygonSet([*_polygon_set(seed), rectangle(-5, -5, 105, 105)])


def _per_polygon(record):
    ends = np.append(record.starts, len(record.runs))
    return {
        int(pid): record.runs[lo:hi]
        for pid, lo, hi in zip(record.pids, ends[:-1], ends[1:])
    }


@pytest.mark.parametrize("per_side", [1, 2, 4], ids=["1-tile", "4", "16"])
@pytest.mark.parametrize("resolution", [1, 16, 97, 256])
@given(st.integers(0, 2**31 - 1))
@settings(max_examples=3, deadline=None)
def test_runs_partition_the_scalar_fragments(resolution, per_side, seed):
    polygons = _sets(seed)
    session = QuerySession(store=False)
    engine = AccurateRasterJoin(
        resolution=resolution, session=session,
        device=GPUDevice(max_resolution=-(-resolution // per_side)),
    )
    rng = np.random.default_rng(seed)
    canvas = engine._make_canvas(polygons)
    points = _points(polygons, list(canvas.tiles(engine.max_resolution)), rng)
    engine.execute(points, polygons)
    (artifact,) = session._entries.values()
    for idx, tile in enumerate(artifact.tiles):
        boundary = np.flatnonzero(artifact.boundary_masks[idx])
        runs = {pid: unit.coverage[idx] for pid, unit in enumerate(artifact.units)}
        record, (cut, cut_owner) = artifact.compose_coverage(runs, boundary)
        for mine, theirs in zip(record, artifact.coverage[idx]):
            assert np.array_equal(mine, theirs)
        trimmed = _per_polygon(record)
        assert np.all(np.diff(record.starts) > 0)
        assert np.all(np.diff(record.runs[record.order, 0]) >= 0)
        for pid, triangles in enumerate(artifact.triangles):
            want = np.sort(scalar_pixels(tile, triangles))
            assert np.array_equal(run_pixels(runs[pid]), want)  # (a)
            kept = run_pixels(trimmed.get(pid, np.zeros((0, 2))))
            assert not np.isin(kept, boundary).any()  # (b)
            assert np.isin(cut[cut_owner == pid], boundary).all()
            assert np.array_equal(
                np.sort(np.concatenate([kept, cut[cut_owner == pid]])), want
            )
            assert (pid in trimmed) == bool(len(kept))

        # (c) the polygon pass's kernel, on a random channel.
        channel = rng.integers(-50, 50, tile.num_pixels).astype(np.float64)
        channel[rng.random(tile.num_pixels) < 0.1] = -0.5
        if not len(record.pids):
            continue
        lo, hi = record.runs[record.order].T
        for aggregate, direct in ((Sum("v"), np.sum), (Min("v"), np.min),
                                  (Max("v"), np.max)):
            by_lo = aggregate.reduce_segments(channel, lo, hi)
            per_run = np.empty_like(by_lo)
            per_run[record.order] = by_lo
            got = aggregate.reduce_segments(per_run, record.starts)
            want = [direct(channel[run_pixels(trimmed[int(pid)])])
                    for pid in record.pids]
            assert np.array_equal(got, want)
        floats = rng.normal(0.0, 1e3, tile.num_pixels)
        by_lo = Sum("v").reduce_segments(floats, lo, hi)
        per_run = np.empty_like(by_lo)
        per_run[record.order] = by_lo
        assert np.allclose(
            Sum("v").reduce_segments(per_run, record.starts),
            [floats[run_pixels(trimmed[int(pid)])].sum() for pid in record.pids],
            rtol=1e-12, atol=1e-9,
        )


@pytest.mark.parametrize("resolution", [1, 16, 97, 256])
def test_the_raster_still_counts_every_fragment(resolution):
    polygons = _sets(3)
    view = AccurateRasterJoin(resolution=resolution)._make_canvas(
        polygons
    ).full_viewport()
    triangles = {pid: triangulate_polygon(p) for pid, p in enumerate(polygons)}
    frags = rasterize_triangles(view, flatten_triangles(triangles).verts)
    scalar = sum(len(scalar_pixels(view, tris)) for tris in triangles.values())
    assert len(frags.ix) == len(frags.pixels) == scalar  # (d)
    assert int(frags.row_len.sum()) == int(frags.counts.sum()) == scalar
