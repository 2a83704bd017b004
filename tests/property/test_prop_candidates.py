"""The boundary PIP's candidates, read off the canvas, against an oracle.

A point that lands on an outline pixel is PIP-tested against that
pixel's candidate list only — the polygons with an outline pixel or a
coverage fragment there (``PreparedPolygons.compose_candidates``).  For
overlapping, nested, holed and edge-sharing sets, on canvases from one
pixel up and 1 / 4 / 16 tiles, with points on vertices, on horizontal
edges and on tile seams:

(a) every brute-force containing (point, polygon) pair whose point sits
    on a boundary pixel is among that pixel's candidates;
(b) no (pixel, polygon) pair is listed twice — it would aggregate twice;
(c) per pixel the polygon ids ascend, and the listed pixels are exactly
    the boundary mask's;
(d) the answers equal the oracle: Count / Min / Max exactly, float
    Sum / Avg inside 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    Count,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.data import generate_voronoi_regions
from repro.geometry.bbox import BBox
from repro.geometry.polygon import rectangle
from tests.conftest import brute_force_values, random_star_polygon

FLOAT_RTOL = 1e-9


def _polygon_set(seed: int) -> PolygonSet:
    """Overlapping stars, one nested in another, a holed square with an
    island in its hole, rectangles sharing whole edges, and a Voronoi
    partition (every edge shared) laid over all of it."""
    rng = np.random.default_rng(seed)
    center = (rng.uniform(35, 65), rng.uniform(35, 65))
    polygons = [
        random_star_polygon(rng, center=center, radius_range=(20, 30)),
        random_star_polygon(rng, center=center, radius_range=(4, 12)),
        random_star_polygon(
            rng, center=(center[0] + 15, center[1] - 10),
            radius_range=(8, 25), vertices=7,
        ),
        Polygon(
            [(10, 10), (50, 10), (50, 50), (10, 50)],
            holes=[[(20, 20), (40, 20), (40, 40), (20, 40)]],
        ),
        rectangle(25, 25, 35, 35),
        rectangle(60, 60, 75, 80), rectangle(75, 60, 90, 80),
        rectangle(60, 80, 90, 95),
    ]
    polygons.extend(
        generate_voronoi_regions(5, BBox(0.0, 0.0, 100.0, 100.0), seed=seed)
    )
    return PolygonSet(polygons)


def _points(polygons: PolygonSet, tiles, rng) -> PointDataset:
    xs, ys = [rng.uniform(-2, 102, 600)], [rng.uniform(-2, 102, 600)]
    for polygon in polygons:
        for ring in polygon.rings:
            nxt = np.roll(ring, -1, axis=0)
            flat = ring[:, 1] == nxt[:, 1]
            xs += [ring[:, 0], (ring[flat, 0] + nxt[flat, 0]) / 2]
            ys += [ring[:, 1], ring[flat, 1]]
    for tile in tiles:  # on the seams, and a hair either side
        box = tile.bbox
        for seam in (box.xmin, box.xmax):
            line = np.full(8, seam)
            xs += [line, np.nextafter(line, np.inf), np.nextafter(line, -np.inf)]
            ys += [rng.uniform(box.ymin, box.ymax, 8)] * 3
        for seam in (box.ymin, box.ymax):
            line = np.full(8, seam)
            xs += [rng.uniform(box.xmin, box.xmax, 8)] * 3
            ys += [line, np.nextafter(line, np.inf), np.nextafter(line, -np.inf)]
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    return PointDataset(xs, ys, {"v": rng.normal(10.0, 5.0, len(xs))})


@pytest.mark.parametrize("per_side", [1, 2, 4], ids=["1-tile", "4", "16"])
@pytest.mark.parametrize("resolution", [1, 16, 64, 97, 256])
@given(st.integers(0, 2**31 - 1))
@settings(max_examples=4, deadline=None)
def test_candidates_cover_every_containing_pair(resolution, per_side, seed):
    polygons = _polygon_set(seed)
    session = QuerySession(store=False)
    engine = AccurateRasterJoin(
        resolution=resolution, session=session,
        device=GPUDevice(max_resolution=-(-resolution // per_side)),
    )
    canvas = engine._make_canvas(polygons)
    points = _points(
        polygons, list(canvas.tiles(engine.max_resolution)),
        np.random.default_rng(seed),
    )
    results = {
        name: engine.execute(points, polygons, aggregate)
        for name, aggregate in (
            ("count", Count()), ("sum", Sum("v")), ("avg", Average("v")),
            ("min", Min("v")), ("max", Max("v")),
        )
    }
    (artifact,) = session._entries.values()
    assert artifact.grid is None
    num = len(polygons)
    contains = [p.contains_points(points.xs, points.ys) for p in polygons]
    for idx, tile in enumerate(artifact.tiles):
        pixels, starts, pids = artifact.views[idx].candidates
        mask = artifact.views[idx].boundary.reshape(-1)
        assert np.array_equal(pixels, np.flatnonzero(mask))  # (c)
        counts = np.diff(starts)
        assert starts[0] == 0 and starts[-1] == len(pids)
        assert counts.min(initial=1) >= 1
        pairs = np.repeat(pixels, counts) * num + pids
        assert np.all(np.diff(pairs) > 0)  # (b) and (c): strictly sorted
        ix, iy, inside = tile.pixel_of(points.xs, points.ys)
        pix = np.where(inside, iy * tile.width + ix, 0)
        on_boundary = inside & mask[pix]
        for pid in range(num):  # (a)
            rows = np.flatnonzero(on_boundary & contains[pid])
            assert np.isin(pix[rows] * num + pid, pairs).all()
    for name, result in results.items():  # (d)
        want = brute_force_values(
            points, polygons, name, None if name == "count" else "v"
        )
        if name in ("sum", "avg"):
            assert np.allclose(
                result.values, want, rtol=FLOAT_RTOL, atol=0.0, equal_nan=True
            )
        else:
            assert np.array_equal(result.values, want, equal_nan=True)
