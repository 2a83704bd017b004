"""Hypothesis property tests for the rasterization pipeline.

These pin down the invariants the raster join's correctness rests on:
watertight triangle partitioning, scanline/triangle agreement, conservative
coverage being a superset, and outline pixels covering every coverage
error.  Every test runs on both raster kernels: the compiled triangle
scan and outline supercover, and the numpy passes that run where no
compiler is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BBox
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.conservative import (
    conservative_overlaps,
    conservative_polygon_pixels,
)
from repro.graphics.raster_batch import coverage_by_polygon
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.raster_polygon import scanline_polygon_pixels
from repro.graphics.viewport import Viewport
from tests.conftest import run_pixels
from tests.graphics.reference_raster import (
    conservative_triangle_pixels,
    covered_pixels,
    supercover_line,
)
from tests.property.test_prop_geometry import star_polygons

pytestmark = pytest.mark.usefixtures("raster_kernels")

VP = Viewport(BBox(0, 0, 100, 100), 100, 100)


def tri_cover_set(viewport, tri):
    xs, ys = covered_pixels(viewport, tri)
    return set(zip(xs.tolist(), ys.tolist()))


@given(star_polygons())
@settings(max_examples=60, deadline=None)
def test_triangulation_rasterizes_without_overlap(poly):
    """No pixel is claimed by two triangles of one polygon's partition."""
    seen: set = set()
    for tri in triangulate_polygon(poly):
        pix = tri_cover_set(VP, tri)
        assert not (seen & pix)
        seen |= pix


@given(star_polygons())
@settings(max_examples=60, deadline=None)
def test_scanline_equals_triangle_union(poly):
    union: set = set()
    for tri in triangulate_polygon(poly):
        union |= tri_cover_set(VP, tri)
    xs, ys = scanline_polygon_pixels(VP, poly.rings)
    assert set(zip(xs.tolist(), ys.tolist())) == union


@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_conservative_superset_of_regular(poly):
    for tri in triangulate_polygon(poly):
        regular = tri_cover_set(VP, tri)
        x0, y0, mask = conservative_triangle_pixels(VP, tri)
        if mask.size == 0:
            conservative = set()
        else:
            ys_, xs_ = np.nonzero(mask)
            conservative = set(zip((xs_ + x0).tolist(), (ys_ + y0).tolist()))
        assert regular <= conservative


#: Vertices on the half-pixel lattice put edges exactly on pixel sides
#: and corners; free floats cover the general position.
pixel_coordinate = st.one_of(
    st.integers(-4, 44).map(lambda k: k * 0.5),
    st.floats(-2.0, 22.0, allow_nan=False),
)


@given(
    st.lists(pixel_coordinate, min_size=6, max_size=6),
    st.integers(1, 3),
    st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_batched_overlap_equals_the_conservative_raster(xy, scale, shift):
    """The pairwise closed test marks exactly the conservative
    raster's pixels, on any viewport — the §5 false-negative rule."""
    tri = np.asarray(xy, dtype=np.float64).reshape(3, 2)
    viewport = Viewport(
        BBox(-shift, -shift, 20.0 * scale - shift, 16.0 * scale - shift),
        20, 16,
    )
    want = np.zeros((16, 20), dtype=bool)
    x0, y0, mask = conservative_triangle_pixels(viewport, tri)
    want[y0:y0 + mask.shape[0], x0:x0 + mask.shape[1]] = mask
    iy, ix = np.mgrid[0:16, 0:20]
    got = conservative_overlaps(
        viewport, tri[None], np.zeros(ix.size, dtype=np.int64),
        ix.ravel(), iy.ravel(),
    )
    assert np.array_equal(got.reshape(16, 20), want)


@given(star_polygons(), st.integers(6, 120))
@settings(max_examples=60, deadline=None)
def test_polygon_pass_equals_the_union_of_triangle_masks(poly, side):
    """The grid index's exact cells: small candidate blocks tested pair
    by pair, large ones broadcast, the union of the one-triangle masks
    either way, ascending by ``(ix, iy)``."""
    viewport = Viewport(BBox(0, 0, 100, 100), side, side)
    tris = triangulate_polygon(poly)
    want: set = set()
    for tri in tris:
        x0, y0, mask = conservative_triangle_pixels(viewport, tri)
        ys_, xs_ = np.nonzero(mask)
        want |= set(zip((xs_ + x0).tolist(), (ys_ + y0).tolist()))
    xs, ys = conservative_polygon_pixels(viewport, tris)
    assert list(zip(xs.tolist(), ys.tolist())) == sorted(want)


@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_outline_covers_all_coverage_errors(poly):
    """Coverage-vs-PIP mismatches happen only on outline pixels — the
    exactness precondition of the accurate raster join."""
    runs = coverage_by_polygon(VP, {0: triangulate_polygon(poly)})[0]
    covered = np.zeros(100 * 100, dtype=bool)
    covered[run_pixels(runs)] = True
    covered = covered.reshape(100, 100)
    ox, oy = outline_pixels_many(VP, {0: poly.rings})[0]
    boundary = np.zeros((100, 100), dtype=bool)
    boundary[oy, ox] = True
    cx, cy = np.meshgrid(np.arange(100) + 0.5, np.arange(100) + 0.5)
    inside = poly.contains_points(cx.ravel(), cy.ravel()).reshape(100, 100)
    mismatch = covered != inside
    assert not np.any(mismatch & ~boundary)


@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_supercover_contains_endpoints_and_is_connected(ax, ay, bx, by):
    xs, ys = supercover_line(ax, ay, bx, by, 100, 100)
    got = set(zip(xs.tolist(), ys.tolist()))
    # Endpoint pixels (clamped into the grid) are always covered.
    for x, y in ((ax, ay), (bx, by)):
        ix = min(int(np.floor(x)), 99)
        iy = min(int(np.floor(y)), 99)
        assert (ix, iy) in got
    # 8-connectivity: a supercover path has no gaps.
    if len(got) > 1:
        remaining = set(got)
        stack = [next(iter(got))]
        remaining.discard(stack[0])
        while stack:
            cx_, cy_ = stack.pop()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (cx_ + dx, cy_ + dy)
                    if nb in remaining:
                        remaining.discard(nb)
                        stack.append(nb)
        assert not remaining, "supercover pixels are disconnected"


@given(star_polygons(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_tiled_coverage_equals_global(poly, nx, ny):
    """Rendering per tile visits exactly the global covered pixel set."""
    from repro.graphics.viewport import Canvas

    canvas = Canvas(BBox(0, 0, 100, 100), 100, 100)
    max_res = max(100 // max(nx, ny), 1)
    global_set: set = set()
    for tri in triangulate_polygon(poly):
        xs, ys = covered_pixels(VP, tri)
        global_set |= set(zip(xs.tolist(), ys.tolist()))
    tiled: set = set()
    for tile in canvas.tiles(max_resolution=max_res):
        for tri in triangulate_polygon(poly):
            xs, ys = covered_pixels(tile, tri)
            tiled |= set(
                zip((xs + tile.x_offset).tolist(), (ys + tile.y_offset).tolist())
            )
    assert tiled == global_set


# ----------------------------------------------------------------------
# Batched rasterizer: bit-equality with the scalar reference on
# adversarial inputs — shared interior edges, E == 0 pixel centers,
# degenerate triangles, tile seams.


def _batched_per_triangle(viewport, tris):
    from repro.graphics.raster_batch import rasterize_triangles

    if not len(tris):
        return []
    frags = rasterize_triangles(viewport, np.stack(tris))
    assert len(frags.pixels) == frags.row_len.sum() == frags.counts.sum()
    return [
        (pixels % viewport.width, pixels // viewport.width)
        for pixels in np.split(frags.pixels, np.cumsum(frags.counts)[:-1])
    ]


@given(star_polygons())
@settings(max_examples=60, deadline=None)
def test_batched_equals_scalar_on_shared_edges(poly):
    """A triangulated polygon is all shared interior edges — the batched
    pass must land every fragment exactly where the scalar loop does, in
    the same order (watertightness depends on it)."""
    tris = triangulate_polygon(poly)
    for (bx, by), tri in zip(_batched_per_triangle(VP, tris), tris):
        xs, ys = covered_pixels(VP, tri)
        assert np.array_equal(bx, xs)
        assert np.array_equal(by, ys)


@given(
    st.integers(0, 20), st.integers(0, 20),
    st.integers(0, 20), st.integers(0, 20),
    st.integers(0, 20), st.integers(0, 20),
)
@settings(max_examples=150, deadline=None)
def test_batched_fill_rule_ties_on_lattice(ax, ay, bx, by, cx, cy):
    """Integer+half vertices put pixel centers exactly on edges
    (E == 0): the top-left fill-rule tie-break must agree bit-for-bit,
    including for degenerate (collinear/point) triangles."""
    tri = np.array(
        [(ax + 0.5, ay + 0.5), (bx + 0.5, by + 0.5), (cx + 0.5, cy + 0.5)]
    )
    vp = Viewport(BBox(0, 0, 25, 25), 25, 25)
    [(gx, gy)] = _batched_per_triangle(vp, [tri])
    xs, ys = covered_pixels(vp, tri)
    assert np.array_equal(gx, xs)
    assert np.array_equal(gy, ys)


@given(star_polygons(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_batched_equals_scalar_across_tile_seams(poly, nx, ny):
    """Per-tile viewports clip triangle bboxes at seams; the batched
    clip must match the scalar clip on every tile."""
    from repro.graphics.viewport import Canvas

    canvas = Canvas(BBox(0, 0, 100, 100), 100, 100)
    max_res = max(100 // max(nx, ny), 1)
    tris = triangulate_polygon(poly)
    for tile in canvas.tiles(max_resolution=max_res):
        for (gx, gy), tri in zip(_batched_per_triangle(tile, tris), tris):
            xs, ys = covered_pixels(tile, tri)
            assert np.array_equal(gx, xs)
            assert np.array_equal(gy, ys)


@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_vectorized_outline_equals_per_edge_supercover(poly):
    """outline_pixels_many, on either kernel, is the unique union of the
    scalar per-edge supercover — same pixels, same sorted order."""
    ox, oy = outline_pixels_many(VP, {0: poly.rings})[0]
    cols, rows = [], []
    for ring in poly.rings:
        sx, sy = VP.to_screen(ring[:, 0], ring[:, 1])
        n = len(ring)
        for i in range(n):
            j = (i + 1) % n
            c, r = supercover_line(
                float(sx[i]), float(sy[i]), float(sx[j]), float(sy[j]),
                VP.width, VP.height,
            )
            cols.append(c)
            rows.append(r)
    flat = np.unique(np.concatenate(cols) * VP.height + np.concatenate(rows))
    assert np.array_equal(ox, flat // VP.height)
    assert np.array_equal(oy, flat % VP.height)


@given(star_polygons(), star_polygons(center=(30.0, 60.0), max_radius=25.0))
@settings(max_examples=30, deadline=None)
def test_batched_multi_polygon_scatter(poly_a, poly_b):
    """coverage_by_polygon routes each covered row back to its owning
    polygon id even when polygons overlap: the runs expand to the
    scalar fragments of that polygon's triangles, sorted."""
    from tests.conftest import scalar_pixels

    tris = {0: triangulate_polygon(poly_a), 1: triangulate_polygon(poly_b)}
    coverage = coverage_by_polygon(VP, tris)
    for pid in (0, 1):
        assert np.array_equal(
            run_pixels(coverage[pid]), np.sort(scalar_pixels(VP, tris[pid]))
        )
