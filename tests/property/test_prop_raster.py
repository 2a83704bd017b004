"""Hypothesis property tests for the rasterization pipeline.

These pin down the invariants the raster join's correctness rests on:
watertight triangle partitioning, scanline/triangle agreement, conservative
coverage being a superset, the grid index's exact cells (outline plus
coverage) being the conservative raster, and outline pixels covering
every coverage error.  Every test runs on both raster kernels: the compiled triangle
scan and outline supercover, and the numpy passes that run where no
compiler is.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidPolygonError
from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.conservative import conservative_overlaps
from repro.graphics.raster_batch import coverage_by_polygon
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Viewport
from repro.index.grid import GridIndex
from tests.conftest import run_pixels
from tests.graphics.reference_raster import (
    conservative_triangle_pixels,
    covered_pixels,
    scanline_polygon_pixels,
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


@st.composite
def lattice_rings(draw, side):
    """Simple rings with integer vertices inside ``[0, side]²``: on a
    ``side``-cell grid over that square every edge runs along or across
    cell lines and every vertex sits on a cell corner."""
    n = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(1.0, side / 2.0, n)
    ring = np.rint(side / 2.0 + radii[:, None] * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    ))
    ring = ring[np.any(ring != np.roll(ring, 1, axis=0), axis=1)]
    assume(len(ring) >= 3)
    # No spike: consecutive edges never fold back along one line.
    d_in = ring - np.roll(ring, 1, axis=0)
    d_out = np.roll(ring, -1, axis=0) - ring
    cross = d_in[:, 0] * d_out[:, 1] - d_in[:, 1] * d_out[:, 0]
    assume(not np.any((cross == 0) & (np.sum(d_in * d_out, axis=1) < 0)))
    try:
        poly = Polygon(ring)
    except InvalidPolygonError:
        assume(False)
    assume(poly.is_simple())
    return poly


def _lattice_case(side):
    """``(polygons, resolution, extent)``: one cell per unit, over the
    whole ``side``-square or over a smaller square that cuts the set."""
    return st.tuples(
        st.lists(lattice_rings(side), min_size=1, max_size=3),
        st.one_of(
            st.just((side, BBox(0, 0, side, side))),
            st.integers(2, side // 2).map(
                lambda k: (k, BBox(3, 2, 3 + k, 2 + k))),
        ),
    ).map(lambda case: (case[0], *case[1]))


_float_case = st.tuples(
    st.lists(star_polygons(), min_size=1, max_size=3),
    st.integers(6, 120),
    st.sampled_from([BBox(0, 0, 100, 100), BBox(37.5, 20.25, 61.0, 48.0)]),
)


def _gap_to_rings(viewport, poly, cells, r):
    """Per cell, the distance in pixels from its closed square to the
    polygon's rings, for squares the rings do not meet: two disjoint
    convex sets are nearest at a vertex of one of them, so it is the
    least of each square corner's distance to each edge and each ring
    vertex's distance to the square."""
    iy, ix = np.divmod(np.asarray(sorted(cells), dtype=np.float64), r)
    gap = np.full(len(ix), np.inf)
    for ring in poly.rings:
        sx, sy = viewport.to_screen(ring[:, 0], ring[:, 1])
        for ax, ay, bx, by in zip(sx, sy, np.roll(sx, -1), np.roll(sy, -1)):
            dx, dy = bx - ax, by - ay
            for cx, cy in ((ix, iy), (ix + 1, iy), (ix, iy + 1),
                           (ix + 1, iy + 1)):
                t = np.clip(((cx - ax) * dx + (cy - ay) * dy)
                            / max(dx * dx + dy * dy, 1e-300), 0.0, 1.0)
                gap = np.minimum(
                    gap, np.hypot(ax + t * dx - cx, ay + t * dy - cy)
                )
            gap = np.minimum(gap, np.hypot(
                np.maximum(0.0, np.maximum(ix - ax, ax - ix - 1)),
                np.maximum(0.0, np.maximum(iy - ay, ay - iy - 1)),
            ))
    return gap


@given(st.one_of(_float_case, _lattice_case(16), _lattice_case(37)))
@settings(max_examples=120, deadline=None)
def test_exact_grid_cells_equal_the_union_of_triangle_masks(case):
    """``GridIndex(..., "exact")``: each polygon's cells (its outline
    plus its covered cells), once each, are the union of its triangles'
    closed conservative masks on the grid — on free-float stars, on
    rings whose edges lie on cell lines, and under an extent that cuts
    the set.  Up to the outline's float margin: a cell whose square the
    ring misses by less than the supercover's ``eps`` (1e-9 of the
    largest coordinate, in pixels) is a cell too, so the cells may hold
    such a square on top, never miss one."""
    polys, r, extent = case
    grid = GridIndex(polys, resolution=r, assignment="exact", extent=extent)
    viewport = Viewport(extent, r, r)
    cell = np.repeat(np.arange(r * r), np.diff(grid.cell_start))
    for pid, poly in enumerate(polys):
        want: set = set()
        for tri in triangulate_polygon(poly):
            x0, y0, mask = conservative_triangle_pixels(viewport, tri)
            ys_, xs_ = np.nonzero(mask)
            want |= set(((ys_ + y0) * r + xs_ + x0).tolist())
        got = cell[grid.entries == pid]
        assert len(np.unique(got)) == len(got)
        assert want <= set(got.tolist())
        sx, sy = viewport.to_screen(poly.exterior[:, 0], poly.exterior[:, 1])
        eps = 1e-9 * max(1.0, np.abs(sx).max(), np.abs(sy).max())
        extra = set(got.tolist()) - want
        assert (_gap_to_rings(viewport, poly, extra, r) <= 2 * eps).all()


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
