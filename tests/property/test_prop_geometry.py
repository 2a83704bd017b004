"""Hypothesis property tests for the geometry substrate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BBox
from repro.geometry.clip import (
    clip_polygon_to_rect,
    pixel_coverage_fraction,
    ring_area,
)
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import orientation, point_in_ring, points_in_ring
from repro.geometry.triangulate import triangulate_polygon
from tests.geometry.reference_clip import scalar_clip_polygon_to_rect


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def star_polygons(draw, center=(50.0, 50.0), max_radius=40.0):
    """Random simple polygons: star-shaped with bounded angle gaps."""
    n = draw(st.integers(min_value=4, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    for _ in range(50):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.max() < 0.9 * np.pi:
            break
    else:
        assume(False)
    radii = rng.uniform(0.1 * max_radius, max_radius, n)
    ring = np.column_stack(
        [center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)]
    )
    return Polygon(ring)


coords = st.floats(
    min_value=-100.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Triangulation properties
# ----------------------------------------------------------------------
@given(star_polygons())
@settings(max_examples=60, deadline=None)
def test_triangulation_preserves_area(poly):
    tris = triangulate_polygon(poly)
    total = sum(abs(orientation(t)) for t in tris)
    assert abs(total - poly.area) <= 1e-7 * max(poly.area, 1.0)


@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_triangulation_interior_points_covered(poly):
    """Any point inside the polygon lies in >= 1 triangle; outside in none
    (sampled via the polygon's own PIP as the oracle)."""
    from repro.geometry.predicates import point_in_triangle

    tris = triangulate_polygon(poly)
    rng = np.random.default_rng(0)
    box = poly.bbox
    xs = rng.uniform(box.xmin, box.xmax, 64)
    ys = rng.uniform(box.ymin, box.ymax, 64)
    for x, y in zip(xs, ys):
        if poly.on_boundary(x, y, tol=1e-9):
            continue
        covered = sum(
            point_in_triangle(x, y, *t[0], *t[1], *t[2]) for t in tris
        )
        if poly.contains(x, y):
            assert covered >= 1
        else:
            assert covered == 0


# ----------------------------------------------------------------------
# PIP properties
# ----------------------------------------------------------------------
@given(star_polygons(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_vectorized_pip_matches_scalar(poly, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 100, 128)
    ys = rng.uniform(0, 100, 128)
    vec = points_in_ring(xs, ys, poly.exterior)
    scalar = np.asarray(
        [point_in_ring(x, y, poly.exterior) for x, y in zip(xs, ys)]
    )
    assert np.array_equal(vec, scalar)


@given(star_polygons())
@settings(max_examples=30, deadline=None)
def test_pip_translation_invariant(poly):
    ring = poly.exterior + np.asarray([1000.0, -500.0])
    shifted = Polygon(ring)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 100, 64)
    ys = rng.uniform(0, 100, 64)
    a = poly.contains_points(xs, ys)
    b = shifted.contains_points(xs + 1000.0, ys - 500.0)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Clipping properties
# ----------------------------------------------------------------------
@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_clip_area_never_exceeds_originals(poly):
    rect = BBox(20, 20, 80, 80)
    clipped = clip_polygon_to_rect(poly.exterior, rect)
    area = abs(ring_area(clipped)) if len(clipped) >= 3 else 0.0
    assert area <= poly.area + 1e-7
    assert area <= rect.area + 1e-7


#: Rectangle sides on the half-unit lattice meet ring vertices and
#: edges exactly; free floats cover the general position.
rect_coordinate = st.one_of(
    st.integers(0, 200).map(lambda k: k * 0.5),
    st.floats(0.0, 100.0, allow_nan=False),
)


@given(star_polygons(), rect_coordinate, rect_coordinate,
       rect_coordinate, rect_coordinate, st.booleans())
@settings(max_examples=200, deadline=None)
def test_clip_equals_the_scalar_loop(poly, a, b, c, d, snap):
    """The vectorized passes on one ring return the vertex-by-vertex
    loop's vertices, bit for bit."""
    ring = np.round(poly.exterior) if snap else poly.exterior
    rect = BBox(min(a, c), min(b, d), max(a, c), max(b, d))
    got = clip_polygon_to_rect(ring, rect)
    want = scalar_clip_polygon_to_rect(ring, rect)
    assert got.shape == want.shape and np.array_equal(got, want)


@given(star_polygons(), st.integers(0, 90), st.integers(0, 90))
@settings(max_examples=60, deadline=None)
def test_coverage_fraction_in_unit_interval(poly, i, j):
    tris = triangulate_polygon(poly)
    frac = pixel_coverage_fraction(
        tris, [(i, j, i + 10, j + 10)], _every_pair(1, tris)
    )[0]
    assert 0.0 <= frac <= 1.0


def _every_pair(rects: int, tris) -> tuple:
    """``(rect, triangle)`` index arrays pairing each rectangle with
    every triangle, rectangle-major."""
    return tuple(np.indices((rects, len(tris))).reshape(2, -1))


# ----------------------------------------------------------------------
# The coverage fraction's bounding-box pre-filter
# ----------------------------------------------------------------------
#: Half-unit lattice coordinates put vertices and edges exactly on the
#: pixel's sides often; free floats cover the general position.
lattice = st.integers(-4, 12).map(lambda k: k * 0.5)
coordinate = st.one_of(lattice, st.floats(-2.0, 6.0, allow_nan=False))


@st.composite
def triangles_and_pixel(draw):
    xmin, ymin = draw(lattice), draw(lattice)
    width, height = draw(lattice.filter(lambda v: v > 0)), draw(
        lattice.filter(lambda v: v > 0)
    )
    rect = BBox(xmin, ymin, xmin + width, ymin + height)
    n = draw(st.integers(0, 12))
    tris = np.asarray(
        draw(st.lists(coordinate, min_size=6 * n, max_size=6 * n)),
        dtype=np.float64,
    ).reshape(n, 3, 2)
    # Slide some triangles onto the pixel's sides: their bounding box
    # touches the pixel without crossing it.
    for k in range(n):
        side = draw(st.sampled_from(["left", "right", "below", "above", None]))
        if side == "left":
            tris[k, :, 0] += rect.xmin - tris[k, :, 0].max()
        elif side == "right":
            tris[k, :, 0] += rect.xmax - tris[k, :, 0].min()
        elif side == "below":
            tris[k, :, 1] += rect.ymin - tris[k, :, 1].max()
        elif side == "above":
            tris[k, :, 1] += rect.ymax - tris[k, :, 1].min()
    return tris, rect


def _fraction_over_every_triangle(tris, rect):
    covered = 0.0
    for tri in tris:
        clipped = scalar_clip_polygon_to_rect(tri, rect)
        if len(clipped) >= 3:
            covered += abs(ring_area(clipped))
    return min(max(covered / rect.area, 0.0), 1.0)


@given(triangles_and_pixel())
@settings(max_examples=300, deadline=None)
def test_prefilter_keeps_the_fraction_bits(case):
    """Skipping the triangles whose bounding box misses the pixel changes
    no bit: a skipped triangle clips to nothing, a touching one is kept."""
    tris, rect = case
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    (meeting,) = np.nonzero(
        (hi[:, 0] >= rect.xmin) & (lo[:, 0] <= rect.xmax)
        & (hi[:, 1] >= rect.ymin) & (lo[:, 1] <= rect.ymax)
    )
    got = pixel_coverage_fraction(
        tris, [rect.as_tuple()], (np.zeros_like(meeting), meeting)
    )[0]
    assert got.hex() == _fraction_over_every_triangle(tris, rect).hex()


# ----------------------------------------------------------------------
# The batched coverage fraction against the one-triangle clip
# ----------------------------------------------------------------------
@st.composite
def holed_or_not(draw):
    """A star polygon, or one with a smaller reversed star as its hole
    (inside the outer ring's nearest edge, so the rings never meet)."""
    poly = draw(star_polygons())
    if not draw(st.booleans()):
        return poly
    center = np.asarray([50.0, 50.0])
    a = poly.exterior - center
    b = np.roll(a, -1, axis=0)
    t = np.clip(np.sum(a * (a - b), axis=1) / np.sum((a - b) ** 2, axis=1),
                0.0, 1.0)
    reach = np.hypot(*(a + t[:, None] * (b - a)).T).min()
    hole = draw(star_polygons(max_radius=0.9 * reach))
    return Polygon(poly.exterior, holes=[hole.exterior[::-1]])


@given(holed_or_not(), st.floats(1.0, 12.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_batch_fraction_equals_the_clipped_triangle_sum(
    poly, size, dx, dy, seed
):
    """Over a grid of pixels of any size and offset, the batch
    fractions sum to the polygon's area, and each pixel's is
    Σ |area(clip(triangle, pixel))| / area(pixel), one triangle at a
    time, to 1e-12 relative (checked on a sample of the grid)."""
    tris = triangulate_polygon(poly)
    x0, y0 = poly.bbox.xmin - dx * size, poly.bbox.ymin - dy * size
    nx = int(np.ceil((poly.bbox.xmax - x0) / size)) + 1
    ny = int(np.ceil((poly.bbox.ymax - y0) / size)) + 1
    ix, iy = (g.ravel() for g in np.meshgrid(np.arange(nx), np.arange(ny)))
    rects = np.column_stack([x0 + ix * size, y0 + iy * size,
                             x0 + (ix + 1) * size, y0 + (iy + 1) * size])
    got = pixel_coverage_fraction(tris, rects, _every_pair(len(rects), tris))
    area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
    assert abs(float(got @ area) - poly.area) <= 1e-9 * poly.area
    sample = np.random.default_rng(seed).choice(
        len(rects), size=min(len(rects), 48), replace=False
    )
    want = np.asarray([
        min(1.0, sum(
            abs(ring_area(clipped)) for clipped in (
                scalar_clip_polygon_to_rect(tri, BBox(*rects[k]))
                for tri in tris
            ) if len(clipped) >= 3
        ) / area[k])
        for k in sample
    ])
    np.testing.assert_allclose(got[sample], want, rtol=1e-12, atol=0)


@given(holed_or_not(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_any_pairing_naming_the_meeting_triangles_keeps_the_bits(poly, k):
    """Pairing a pixel with triangles that miss it changes no bit: every
    pair, and only the pairs whose bounding boxes meet, agree."""
    tris = np.asarray(triangulate_polygon(poly))
    size = (poly.bbox.xmax - poly.bbox.xmin) / (3 * k)
    cols = np.arange(3 * k)
    rects = np.column_stack([
        poly.bbox.xmin + cols * size, np.full(len(cols), 50.0 - size / 2),
        poly.bbox.xmin + (cols + 1) * size, np.full(len(cols), 50.0 + size / 2),
    ])
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    meeting = np.nonzero(
        (hi[None, :, 0] >= rects[:, None, 0])
        & (lo[None, :, 0] <= rects[:, None, 2])
        & (hi[None, :, 1] >= rects[:, None, 1])
        & (lo[None, :, 1] <= rects[:, None, 3])
    )
    assert np.array_equal(
        pixel_coverage_fraction(tris, rects, _every_pair(len(rects), tris)),
        pixel_coverage_fraction(tris, rects, meeting),
    )
