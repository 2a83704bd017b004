"""The accurate engine against the brute-force oracle on degenerate
inputs, on both sides of the prewarm stage.

Every input below is one nobody's generator produces by accident — no
points, points off the canvas, non-finite coordinates, points exactly on
vertices / horizontal edges / tile seams, no candidate after the MBR
filter, a one-pixel canvas, a hole, two holes bridged to one outer
vertex, two outlines through one pixel, polygons none of whose pixels
is interior (a one-pixel-wide sliver, a needle, a polygon smaller than
a pixel), a device that cuts the statement into several batches — and
each runs for Count / Sum / Avg / Min / Max x {no filter, a filter
keeping some rows, one keeping none} x {not prewarmed, prewarmed} x
{1, 4, 16 tiles}.  Count / Min / Max must equal
``tests/conftest.py::brute_force_values`` exactly and a float Sum / Avg
to 1e-9 (only a float sum's grouping differs); the prewarmed answer must
be the un-prewarmed one bit for bit, values and channels, having run the
same PIP tests.  The same inputs hold ``MaterializingJoin`` to the same
oracle, and the bounded engine's Count to its own loose interval.
"""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    Filter,
    GPUDevice,
    IndexJoin,
    MaterializingJoin,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.core.filters import FilterSet
from repro.geometry.polygon import rectangle
from tests.conftest import (
    brute_force_values,
    cutting_capacity,
    random_star_polygon,
    routed_tile_rows,
)

RESOLUTION = 64
FLOAT_RTOL = 1e-9

AGGREGATES = {
    "count": lambda: Count(),
    "sum": lambda: Sum("v"),
    "avg": lambda: Average("v"),
    "min": lambda: Min("v"),
    "max": lambda: Max("v"),
}
FILTERS = {
    "unfiltered": (FilterSet(), lambda k: np.ones(len(k), dtype=bool)),
    "keeps-some": (FilterSet([Filter("k", ">=", 5)]), lambda k: k >= 5),
    "keeps-none": (FilterSet([Filter("k", "<", -1)]), lambda k: k < -1),
}

#: A frame every polygon set below shares, so the canvas — and with it
#: where the tile seams fall — is known to the inputs that aim at them.
FRAME = rectangle(0.0, 0.0, 100.0, 100.0)


def _dataset(xs, ys, seed: int = 7) -> PointDataset:
    rng = np.random.default_rng(seed)
    n = len(xs)
    return PointDataset(
        np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64),
        {
            "v": rng.uniform(-5.0, 60.0, n),  # float-valued: sums round
            "k": rng.integers(0, 10, n).astype(np.float64),
        },
    )


def _uniform(n: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n)


def _stars(seed: int = 5) -> PolygonSet:
    rng = np.random.default_rng(seed)
    return PolygonSet([
        FRAME,
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(5.0, 25.0)),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(5.0, 25.0)),
    ])


def no_points():
    return _dataset([], []), _stars()


def all_points_off_the_canvas():
    xs, ys = _uniform(400)
    return _dataset(xs + 500.0, ys - 500.0), _stars()


def nonfinite_coordinates():
    xs, ys = _uniform(900)
    xs[::7], ys[3::11] = np.nan, np.inf
    xs[5::13], ys[1::17] = -np.inf, np.nan
    return _dataset(xs, ys), _stars()


def points_on_vertices_edges_and_seams():
    polygons = PolygonSet([
        FRAME,
        Polygon([(20, 20), (60, 20), (60, 50), (40, 50), (40, 70), (20, 70)]),
        Polygon([(60, 20), (90, 20), (90, 50), (60, 50)]),  # shares an edge
    ])
    canvas = AccurateRasterJoin(resolution=RESOLUTION)._make_canvas(polygons)
    side = -(-canvas.width // 4)  # the 16-tile cut
    seams_x = [canvas.extent.xmin + col * canvas.pixel_width
               for col in range(side, canvas.width, side)]
    seams_y = [canvas.extent.ymin + row * canvas.pixel_height
               for row in range(side, canvas.height, side)]
    rng = np.random.default_rng(11)
    xs, ys = [], []
    for polygon in polygons:
        for ring in polygon.rings:
            mids = (ring + np.roll(ring, 1, axis=0)) / 2.0
            xs += [*ring[:, 0], *mids[:, 0]]
            ys += [*ring[:, 1], *mids[:, 1]]
    for _ in range(3):  # along every horizontal edge of the L and the box
        t = rng.uniform(20.0, 90.0, 40)
        for y in (20.0, 50.0, 70.0):
            xs += [*t]
            ys += [y] * len(t)
    for seam in seams_x:
        xs += [seam] * 30
        ys += [*rng.uniform(0.0, 100.0, 30)]
    for seam in seams_y:
        xs += [*rng.uniform(0.0, 100.0, 30)]
        ys += [seam] * 30
    ux, uy = _uniform(300)
    return _dataset([*xs, *ux], [*ys, *uy]), polygons


def no_polygon_mbr_holds_a_point():
    xs, ys = _uniform(500)
    polygons = PolygonSet([
        rectangle(0.0, 0.0, 4.0, 4.0),
        random_star_polygon(np.random.default_rng(2), center=(90.0, 90.0),
                            radius_range=(2.0, 6.0)),
        Polygon([(96, 0), (100, 0), (100, 100), (98, 100), (98, 4)]),
    ])
    hit = np.zeros(len(xs), dtype=bool)
    for polygon in polygons:
        box = polygon.bbox
        hit |= ((xs >= box.xmin) & (xs <= box.xmax)
                & (ys >= box.ymin) & (ys <= box.ymax))
    return _dataset(xs[~hit], ys[~hit]), polygons


def single_pixel_canvas():
    xs, ys = _uniform(300)
    return _dataset(xs, ys), _stars(), 1


def polygon_with_a_hole():
    xs, ys = _uniform(1200)
    return _dataset(xs, ys), PolygonSet([
        FRAME,
        Polygon(
            [(10, 10), (90, 12), (88, 90), (12, 85)],
            holes=[[(30, 30), (60, 32), (55, 60), (33, 58)]],
        ),
    ])


def two_holes_bridged_to_one_outer_vertex():
    # The second hole's bridge leaves from (90, 12), which the first
    # hole's bridge has already duplicated.
    xs, ys = _uniform(1200)
    return _dataset(xs, ys), PolygonSet([
        FRAME,
        Polygon(
            [(10, 10), (90, 12), (88, 90), (12, 85)],
            holes=[[(30, 30), (60, 32), (55, 60), (33, 58)],
                   [(65, 65), (80, 66), (72, 80)]],
        ),
    ])


def two_polygons_sharing_an_outline_pixel():
    # Corner to corner at (50, 50), and a sliver running through the
    # same pixels as the first one's right edge.
    xs, ys = _uniform(1200)
    dense = np.random.default_rng(4).uniform(48.0, 52.0, (2, 200))
    return _dataset([*xs, *dense[0]], [*ys, *dense[1]]), PolygonSet([
        FRAME,
        Polygon([(20, 20), (50, 20), (50, 50), (20, 50)]),
        Polygon([(50, 50), (80, 50), (80, 80), (50, 80)]),
        Polygon([(50.2, 18), (51, 18), (51, 49), (50.2, 49)]),
    ])


def polygons_owning_no_interior_pixel():
    # Each covers boundary pixels only, so the run table trims it away
    # entirely and its answer is the PIP path's alone: a sliver a third
    # of a pixel wide down a column of pixel centres, a needle of area
    # 1e-8 (a ring of exactly zero area is refused by ``Polygon``), and
    # a square half a pixel wide around one pixel centre.
    canvas = AccurateRasterJoin(resolution=RESOLUTION)._make_canvas(
        PolygonSet([FRAME])
    )
    width, height = canvas.pixel_width, canvas.pixel_height
    sx = canvas.extent.xmin + 12.5 * width
    cx = canvas.extent.xmin + 40.5 * width
    cy = canvas.extent.ymin + 30.5 * height
    rng = np.random.default_rng(8)
    xs, ys = _uniform(1200)
    return _dataset(
        [*xs, *rng.uniform(sx - width / 4, sx + width / 4, 200),
         *np.linspace(60.0, 80.0, 40),
         *rng.uniform(cx - width / 3, cx + width / 3, 200)],
        [*ys, *rng.uniform(10.0, 90.0, 200), *np.full(40, 20.0),
         *rng.uniform(cy - height / 3, cy + height / 3, 200)],
    ), PolygonSet([
        FRAME,
        rectangle(sx - width / 6, 10.0, sx + width / 6, 90.0),
        Polygon([(60.0, 20.0), (80.0, 20.0), (70.0, 20.0 + 1e-9)]),
        rectangle(cx - width / 4, cy - height / 4,
                  cx + width / 4, cy + height / 4),
    ])


def two_or_more_device_batches():
    xs, ys = _uniform(1500)
    return _dataset(xs, ys), _stars(9), RESOLUTION, 3


INPUTS = [
    no_points, all_points_off_the_canvas, nonfinite_coordinates,
    points_on_vertices_edges_and_seams, no_polygon_mbr_holds_a_point,
    single_pixel_canvas, polygon_with_a_hole,
    two_holes_bridged_to_one_outer_vertex,
    two_polygons_sharing_an_outline_pixel, polygons_owning_no_interior_pixel,
    two_or_more_device_batches,
]


def _device(cuts, resolution, batches, points, polygons, aggregate,
            filters):
    """A device whose framebuffer limit cuts the canvas ``cuts`` x
    ``cuts`` and — with ``batches`` — whose memory holds the largest
    tile's framebuffer plus a ``batches``-th of the fewest rows a tile
    is routed."""
    side = -(-resolution // cuts)
    if batches is None:
        return None if cuts == 1 else GPUDevice(max_resolution=side)
    probe = AccurateRasterJoin(resolution=resolution,
                               device=GPUDevice(max_resolution=side))
    rows = max(1, int(routed_tile_rows(probe, points, polygons).min()))
    return GPUDevice(
        capacity_bytes=cutting_capacity(
            probe, points, polygons, aggregate, filters, -(-rows // batches)
        ),
        max_resolution=side,
    )


def _oracle(points, polygons, function, keep):
    # A point with a non-finite coordinate is outside everything by rule.
    keep = keep & np.isfinite(points.xs) & np.isfinite(points.ys)
    return brute_force_values(
        points, polygons, function, None if function == "count" else "v",
        keep,
    )


@pytest.mark.parametrize("cuts", [1, 2, 4],
                         ids=["1-tile", "4-tiles", "16-tiles"])
@pytest.mark.parametrize("make", INPUTS, ids=lambda make: make.__name__)
def test_degenerate_input_matches_the_oracle_prewarmed_or_not(make, cuts):
    points, polygons, *rest = make()
    resolution, batches = (*rest, RESOLUTION, None)[:2]
    sessions = {False: QuerySession(store=False),
                True: QuerySession(store=False)}
    for function, make_aggregate in AGGREGATES.items():
        for filters, keep_rows in FILTERS.values():
            aggregate = make_aggregate()
            want = _oracle(
                points, polygons, function, keep_rows(points.column("k"))
            )
            results = {}
            for prewarmed, session in sessions.items():
                engine = AccurateRasterJoin(
                    resolution=resolution, grid_resolution=32,
                    device=_device(cuts, resolution, batches, points,
                                   polygons, aggregate, filters),
                    session=session,
                )
                if prewarmed:
                    engine.prewarm(points, polygons)
                results[prewarmed] = engine.execute(
                    points, polygons, aggregate, filters
                )
            cold, warm = results[False], results[True]
            cell = f"{function}, {filters}"
            assert cold.stats.extra["pyramid"] == "cold", cell
            assert warm.stats.extra["pyramid"] == "hit", cell
            assert cold.stats.extra["tiles"] == min(cuts, resolution) ** 2
            if function in ("count", "min", "max"):
                assert np.array_equal(cold.values, want, equal_nan=True), cell
            else:
                assert np.allclose(cold.values, want, rtol=FLOAT_RTOL,
                                   atol=0.0, equal_nan=True), cell
            assert np.array_equal(warm.values, cold.values,
                                  equal_nan=True), cell
            for name, channel in cold.channels.items():
                assert np.array_equal(warm.channels[name], channel,
                                      equal_nan=True), cell
            assert warm.stats.pip_tests == cold.stats.pip_tests, cell
            assert warm.stats.boundary_points == cold.stats.boundary_points
            if batches is not None and not filters:
                assert cold.stats.batches >= 2 * cold.stats.extra["tiles"]


@pytest.mark.parametrize("make", INPUTS, ids=lambda make: make.__name__)
def test_materializing_join_matches_the_oracle(make):
    points, polygons, *_ = make()
    engine = MaterializingJoin(truncate_bits=None)
    for function, make_aggregate in AGGREGATES.items():
        for filters, keep_rows in FILTERS.values():
            want = _oracle(
                points, polygons, function, keep_rows(points.column("k"))
            )
            got = engine.execute(
                points, polygons, make_aggregate(), filters
            ).values
            cell = f"{function}, {filters}"
            if function in ("count", "min", "max"):
                assert np.array_equal(got, want, equal_nan=True), cell
            else:
                assert np.allclose(got, want, rtol=FLOAT_RTOL, atol=0.0,
                                   equal_nan=True), cell


@pytest.mark.parametrize("cuts", [1, 2, 4],
                         ids=["1-tile", "4-tiles", "16-tiles"])
@pytest.mark.parametrize("make", INPUTS, ids=lambda make: make.__name__)
def test_bounded_count_lies_inside_its_interval(make, cuts):
    """The bounded engine reads the untrimmed run table: every exact
    count lies inside its loose interval (§5), whatever the tiling."""
    points, polygons, *rest = make()
    resolution = (*rest, RESOLUTION)[0]
    for filters, keep_rows in FILTERS.values():
        result = BoundedRasterJoin(
            resolution=resolution, compute_bounds=True,
            device=_device(cuts, resolution, None, points, polygons, Count(),
                           filters),
        ).execute(points, polygons, Count(), filters)
        want = _oracle(points, polygons, "count", keep_rows(points.column("k")))
        assert result.intervals.contains(want).all(), filters


def test_every_engine_matches_the_oracle_on_the_two_hole_polygon():
    """The triangulation feeds the bounded engine's draw pass and the
    index join's grid assignment too.  The bounded engine is exact for
    a point further than a pixel diagonal from every edge, so it is
    asked about those only."""
    points, polygons = two_holes_bridged_to_one_outer_vertex()
    want = brute_force_values(points, polygons, "count")
    for engine in (AccurateRasterJoin(resolution=RESOLUTION),
                   IndexJoin(mode="gpu", grid_resolution=32),
                   MaterializingJoin(truncate_bits=None)):
        got = engine.execute(points, polygons, Count()).values
        assert np.array_equal(got, want), engine.name

    epsilon = 1.0
    far = np.ones(len(points), dtype=bool)
    for polygon in polygons:
        for ring in polygon.rings:
            for a, b in zip(ring, np.roll(ring, -1, axis=0)):
                t = np.clip(
                    ((points.xs - a[0]) * (b[0] - a[0])
                     + (points.ys - a[1]) * (b[1] - a[1]))
                    / ((b - a) @ (b - a)), 0.0, 1.0,
                )
                far &= np.hypot(points.xs - (a[0] + t * (b[0] - a[0])),
                                points.ys - (a[1] + t * (b[1] - a[1]))) > epsilon
    assert 600 < far.sum() < len(points)
    inner = PointDataset(points.xs[far], points.ys[far],
                         {"v": points.column("v")[far]})
    got = BoundedRasterJoin(epsilon=epsilon).execute(
        inner, polygons, Count()
    ).values
    assert np.array_equal(got, brute_force_values(inner, polygons, "count"))
