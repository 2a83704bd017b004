"""The compiled raster kernels against their numpy forms, byte for byte.

The triangle scan (``triangle_scan.c``) must write the row table the
numpy scan writes, and the outline supercover (``supercover.c``) the
pixels the numpy probes find, on the sets the cold path draws: the
ledger's ``cold_rezoning`` zonings of seeds 1-5 (its merged-Voronoi
regions and two frame anchors, drawn from the same seeds here) and 20
Voronoi sets of 20 to 153 regions, each on a 1024² canvas whole and cut
4×4 into 256² tiles.  The oracles of both forms are the scalar kernels
(``tests/property/test_prop_raster.py``, on either kernel).

Neither form writes past the capacity it is given, and an edge with a
non-finite end probes nothing, so no coordinate can make a loop spin.
"""

import numpy as np
import pytest

from repro.data import generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet, rectangle
from repro.geometry.triangulate import triangulate_set
from repro.graphics import raster_batch, raster_line
from repro.graphics.raster_batch import rasterize_triangles
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Canvas
from tests.graphics.reference_raster import supercover_line

needs_native = pytest.mark.skipif(
    raster_batch._NATIVE is None or raster_line._NATIVE is None,
    reason="no compiled raster kernels on this platform",
)
SCANS = [pytest.param(raster_batch._NATIVE, id="native", marks=needs_native),
         pytest.param(raster_batch._scan_numpy, id="numpy")]
SUPERCOVERS = [
    pytest.param(raster_line._NATIVE, id="native", marks=needs_native),
    pytest.param(raster_line._supercover_numpy, id="numpy"),
]

EXTENT = BBox(0.0, 0.0, 1000.0, 1000.0)


def zoning(seed: int, index: int) -> list:
    """Zoning ``index`` of a ``cold_rezoning`` run at ``seed``."""
    inset = np.random.default_rng([seed, 7, index]).uniform(0.01, 1.0)
    draw = int(np.random.SeedSequence((seed, 21, index)).generate_state(1)[0])
    return list(generate_voronoi_regions(96, EXTENT, seed=draw)) + [
        rectangle(0.0, 0.0, 2.0 + inset, 2.0 + inset),
        rectangle(998.0 - inset, 998.0 - inset, 1000.0, 1000.0),
    ]


SETS = [(f"zoning-{seed}.{index}", lambda s=seed, i=index: zoning(s, i))
        for seed in range(1, 6) for index in range(6)] + [
    (f"voronoi-{k}", lambda k=k: list(generate_voronoi_regions(
        20 + 7 * k, NYC_REGION_EXTENT, seed=100 + k)))
    for k in range(20)
]


def tables(views, triangles, rings, kernel) -> list[bytes]:
    """Every view's row table and outline keys on one kernel pair."""
    scan, supercover = kernel
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raster_batch, "_scan", scan)
        patch.setattr(raster_line, "_supercover", supercover)
        for view in views:
            rows = rasterize_triangles(view, triangles)
            outline = outline_pixels_many(view, rings)
            for array in (rows.row_tri, rows.row_first, rows.row_len,
                          rows.counts, *(a for p in outline.values()
                                         for a in p)):
                out += [array.dtype.str.encode(), array.tobytes()]
    return out


@needs_native
@pytest.mark.parametrize("make", [make for _, make in SETS],
                         ids=[name for name, _ in SETS])
def test_both_kernels_give_the_same_bytes(make):
    polygons = make()
    triangles, _ = triangulate_set(polygons)
    rings = {pid: p.rings for pid, p in enumerate(polygons)}
    canvas = Canvas(PolygonSet(polygons).bbox, 1024, 1024)
    views = [canvas.full_viewport(), *canvas.tiles(max_resolution=256)]
    assert len(views) == 17
    native = tables(views, triangles, rings,
                    (raster_batch._NATIVE, raster_line._NATIVE))
    numpy = tables(views, triangles, rings,
                   (raster_batch._scan_numpy, raster_line._supercover_numpy))
    assert native == numpy


GUARD = -7


def scan_args(view, triangles, capacity):
    """The row scan's arguments for ``triangles``, with room for
    ``capacity`` rows and a guard row past it."""
    setup = raster_batch.setup_triangles(view, triangles)
    n = len(setup.x0)
    out = np.full((3, capacity + 1), GUARD, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    return [n, *map(np.ascontiguousarray, (
        setup.fx, setup.fy, setup.x0, setup.y0, setup.w, setup.h,
        setup.dx, setup.dy, setup.bias,
    )), view.width, capacity, *out, counts], out, int(setup.h.sum())


@pytest.mark.parametrize("scan", SCANS)
def test_the_row_scan_stays_within_its_capacity(scan):
    polygons = zoning(1, 0)
    triangles, _ = triangulate_set(polygons)
    view = Canvas(PolygonSet(polygons).bbox, 256, 256).full_viewport()
    _, _, capacity = scan_args(view, triangles, 0)
    args, out, _ = scan_args(view, triangles, capacity)
    rows = scan(*args)
    assert 0 < rows <= capacity and (out[:, capacity] == GUARD).all()
    args, out, _ = scan_args(view, triangles, rows - 1)
    assert scan(*args) == -1
    assert (out[:, rows - 1] == GUARD).all()


@pytest.mark.parametrize("supercover", SUPERCOVERS)
def test_the_supercover_stays_within_its_capacity(supercover):
    ring = np.array([[0.5, 0.5], [90.25, 3.0], [40.0, 77.7]])
    ax, ay = np.ascontiguousarray(ring.T)
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    xfirst, xcount = raster_line._lattice_spans(ax, bx, 100)
    yfirst, ycount = raster_line._lattice_spans(ay, by, 100)
    want = raster_line._edge_keys(ax, ay, bx, by, np.zeros(3, np.int64),
                                  100, 100, kernel=supercover)
    keys = np.full(len(want), GUARD, dtype=np.int64)
    got = supercover(3, ax, ay, bx, by, np.zeros(3, np.int64), xfirst,
                     xcount, yfirst, ycount, 100, 100, len(want) - 1, keys)
    assert got == -1 and keys[-1] == GUARD


@pytest.mark.parametrize("supercover", SUPERCOVERS)
def test_a_non_finite_edge_touches_no_pixel(supercover, monkeypatch):
    """``outline_pixels_many`` takes raw rings: an edge with a NaN or an
    infinite end probes nothing (its loops run over counted crossings,
    never over its coordinates), and the ring's finite edges give their
    scalar walk's pixels."""
    monkeypatch.setattr(raster_line, "_supercover", supercover)
    view = Canvas(BBox(0.0, 0.0, 100.0, 100.0), 100, 100).full_viewport()
    finite = [[10.0, 10.0], [80.0, 15.5], [60.0, 90.0], [12.0, 70.0]]
    for bad in ([np.nan, 50.0], [np.inf, 50.0], [50.0, -np.inf],
                [np.inf, np.inf]):
        ring = np.array(finite[:2] + [bad] + finite[2:])
        ox, oy = outline_pixels_many(view, {3: [ring]})[3]
        want = set()
        for (ax, ay), (bx, by) in zip(ring, np.roll(ring, -1, axis=0)):
            if np.isfinite([ax, ay, bx, by]).all():
                cols, rows = supercover_line(ax, ay, bx, by, 100, 100)
                want |= set(zip(cols.tolist(), rows.tolist()))
        assert set(zip(ox.tolist(), oy.tolist())) == want


@pytest.mark.parametrize("supercover", SUPERCOVERS)
def test_a_far_vertex_costs_the_canvas_not_the_edge(supercover):
    """A vertex far off a 64² canvas: the crossings are clamped to the
    canvas's lines, so the keys are the unclamped probes' and the
    capacity is bounded by the canvas, not by the edges' length."""
    ring = np.array([[10.0, 10.0], [2e5, 30.0], [20.0, 50.0]])
    ax, ay = np.ascontiguousarray(ring.T)
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    owner = np.zeros(3, np.int64)
    capacities = []

    def kernel(*args):
        capacities.append(args[-2])
        return supercover(*args)

    got = raster_line._edge_keys(ax, ay, bx, by, owner, 64, 64, kernel=kernel)
    # Each edge: two ends and at most 65 lines per axis, four keys each.
    assert capacities[0] <= 4 * 3 * (2 + 65 + 65)

    def unclamped(a, b):
        first = np.ceil(np.minimum(a, b))
        count = (np.floor(np.maximum(a, b)) - first + 1).astype(np.int64)
        return first, np.where(a != b, count, 0)

    xfirst, xcount = unclamped(ax, bx)
    yfirst, ycount = unclamped(ay, by)
    capacity = 4 * (6 + int(xcount.sum()) + int(ycount.sum()))
    assert capacity > 100 * capacities[0]
    keys = np.empty(capacity, dtype=np.int64)
    written = supercover(3, ax, ay, bx, by, owner, xfirst, xcount, yfirst,
                         ycount, 64, 64, capacity, keys)
    assert np.array_equal(raster_line.sorted_unique(got),
                          raster_line.sorted_unique(keys[:written]))
    assert len(got)


@pytest.mark.parametrize("supercover", SUPERCOVERS)
def test_an_edge_cutting_a_corner_cell_keeps_it(supercover, monkeypatch):
    """The clamp keeps lines 0 and ``width`` / ``height``: an edge that
    cuts a corner pixel from off the canvas crosses no other line, and
    those crossings are its only probes in bounds."""
    monkeypatch.setattr(raster_line, "_supercover", supercover)
    view = Canvas(BBox(0.0, 0.0, 64.0, 64.0), 64, 64).full_viewport()
    rings = {0: [np.array([[64.5, 63.2], [63.2, 64.5], [80.0, 80.0]])],
             1: [np.array([[-0.5, 0.8], [-5.0, -5.0], [0.8, -0.5]])]}
    got = outline_pixels_many(view, rings)
    for pid, corner in ((0, (63, 63)), (1, (0, 0))):
        ox, oy = got[pid]
        assert list(zip(ox.tolist(), oy.tolist())) == [corner]
