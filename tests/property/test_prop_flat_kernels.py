"""Property and differential tests for the two flat warm-path kernels.

* the edge table's pair predicate is *bit-for-bit*
  ``Polygon.contains_points`` — on star, concave, holed and
  merged-Voronoi polygons, for points placed where an even-odd test can
  go wrong: on vertices, on horizontal and vertical edges, on a ring's
  extreme y, a hair outside the MBR;
* the engines that run the kernels (accurate, index join in gpu mode)
  agree with the brute-force oracle for every aggregate, with and
  without a filter, under every backend — exactly where the arithmetic
  is exact, to the ledger's ``FLOAT_RTOL`` where a float sum's grouping
  is the only difference;
* the flat polygon pass equals the scalar ``repro.graphics`` kernels on
  *overlapping* polygons, where a shared pixel counts for both;
* the flat scatter is *bit-for-bit* the 2-D ``ufunc.at`` blend it
  replaced — ``np.bincount`` into an untouched float64 channel included —
  on weights holding NaN, ±inf and −0.0, float64 values a float32
  channel must round, values beyond float32's range, and on heavily
  duplicated pixels.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Filter,
    GPUDevice,
    IndexJoin,
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
from repro.graphics.fbo import FrameBuffer
from tests.conftest import (
    brute_force_values,
    edge_table_for,
    random_star_polygon,
    run_pixels,
)
from tests.graphics.reference_raster import accumulate_triangle_sums

#: The float tolerance of a Sum/Avg against the oracle (the ledger's
#: ``FLOAT_RTOL``): only the grouping of a float sum differs.
FLOAT_RTOL = 1e-9


# ----------------------------------------------------------------------
# (a) the flat pair predicate
# ----------------------------------------------------------------------
def _polygon_zoo(seed: int) -> PolygonSet:
    """Stars, a concave arrow, holed squares with axis-aligned edges,
    and merged-Voronoi regions, all over [0, 100]^2."""
    rng = np.random.default_rng(seed)
    polygons = [
        random_star_polygon(
            rng, center=(rng.uniform(20, 80), rng.uniform(20, 80)),
            radius_range=(3, 25), vertices=int(rng.integers(4, 14)),
        )
        for _ in range(3)
    ]
    polygons.append(Polygon([(5, 5), (30, 5), (30, 30), (17.5, 17.5), (5, 30)]))
    polygons.append(Polygon(
        [(40, 40), (90, 40), (90, 90), (40, 90)],
        holes=[[(50, 50), (60, 50), (60, 60), (50, 60)],
               [(70, 65), (85, 70), (75, 85)]],
    ))
    polygons.extend(
        generate_voronoi_regions(4, BBox(0.0, 0.0, 100.0, 100.0), seed=seed)
    )
    return PolygonSet(polygons)


def _tricky_points(polygons: PolygonSet, rng) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [rng.uniform(-5, 105, 400)], [rng.uniform(-5, 105, 400)]
    for polygon in polygons:
        box = polygon.bbox
        for ring in polygon.rings:
            nxt = np.roll(ring, -1, axis=0)
            # Vertices, edge midpoints (on horizontal and vertical edges
            # too), and both a hair either side of each.
            for px, py in ((ring[:, 0], ring[:, 1]),
                           ((ring[:, 0] + nxt[:, 0]) / 2,
                            (ring[:, 1] + nxt[:, 1]) / 2)):
                xs += [px, np.nextafter(px, np.inf), np.nextafter(px, -np.inf),
                       px, px]
                ys += [py, py, py,
                       np.nextafter(py, np.inf), np.nextafter(py, -np.inf)]
            # The ring's extreme y, sampled across its x-range.
            sweep = np.linspace(box.xmin, box.xmax, 9)
            for extreme in (ring[:, 1].min(), ring[:, 1].max()):
                xs.append(sweep)
                ys.append(np.full(len(sweep), extreme))
        # Just outside (and exactly on) each side of the MBR.
        mid_x, mid_y = (box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2
        xs.append(np.asarray([
            np.nextafter(box.xmin, -np.inf), box.xmin,
            np.nextafter(box.xmax, np.inf), box.xmax, mid_x, mid_x, mid_x,
            mid_x,
        ]))
        ys.append(np.asarray([
            mid_y, mid_y, mid_y, mid_y,
            np.nextafter(box.ymin, -np.inf), box.ymin,
            np.nextafter(box.ymax, np.inf), box.ymax,
        ]))
    return np.concatenate(xs), np.concatenate(ys)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, 7, 64, 1024]),
    st.sampled_from([1 << 20, 64]),
)
# A seed whose four Voronoi regions take more than eight site draws.
@example(seed=26171770, resolution=1, budget=1 << 20)
@settings(max_examples=25, deadline=None)
def test_pair_predicate_is_contains_points(seed, resolution, budget):
    polygons = _polygon_zoo(seed)
    edges = edge_table_for(polygons, resolution)
    # Any point may be paired with any polygon: the table frames its own
    # row bands and derives each pair's band from the pair's own y.
    xs, ys = _tricky_points(polygons, np.random.default_rng(seed))
    for pid, polygon in enumerate(polygons):
        pids = np.full(len(xs), pid, dtype=np.int64)
        got = edges.contains_pairs(xs, ys, pids, budget=budget)
        assert np.array_equal(got, polygon.contains_points(xs, ys))


def test_pair_predicate_mixed_pairs_and_no_pairs():
    """Pairs of different polygons in one call, in any order; and the
    degenerate call with none."""
    polygons = _polygon_zoo(3)
    edges = edge_table_for(polygons, 32)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(0, 100, 3000), rng.uniform(0, 100, 3000)
    pids = rng.integers(0, len(polygons), 3000)
    want = np.zeros(3000, dtype=bool)
    for pid, polygon in enumerate(polygons):
        mine = pids == pid
        want[mine] = polygon.contains_points(xs[mine], ys[mine])
    assert np.array_equal(edges.contains_pairs(xs, ys, pids), want)
    none = np.zeros(0)
    assert edges.contains_pairs(
        none, none, none.astype(np.int64)
    ).shape == (0,)


# ----------------------------------------------------------------------
# (b) engines vs the brute-force oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracle_workload():
    rng = np.random.default_rng(2024)
    n = 6000
    points = PointDataset(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n),
        {
            "fare": rng.uniform(1.0, 30.0, n),  # float-valued
            "hour": rng.integers(0, 24, n).astype(np.float64),  # integers
        },
    )
    return points, _polygon_zoo(11)


AGGREGATES = {
    "count": lambda col: Count(),
    "sum": Sum,
    "avg": Average,
    "min": Min,
    "max": Max,
}


def _engines(backend: str):
    config = EngineConfig(backend=backend, workers=2)
    # A 2x2-tile canvas, so the thread / process backends really fan out.
    yield AccurateRasterJoin(
        resolution=128, grid_resolution=64,
        device=GPUDevice(max_resolution=64), config=config,
    )
    yield IndexJoin(mode="gpu", grid_resolution=64, config=config)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("column", ["fare", "hour"])
@pytest.mark.parametrize("function", list(AGGREGATES))
def test_engines_match_brute_force_oracle(
    oracle_workload, function, column, filtered, backend
):
    points, polygons = oracle_workload
    filters = [Filter("hour", ">=", 12.0)] if filtered else None
    keep = points.column("hour") >= 12.0 if filtered else None
    want = brute_force_values(
        points, polygons, function, None if function == "count" else column,
        keep,
    )
    exact = function in ("count", "min", "max") or column == "hour"
    for engine in _engines(backend):
        with engine:
            got = engine.execute(
                points, polygons, AGGREGATES[function](column), filters
            ).values
        if exact:
            assert np.array_equal(got, want, equal_nan=True), engine.name
        else:
            assert np.allclose(
                got, want, rtol=FLOAT_RTOL, atol=0.0, equal_nan=True
            ), engine.name


# ----------------------------------------------------------------------
# (c) the flat polygon pass vs the scalar kernels, overlapping polygons
# ----------------------------------------------------------------------
def test_polygon_pass_counts_shared_pixels_for_both_polygons():
    """Two polygons overlapping in a wide band: a pixel both cover adds
    to both (a label map could not say that).  The bounded engine's
    whole answer is its polygon pass, so it must equal the scalar
    fragment-shader sum over each polygon's own triangles."""
    rng = np.random.default_rng(5)
    n = 5000
    points = PointDataset(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n),
        {"w": rng.integers(1, 9, n).astype(np.float64)},
    )
    polygons = PolygonSet([
        Polygon([(10, 10), (70, 15), (65, 70), (12, 60)]),
        Polygon([(40, 30), (95, 35), (90, 92), (35, 85)]),
        random_star_polygon(rng, center=(50, 50), radius_range=(10, 30)),
    ])
    session = QuerySession(store=False)
    engine = BoundedRasterJoin(resolution=96, session=session)
    got = engine.execute(points, polygons, Sum("w")).values
    (artifact,) = session._entries.values()
    (tile,) = artifact.tiles
    channel = np.zeros((tile.height, tile.width))
    ix, iy, inside = tile.pixel_of(points.xs, points.ys)
    np.add.at(channel, (iy[inside], ix[inside]), points.column("w")[inside])
    want = [
        sum(accumulate_triangle_sums(tile, channel, tri) for tri in tris)
        for tris in artifact.triangles
    ]
    assert np.array_equal(got, want)
    # The overlap is real: the shared pixels' weight is counted twice.
    assert got[0] + got[1] > channel.sum() * 0.6
    shared = np.intersect1d(
        run_pixels(artifact.units[0].coverage[0]),
        run_pixels(artifact.units[1].coverage[0]),
    )
    assert len(shared) > 100


# ----------------------------------------------------------------------
# (d) the flat scatter vs the 2-D ``ufunc.at`` blend
# ----------------------------------------------------------------------
@st.composite
def fragments(draw):
    """Fragments over a small canvas — few pixels, so most are hit many
    times — whose weights mix finite values with NaN, ±inf and −0.0,
    with float64 values between two float32 neighbours (a quarter, half
    or three quarters of the way: a float32 channel rounds them, ties
    included), and with values beyond ±float32 max (those within half
    an ulp of it round to it, the rest to ±inf)."""
    seed = draw(st.integers(0, 2**31 - 1))
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(seed)
    pix = rng.integers(0, width * height, n)
    weights = rng.normal(0.0, 1e3, n)
    between = rng.uniform(0.0, 1.0, n) < draw(st.sampled_from([0.0, 0.5]))
    below = weights.astype(np.float32)
    above = np.nextafter(below, np.float32(np.inf))
    weights[between] = (below + rng.choice([0.25, 0.5, 0.75], n)
                        * (above.astype(np.float64) - below))[between]
    beyond = rng.uniform(0.0, 1.0, n) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    f32max = float(np.finfo(np.float32).max)
    magnitude = np.where(
        rng.uniform(0.0, 1.0, n) < 0.5,
        f32max * (1.0 + rng.uniform(0.0, 2.0**-23, n)),
        rng.uniform(1e39, 1e40, n),
    )
    weights[beyond] = (rng.choice([-1.0, 1.0], n) * magnitude)[beyond]
    for special in (np.nan, np.inf, -np.inf, -0.0, 0.0):
        share = draw(st.sampled_from([0.0, 0.05, 0.5]))
        weights[rng.uniform(0.0, 1.0, n) < share] = special
    return width, height, pix, weights


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit equality — the sign of zero included — except that a NaN is a
    NaN: which operand's sign and payload survives ``inf - inf + nan``
    is the kernel's operand order and means nothing."""
    a, b = a.ravel(), b.ravel()
    nan = np.isnan(a)
    return (
        a.dtype == b.dtype and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


@given(fragments())
@settings(max_examples=60, deadline=None)
def test_bincount_is_add_at_bit_for_bit(case):
    """From zeros, ``np.bincount(pix, weights, minlength)`` performs the
    float64 adds of ``np.add.at`` in the same order: same bits —
    infinities and the sign of zero included.  (Of *no*
    fragments it returns integer zeros; the scatter never asks.)"""
    width, height, pix, weights = case
    assume(len(pix))
    want = np.zeros(width * height)
    with np.errstate(invalid="ignore"):
        np.add.at(want, pix, weights)
    got = np.bincount(pix, weights=weights, minlength=width * height)
    assert _same_bits(got, want)


@given(fragments(), st.sampled_from(["add", "min", "max"]),
       st.sampled_from([np.float64, np.float32]), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_flat_scatter_is_the_2d_blend_bit_for_bit(case, blend, dtype, batches):
    """``FrameBuffer.scatter`` — whichever kernel it picks, over one
    batch or several — leaves the bits the 2-D ``ufunc.at`` blend of the
    same fragments in the same order leaves, for every blend and
    framebuffer dtype, a constant-1 channel beside a weighted one."""
    width, height, pix, weights = case
    identity = {"add": 0.0, "min": np.inf, "max": -np.inf}[blend]
    flat = FrameBuffer(width, height, channels=("w", "one"), dtype=dtype)
    want = {name: np.full((height, width), identity, dtype=dtype)
            for name in ("w", "one")}
    if blend != "add":
        for name in ("w", "one"):
            flat.channel(name).fill(identity)
    at = {"add": np.add.at, "min": np.minimum.at, "max": np.maximum.at}[blend]
    with np.errstate(invalid="ignore", over="ignore"):
        for part in np.array_split(np.arange(len(pix)), batches):
            flat.scatter(pix[part], {"w": weights[part], "one": 1.0}, blend)
            index = (pix[part] // width, pix[part] % width)
            at(want["w"], index, weights[part].astype(dtype))
            at(want["one"], index, 1.0)
    for name in ("w", "one"):
        assert _same_bits(flat.channel(name), want[name]), name
