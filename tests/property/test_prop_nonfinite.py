"""Property tests: ±inf and NaN in attribute values and in coordinates.

Pins the finalize semantics: only *identity* accumulator slots (regions
that saw no value) finalize to NaN — a legitimate ``-inf`` minimum (or
``+inf`` maximum) passes through, and a NaN value poisons its region's
result on every path (raster scatter — fresh or read from a prewarmed
pairing's cached channels — and boundary PIP).  The one
documented ambiguity: a region whose true minimum is exactly ``+inf``
is indistinguishable from an empty one and also finalizes to NaN
(mirrored by the reference below).

Checked across engines (accurate, index join), execution backends
(serial, threaded tiles), streamed vs monolithic input, and prewarmed
vs not (one comparator: the same bits).

Non-finite *coordinates* are outside every canvas, tile and grid cell by
rule (``Viewport.pixel_of`` / ``GridIndex.cell_of_points`` decide on the
float coordinates), never by what a platform's float-to-int cast makes
of them — and no query over such points may warn.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
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
from repro.exec.config import EngineConfig
from repro.geometry.polygon import rectangle
from tests.property.test_prop_geometry import star_polygons

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def nonfinite_workloads(draw):
    """Random points whose attribute mixes finite values, ±inf, NaN and
    -0.0."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 800))
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100.0, 100.0, n_points)
    for special in (np.inf, -np.inf, np.nan, -0.0):
        share = draw(st.floats(0.0, 0.3))
        values[rng.uniform(0.0, 1.0, n_points) < share] = special
    points = PointDataset(
        rng.uniform(0, 100, n_points),
        rng.uniform(0, 100, n_points),
        {"v": values},
    )
    polys = [draw(star_polygons(center=(35, 40), max_radius=30.0))]
    # An anchor rectangle pins the grid frame and guarantees a region
    # that contains every point (so specials are always exercised).
    polys.append(rectangle(-1, -1, 101, 101))
    return points, PolygonSet(polys)


def reference(points, polygons, kind):
    """Brute-force per-region values under the fixed finalize semantics."""
    vals = points.column("v")
    out = []
    for poly in polygons:
        inside = vals[poly.contains_points(points.xs, points.ys)]
        # A region summing +inf and -inf is NaN: the answer, not a fault.
        with np.errstate(invalid="ignore"):
            total = float(np.sum(inside))
        if kind == "sum":
            out.append(total)
            continue
        if kind == "avg":
            out.append(np.nan if len(inside) == 0 else total / len(inside))
            continue
        reduced = (
            float(np.min(inside)) if kind == "min" else float(np.max(inside))
        ) if len(inside) else None
        identity = np.inf if kind == "min" else -np.inf
        # Empty region, or a true extremum equal to the identity: NaN.
        out.append(
            np.nan if reduced is None or reduced == identity else reduced
        )
    return np.asarray(out)


AGGS = {"min": Min, "max": Max, "avg": Average, "sum": Sum}


def check(result, points, polygons, kind):
    expect = reference(points, polygons, kind)
    if kind in ("avg", "sum"):
        assert np.allclose(result.values, expect, equal_nan=True)
    else:
        # Min/Max are order-free: exact equality, NaN-for-NaN.
        assert np.array_equal(result.values, expect, equal_nan=True)


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]),
       st.sampled_from([None, 64]))
@settings(max_examples=20, deadline=None)
def test_accurate_nonfinite_semantics(workload, kind, max_fbo):
    """One tile, and four (``max_fbo=64`` at 128²): the tiles' partial
    sums meet in the ordered merge."""
    points, polygons = workload
    device = None if max_fbo is None else GPUDevice(max_resolution=max_fbo)
    result = AccurateRasterJoin(
        resolution=128, grid_resolution=32, device=device
    ).execute(points, polygons, AGGS[kind]("v"))
    assert result.stats.extra["tiles"] == {None: 1, 64: 4}[max_fbo]
    check(result, points, polygons, kind)


class TestInfinitiesMeetAcrossParts:
    """+inf and -inf in one region sum to NaN, silently, wherever they
    meet: within a batch, across batches or chunks on one pixel (the
    framebuffer's ``np.add.at``), across tiles (``Aggregate.combine``),
    in the materializing join's per-pair blend — where a NaN also
    poisons a Min / Max slot without a warning."""

    ZONES = PolygonSet([rectangle(0, 0, 100, 100)])

    @staticmethod
    def rows(xs, values):
        return PointDataset(
            np.asarray(xs, dtype=np.float64), np.full(len(xs), 50.0),
            {"v": np.asarray(values, dtype=np.float64)},
        )

    def chunks(self):
        return iter([self.rows([50], [np.inf]), self.rows([50], [-np.inf])])

    def test_two_chunks_on_one_pixel(self):
        result = AccurateRasterJoin(resolution=128).execute_stream(
            self.chunks, self.ZONES, Sum("v")
        )
        assert np.isnan(result.values).all()

    def test_two_tiles(self):
        result = AccurateRasterJoin(
            resolution=128, device=GPUDevice(max_resolution=64)
        ).execute(self.rows([20, 80], [np.inf, -np.inf]), self.ZONES,
                  Sum("v"))
        assert result.stats.extra["tiles"] == 4
        assert np.isnan(result.values).all()

    @pytest.mark.parametrize("streamed", [False, True])
    def test_bounded_float32_framebuffer(self, streamed):
        engine = BoundedRasterJoin(resolution=128)
        if streamed:
            result = engine.execute_stream(self.chunks, self.ZONES, Sum("v"))
        else:
            result = engine.execute(
                self.rows([50, 50], [np.inf, -np.inf]), self.ZONES, Sum("v")
            )
        assert np.isnan(result.values).all()

    @pytest.mark.parametrize("aggregate, values", [
        (Sum, [np.inf, -np.inf]), (Min, [1.0, np.nan]), (Max, [1.0, np.nan]),
    ])
    def test_materializing_join(self, aggregate, values):
        """Its per-pair blend meets ±inf (Sum) and a NaN (Min / Max)."""
        result = MaterializingJoin().execute(
            self.rows([20, 80], values), self.ZONES, aggregate("v")
        )
        assert np.isnan(result.values).all()


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=10, deadline=None)
def test_threaded_backend_agrees(workload, kind):
    points, polygons = workload
    serial = AccurateRasterJoin(resolution=128, grid_resolution=32).execute(
        points, polygons, AGGS[kind]("v")
    )
    threaded = AccurateRasterJoin(
        resolution=128, grid_resolution=32,
        config=EngineConfig(backend="thread", workers=2),
    ).execute(points, polygons, AGGS[kind]("v"))
    assert np.array_equal(threaded.values, serial.values, equal_nan=True)
    check(threaded, points, polygons, kind)


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=10, deadline=None)
def test_streamed_matches_monolithic(workload, kind):
    points, polygons = workload
    mono = AccurateRasterJoin(resolution=128, grid_resolution=32).execute(
        points, polygons, AGGS[kind]("v")
    )
    half = len(points) // 2 or 1
    chunks = [
        PointDataset(
            points.xs[:half], points.ys[:half],
            {"v": points.column("v")[:half]},
        ),
        PointDataset(
            points.xs[half:], points.ys[half:],
            {"v": points.column("v")[half:]},
        ),
    ]
    streamed = AccurateRasterJoin(
        resolution=128, grid_resolution=32
    ).execute_stream(lambda: iter(chunks), polygons, AGGS[kind]("v"))
    assert np.array_equal(streamed.values, mono.values, equal_nan=True)


def recorded_counterexample():
    """The workload hypothesis once found against
    :func:`test_streamed_matches_monolithic` —
    ``@reproduce_failure('6.155.2', b'AXicc2I478S4UIMBCvAwHFkdGRyZAG2KA2A=')``
    with ``kind="avg"`` — decoded: :func:`nonfinite_workloads`' seed 207,
    417 rows, no special drawn, and a five-point star.  Each of the two
    chunks folded its own boundary matches, so the anchor rectangle's
    sum lost its last bits against the monolithic run."""
    rng = np.random.default_rng(207)
    values = rng.uniform(-100.0, 100.0, 417)
    for _ in range(4):  # the specials' masks: none drew a row
        rng.uniform(0.0, 1.0, 417)
    points = PointDataset(
        rng.uniform(0, 100, 417), rng.uniform(0, 100, 417), {"v": values}
    )
    star = Polygon([
        (62.49547543498463, 42.86560890404724),
        (53.74050337219021, 44.934126681434414),
        (32.18556444916409, 62.52123109186023),
        (23.473738144634968, 26.596547310113344),
        (45.93581161960613, 13.955835279701141),
    ])
    return points, PolygonSet([star, rectangle(-1, -1, 101, 101)])


def test_streamed_matches_monolithic_on_the_recorded_counterexample():
    test_streamed_matches_monolithic.hypothesis.inner_test(
        recorded_counterexample(), "avg"
    )


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=10, deadline=None)
def test_index_join_agrees(workload, kind):
    points, polygons = workload
    result = IndexJoin(mode="gpu", grid_resolution=32).execute(
        points, polygons, AGGS[kind]("v")
    )
    check(result, points, polygons, kind)


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg", "sum"]))
@settings(max_examples=10, deadline=None)
def test_pyramid_warm_agrees_with_exact(workload, kind):
    """A prewarmed statement is the un-prewarmed one bit for bit —
    values and every channel, specials on boundary and interior pixels
    alike: there is one comparator."""
    points, polygons = workload
    exact = AccurateRasterJoin(
        resolution=128, grid_resolution=32,
        session=QuerySession(store=False),
    ).execute(points, polygons, AGGS[kind]("v"))
    assert exact.stats.extra["pyramid"] == "cold"
    eng = AccurateRasterJoin(
        resolution=128, grid_resolution=32,
        session=QuerySession(store=False),
    )
    eng.prewarm(points, polygons)
    warm = eng.execute(points, polygons, AGGS[kind]("v"))
    assert warm.stats.extra["pyramid"] == "hit"
    assert warm.stats.points_processed == exact.stats.boundary_points
    assert np.array_equal(warm.values, exact.values, equal_nan=True)
    assert set(warm.channels) == set(exact.channels)
    for name, channel in exact.channels.items():
        assert np.array_equal(warm.channels[name], channel, equal_nan=True)
    check(warm, points, polygons, kind)


# ----------------------------------------------------------------------
# Non-finite coordinates
# ----------------------------------------------------------------------
@st.composite
def nonfinite_coordinates(draw):
    """Random points with NaN / +inf / -inf in ``x`` and/or ``y``."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 600))
    rng = np.random.default_rng(seed)
    coords = [rng.uniform(0, 100, n_points), rng.uniform(0, 100, n_points)]
    for axis in draw(st.sampled_from([(0,), (1,), (0, 1)])):
        for special in (np.nan, np.inf, -np.inf):
            share = draw(st.floats(0.02, 0.2))
            coords[axis][rng.uniform(0.0, 1.0, n_points) < share] = special
    points = PointDataset(
        coords[0], coords[1], {"v": rng.integers(-50, 50, n_points) * 0.5}
    )
    polys = [draw(star_polygons(center=(35, 40), max_radius=30.0))]
    polys.append(rectangle(-1, -1, 101, 101))
    return points, PolygonSet(polys)


def finite_rows(points):
    """The oracle's rule: a point with a non-finite coordinate is
    outside everything, i.e. the input without it."""
    keep = np.flatnonzero(np.isfinite(points.xs) & np.isfinite(points.ys))
    return points.take(keep)


def oracle(points, polygons, kind):
    """Brute-force count / sum over the finite rows (dyadic values, so
    the float sum is exact whatever its grouping)."""
    finite = finite_rows(points)
    vals = finite.column("v")
    out = []
    for poly in polygons:
        inside = poly.contains_points(finite.xs, finite.ys)
        out.append(inside.sum() if kind == "count" else vals[inside].sum())
    return np.asarray(out, dtype=np.float64)


COORD_AGGS = {"count": Count, "sum": lambda: Sum("v")}


@given(nonfinite_coordinates(), st.sampled_from(["count", "sum"]),
       st.sampled_from([None, 64, 32]))
@settings(max_examples=15, deadline=None)
def test_nonfinite_coordinates_are_outside_exact_engines(workload, kind,
                                                         max_fbo):
    """Accurate (1 / 4 / 16 tiles) and the index join equal the oracle,
    silently."""
    points, polygons = workload
    device = None if max_fbo is None else GPUDevice(max_resolution=max_fbo)
    want = oracle(points, polygons, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        accurate = AccurateRasterJoin(
            resolution=128, grid_resolution=32, device=device
        ).execute(points, polygons, COORD_AGGS[kind]())
        index = IndexJoin(mode="gpu", grid_resolution=32).execute(
            points, polygons, COORD_AGGS[kind]()
        )
    assert accurate.stats.extra["tiles"] == {None: 1, 64: 4, 32: 16}[max_fbo]
    assert np.array_equal(accurate.values, want)
    assert np.array_equal(index.values, want)


@given(nonfinite_coordinates(), st.sampled_from(["count", "sum"]))
@settings(max_examples=10, deadline=None)
def test_nonfinite_coordinates_are_outside_bounded(workload, kind):
    """The bounded join's answer is bit for bit its answer over the
    finite rows alone, silently."""
    points, polygons = workload
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = BoundedRasterJoin(resolution=128).execute(
            points, polygons, COORD_AGGS[kind]()
        )
    want = BoundedRasterJoin(resolution=128).execute(
        finite_rows(points), polygons, COORD_AGGS[kind]()
    )
    assert np.array_equal(got.values, want.values)
