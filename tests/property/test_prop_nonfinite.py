"""Property tests: Min/Max/Average with ±inf and NaN attribute values.

Pins the finalize semantics fixed alongside the aggregate pyramid: only
*identity* accumulator slots (regions that saw no value) finalize to
NaN — a legitimate ``-inf`` minimum (or ``+inf`` maximum) passes
through, and a NaN value poisons its region's result on every path
(raster scatter, boundary PIP, pyramid block partials).  The one
documented ambiguity: a region whose true minimum is exactly ``+inf``
is indistinguishable from an empty one and also finalizes to NaN
(mirrored by the reference below).

Checked across engines (accurate, index join), execution backends
(serial, threaded tiles), streamed vs monolithic input, and the
pyramid-warm vs exact accurate paths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    IndexJoin,
    Max,
    Min,
    PointDataset,
    PolygonSet,
    QuerySession,
)
from repro.exec.config import EngineConfig
from repro.geometry.polygon import rectangle
from tests.property.test_prop_geometry import star_polygons


@st.composite
def nonfinite_workloads(draw):
    """Random points whose attribute mixes finite values, ±inf, and NaN."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 800))
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100.0, 100.0, n_points)
    for special in (np.inf, -np.inf, np.nan):
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
        if kind == "avg":
            out.append(
                np.nan if len(inside) == 0
                else float(np.sum(inside)) / len(inside)
            )
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


AGGS = {"min": Min, "max": Max, "avg": Average}


def check(result, points, polygons, kind):
    expect = reference(points, polygons, kind)
    if kind == "avg":
        assert np.allclose(result.values, expect, equal_nan=True)
    else:
        # Min/Max are order-free: exact equality, NaN-for-NaN.
        assert np.array_equal(result.values, expect, equal_nan=True)


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=20, deadline=None)
def test_accurate_nonfinite_semantics(workload, kind):
    points, polygons = workload
    result = AccurateRasterJoin(resolution=128, grid_resolution=32).execute(
        points, polygons, AGGS[kind]("v")
    )
    check(result, points, polygons, kind)


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


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=10, deadline=None)
def test_index_join_agrees(workload, kind):
    points, polygons = workload
    result = IndexJoin(mode="gpu", grid_resolution=32).execute(
        points, polygons, AGGS[kind]("v")
    )
    check(result, points, polygons, kind)


@given(nonfinite_workloads(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=10, deadline=None)
def test_pyramid_warm_agrees_with_exact(workload, kind):
    points, polygons = workload
    # The comparator is a session nothing built a pyramid in (and with no
    # disk tier an earlier example's pyramid could answer from).
    exact = AccurateRasterJoin(
        resolution=128, grid_resolution=32,
        session=QuerySession(store=False),
    ).execute(points, polygons, AGGS[kind]("v"))
    assert exact.stats.extra.get("pyramid") == "cold"
    eng = AccurateRasterJoin(
        resolution=128, grid_resolution=32, session=QuerySession(),
    )
    eng.build_pyramid(points, polygons)
    warm = eng.execute(points, polygons, AGGS[kind]("v"))
    assert warm.stats.extra.get("pyramid") == "hit"
    assert np.array_equal(warm.values, exact.values, equal_nan=True) or (
        kind == "avg" and np.allclose(warm.values, exact.values, equal_nan=True)
    )
    check(warm, points, polygons, kind)
