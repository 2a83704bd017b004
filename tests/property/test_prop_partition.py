"""Property tests for point routing.

The routing guarantee of ``repro.exec.partition``: for random
workloads — including points sitting **exactly on tile seams** and on
interior pixel boundaries — executing over routed points produces
**bit-identical** values and channel arrays to tiles that each scan the
whole input themselves (what every tile of a stream does: the reference
is the same rows as a stream, one chunk when the statement reads a point
source), for every engine, execution backend, worker count, aggregate
kind, and ingestion mode (monolithic and streamed).
Multi-tile canvases are forced via a small device framebuffer limit.
The second half pins the routing *cache*: wherever a tile's rows and
pixels came from the bits are the same, a mutated source is never
answered from a stale entry, and a dashboard holds one entry per canvas.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Filter,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.types import ExecutionStats
from tests.conftest import concat_points, random_star_polygon

#: One instance of each aggregate kind per example — bit-equality must
#: hold for additive, algebraic, and order-statistic blends alike.
AGGREGATE_KINDS = (
    lambda: Count(),
    lambda: Sum("val"),
    lambda: Average("val"),
    lambda: Min("val"),
    lambda: Max("val"),
)

MAX_FBO = 48


def _engine(kind, resolution, backend, workers, session=None, device=None,
            **config):
    cls = AccurateRasterJoin if kind == "accurate" else BoundedRasterJoin
    options = {"grid_resolution": 32} if kind == "accurate" else {}
    # A tiny FBO limit forces multi-tile canvases at these resolutions.
    return cls(
        resolution=resolution, session=session,
        device=device or GPUDevice(max_resolution=MAX_FBO),
        config=EngineConfig(backend=backend, workers=workers, **config),
        **options,
    )


def _tricky_coordinates(engine, polygons):
    """Where routing can go wrong, on the canvas ``engine`` will derive:
    exactly on (and a hair either side of) every tile seam, the canvas
    edges and the lines one pixel outside them, far outside, and on the
    seam crossings four tiles share — the one place the global
    projection and a tile's own transform could disagree."""
    prepared = engine._prepare(polygons, ExecutionStats())
    ext, canvas = prepared.canvas.extent, prepared.canvas
    lines = []
    for lo, hi, step, seams in (
        (ext.xmin, ext.xmax, canvas.pixel_width,
         {t.bbox.xmin for t in prepared.tiles}),
        (ext.ymin, ext.ymax, canvas.pixel_height,
         {t.bbox.ymin for t in prepared.tiles}),
    ):
        at = sorted(seams | {lo, hi, lo - step, hi + step, -1e7, 1e7,
                             lo + 7 * step})
        lines.append(np.concatenate([
            (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)) for c in at
        ]))
    along = np.linspace(5.0, 95.0, 5)
    xs = np.concatenate([np.repeat(lines[0], 5), np.tile(along, len(lines[1])),
                         lines[0]])
    ys = np.concatenate([np.tile(along, len(lines[0])), np.repeat(lines[1], 5),
                         np.resize(lines[1], len(lines[0]))])
    return xs, ys


def _with_seam_points(points, polygons, kind, resolution, rng):
    """Append the tricky coordinates of the *actual* tiling."""
    xs, ys = _tricky_coordinates(
        _engine(kind, resolution, "serial", 1), polygons
    )
    return concat_points(points, PointDataset(
        xs, ys, {"val": rng.normal(0.0, 10.0, len(xs))}
    ))


@st.composite
def partition_workloads(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 600))
    n_polys = draw(st.integers(1, 3))
    resolution = draw(st.sampled_from([96, 144]))
    workers = draw(st.integers(2, 4))
    backend = draw(st.sampled_from(["serial", "thread", "process"]))
    streamed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
        # Signed values stress float summation-order sensitivity.
        {"val": rng.normal(0.0, 10.0, n_points)},
    )
    centers = [(30.0, 30.0), (70.0, 60.0), (40.0, 75.0)]
    polygons = PolygonSet(
        [
            random_star_polygon(
                rng, center=centers[k], radius_range=(4.0, 22.0),
                vertices=int(rng.integers(4, 9)),
            )
            for k in range(n_polys)
        ]
    )
    return points, polygons, resolution, workers, backend, streamed, rng


def _run(engine, points, polygons, aggregate, chunks=None, filters=None):
    """``points`` as a point source, or (``chunks``) as a stream of that
    many chunks — which every tile scans for itself: the path with no
    routing in it."""
    if chunks is None:
        return engine.execute(points, polygons, aggregate, filters)
    step = max(1, -(-len(points) // chunks))
    return engine.execute_stream(
        lambda: points.batches(step), polygons, aggregate, filters
    )


def _assert_bit_identical(reference, result, label):
    assert np.array_equal(reference.values, result.values, equal_nan=True), label
    assert reference.channels.keys() == result.channels.keys(), label
    for name in reference.channels:
        assert np.array_equal(
            reference.channels[name], result.channels[name]
        ), (label, name)


@given(partition_workloads())
@settings(max_examples=5, deadline=None)
def test_partitioned_bit_identical_to_full_scan(workload):
    points, polygons, resolution, workers, backend, streamed, rng = workload
    for kind in ("accurate", "bounded"):
        seamed = _with_seam_points(points, polygons, kind, resolution, rng)
        for make_aggregate in AGGREGATE_KINDS:
            reference = _run(
                _engine(kind, resolution, "serial", 1),
                seamed, polygons, make_aggregate(), 3 if streamed else 1,
            )
            assert reference.stats.extra["tiles"] > 1
            assert reference.stats.extra["partition"] == "scan"
            result = _run(
                _engine(kind, resolution, backend, workers),
                seamed, polygons, make_aggregate(), 3 if streamed else None,
            )
            assert result.stats.extra["partition"] == (
                "scan" if streamed else "on"
            )
            _assert_bit_identical(
                reference, result,
                (kind, backend, workers, streamed,
                 type(make_aggregate()).__name__),
            )


@given(partition_workloads())
@settings(max_examples=3, deadline=None)
def test_partitioned_warm_session_bit_identical(workload):
    """Partitioning composes with prepared-state reuse: warm partitioned
    runs replay boundary masks and coverage yet stay bit-identical."""
    from repro import QuerySession

    points, polygons, resolution, workers, backend, streamed, rng = workload
    seamed = _with_seam_points(points, polygons, "accurate", resolution, rng)
    chunks = 3 if streamed else None
    reference = _run(
        _engine("accurate", resolution, "serial", 1),
        seamed, polygons, Sum("val"), chunks or 1,
    )
    session = QuerySession()
    engine = _engine("accurate", resolution, backend, workers,
                     session=session)
    _run(engine, seamed, polygons, Sum("val"), chunks)
    warm = _run(engine, seamed, polygons, Sum("val"), chunks)
    assert warm.stats.prepared_hits == 1
    _assert_bit_identical(reference, warm, (backend, workers, streamed))


# ----------------------------------------------------------------------
# The routing matrix: every way a tile can come by its rows and pixels
# ----------------------------------------------------------------------
#: tile count -> (canvas resolution, device FBO limit): every tile is
#: 16 x 16 pixels, so one byte budget splits every cell's input alike.
LAYOUTS = {1: (16, 16), 4: (32, 16), 16: (64, 16)}
FILTERS = {
    "no filter": None,
    "keeps some": [Filter("flt", ">=", 0.0)],
    "keeps all": [Filter("flt", ">=", -1e9)],
    "keeps none": [Filter("flt", ">", 1e9)],
}
BACKENDS = {
    "serial": dict(backend="serial", workers=1),
    "thread": dict(backend="thread", workers=3),
    "process+shm": dict(backend="process", workers=2, shm=True),
}


def _matrix_engine(kind, tiles, batched, session=None, backend="serial",
                   workers=1, **config):
    """``batched``: a byte limit that leaves ~3 KB for points beside the
    largest framebuffer reservation (two float64 channels of one tile) —
    at 16-32 bytes a row, every statement's plan has >= 3 batches."""
    resolution, limit = LAYOUTS[tiles]
    capacity = {"capacity_bytes": 16 * limit * limit + 3072} if batched else {}
    return _engine(
        kind, resolution, backend, workers, session,
        GPUDevice(max_resolution=limit, **capacity), **config,
    )


@functools.lru_cache(maxsize=None)
def _matrix_workload(kind, tiles):
    rng = np.random.default_rng(100 + tiles)
    polygons = PolygonSet([
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(10.0, 30.0), vertices=9),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(8.0, 25.0), vertices=6),
        Polygon([(0, 0), (100, 0), (100, 100), (0, 100)]),
    ])
    xs, ys = _tricky_coordinates(_matrix_engine(kind, tiles, False), polygons)
    xs = np.concatenate([rng.uniform(0.0, 100.0, 900), xs])
    ys = np.concatenate([rng.uniform(0.0, 100.0, 900), ys])
    order = rng.permutation(len(xs))
    return PointDataset(xs[order], ys[order], {
        "val": rng.normal(0.0, 10.0, len(xs)),
        "flt": rng.normal(0.0, 1.0, len(xs)),
    }), polygons


@functools.lru_cache(maxsize=None)
def _matrix_references(kind, tiles, batched):
    """Every statement's answer from serial self-scanning tiles — a
    one-chunk stream, the path with no routing in it — shared by the
    backends' cells."""
    points, polygons = _matrix_workload(kind, tiles)
    engine = _matrix_engine(kind, tiles, batched)
    return {
        (index, label): _run(engine, points, polygons, make(), 1, filters)
        for index, make in enumerate(AGGREGATE_KINDS)
        for label, filters in FILTERS.items()
    }


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("batched", [False, True],
                         ids=["one batch", ">=3 batches"])
@pytest.mark.parametrize("tiles", list(LAYOUTS))
@pytest.mark.parametrize("kind", ["accurate", "bounded"])
def test_every_routing_source_gives_the_same_bits(kind, tiles, batched,
                                                  backend):
    """Routed from a warm session (second query), routed cold, routed
    with no session, and every tile scanning for itself (the same rows
    as a one-chunk stream) are bit-identical — per aggregate and filter,
    at 1 / 4 / 16 tiles, with and without a multi-batch device plan, on
    every backend."""
    points, polygons = _matrix_workload(kind, tiles)
    session = QuerySession(store=False)
    plain, cached = (
        _matrix_engine(kind, tiles, batched, held, **BACKENDS[backend])
        for held in (None, session)
    )
    runs = {"scan": ("scan", plain), "routed": ("on", plain),
            "cold": ("on", cached), "warm": ("cached", cached)}
    try:
        for (index, label), want in _matrix_references(
            kind, tiles, batched
        ).items():
            assert want.stats.extra["tiles"] == tiles
            assert want.stats.extra["partition"] == "scan"
            assert not batched or want.stats.batches >= 3 * tiles
            session.invalidate()
            processed = set()
            for name, (partition, engine) in runs.items():
                got = _run(
                    engine, points, polygons, AGGREGATE_KINDS[index](),
                    1 if name == "scan" else None, FILTERS[label],
                )
                where = (name, index, label)
                assert got.stats.extra["partition"] == partition, where
                _assert_bit_identical(want, got, where)
                # A session's artifact records the boundary join of
                # every row on a boundary pixel, its filter applied to
                # the matches (resident workers keep no record): built,
                # the unfiltered statement's tests run; replayed, none.
                pairs = got.stats.extra.get("pairs")
                recorded = kind == "accurate" and name in ("cold", "warm") and (
                    not got.stats.extra["pool"].startswith("resident")
                )
                assert pairs == (
                    None if not recorded
                    else "built" if name == "cold" else "recorded"
                ), where
                pip_tests = want.stats.pip_tests
                if recorded:
                    pip_tests = 0 if name == "warm" else _matrix_references(
                        kind, tiles, batched
                    )[(index, "no filter")].stats.pip_tests
                assert got.stats.pip_tests == pip_tests, where
                assert got.stats.boundary_points == (
                    want.stats.boundary_points
                ), where
                if name != "scan":
                    processed.add(got.stats.points_processed)
                if (name, backend) == ("warm", "process+shm"):
                    # Shared-memory routing really feeds the pool (one
                    # tile, or one at a time, never fans out).
                    assert got.stats.extra["pool"].startswith(
                        "resident"
                    ) == (tiles > 1 and not batched), where
            # Every row is charged once, off-canvas rows included — and
            # a row exactly on a seam once per tile whose own transform
            # takes it, which self-scanning tiles do too.
            (processed,) = processed
            assert len(points) <= processed < len(points) + 40
    finally:
        for engine in (plain, cached):
            engine.close()
        session.invalidate()


# ----------------------------------------------------------------------
# The session's routing entry: never stale, one per canvas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tiles", [1, 4])
def test_mutated_column_is_never_answered_from_a_stale_routing(tiles):
    """Coordinates mutated in place, then an attribute: each time the
    entry is dropped and the source re-routed — reported as ``on``, not
    counted as a hit — and the answer is the fresh engine's."""
    points, polygons = _matrix_workload("accurate", tiles)
    session = QuerySession(store=False)
    engine = _matrix_engine("accurate", tiles, False, session=session)

    def fresh():
        return _matrix_engine("accurate", tiles, False).execute(
            points, polygons, Sum("val")
        )

    def routings():
        return [s for s in session._point_cache.values()
                if s.kind == "partition"]

    assert engine.execute(
        points, polygons, Sum("val")
    ).stats.extra["partition"] == "on"
    warm = engine.execute(points, polygons, Sum("val"))
    assert warm.stats.extra["partition"] == "cached"
    assert session.partition_hits == 1
    before = fresh()
    _assert_bit_identical(before, warm, "unmutated")

    inside = np.flatnonzero(
        polygons[0].contains_points(points.xs, points.ys)
    )
    points.xs[inside[:40]] += 45.0  # out of the first star polygon
    moved = engine.execute(points, polygons, Sum("val"))
    assert moved.stats.extra["partition"] == "on"
    assert session.partition_hits == 1 and len(routings()) == 1
    _assert_bit_identical(fresh(), moved, "coordinates mutated")
    assert not np.array_equal(moved.values, before.values)

    points.column("val")[inside[40:80]] += 1000.0
    revalued = engine.execute(points, polygons, Sum("val"))
    assert revalued.stats.extra["partition"] == "on"
    assert session.partition_hits == 1 and len(routings()) == 1
    _assert_bit_identical(fresh(), revalued, "attribute mutated")
    assert not np.array_equal(revalued.values, moved.values)
    assert engine.execute(
        points, polygons, Sum("val")
    ).stats.extra["partition"] == "cached"


@pytest.mark.parametrize("tiles", [1, 16])
def test_a_dashboard_shares_one_routing_per_canvas(tiles):
    """The ledger's 12-statement pool over one table: the first
    statement routes, the other eleven hit that one entry whatever
    columns and framebuffer bytes they need."""
    from repro.sql.planner import QueryPlanner

    rng = np.random.default_rng(12)
    n = 2_000
    points = PointDataset(rng.uniform(0, 100, n), rng.uniform(0, 100, n), {
        "fare": rng.integers(1, 100, n).astype(np.float64),
        "hour": rng.integers(0, 24, n).astype(np.float64),
    })
    _, polygons = _matrix_workload("accurate", tiles)
    planner = QueryPlanner(
        device=GPUDevice(max_resolution=1024 if tiles == 1 else 256)
    )
    planner.register_points("pts", points)
    planner.register_regions("zones", polygons)
    seen = []
    for function, arg in (("COUNT", "*"), ("SUM", "fare"), ("AVG", "fare"),
                          ("MAX", "fare")):
        for where in ("", " AND hour >= 12.0", " AND fare < 25.0"):
            result = planner.execute(
                f"SELECT {function}({arg}) FROM pts, zones WHERE "
                f"pts.loc INSIDE zones.geometry{where} GROUP BY zones.id"
            )
            assert result.stats.extra["tiles"] == tiles
            seen.append(result.stats.extra["partition"])
    assert seen == ["on"] + ["cached"] * 11
    assert [s.kind for s in planner.session._point_cache.values()] == [
        "partition"
    ]
    planner.close()
