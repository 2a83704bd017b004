"""Hypothesis property tests for incremental single-polygon edits.

The incremental-edit guarantee of ``repro.cache`` (PR 5): for random
polygon sets, editing k random polygons — replacing their geometry, and
sometimes adding or deleting one — and re-executing through a warm
:class:`QuerySession` takes the **delta derivation** path (only the
changed polygons' artifacts rebuild) yet produces **bit-identical**
values and channel arrays to a cold from-scratch build, for every
engine, execution backend, aggregate kind, and ingestion mode
(monolithic and streamed) — and equally from the pair the edited key
wrote, after a fresh-session "restart" over the same store directory.

The polygon sets carry two fixed anchor rectangles pinning the overall
extent, so edits never change the frame (the realistic rezoning case:
interior boundaries move, the city does not).

Below the answers, the delta's own state: every tile's composed views
(the boundary mask, the run table, the candidate CSR) and the edge
table must equal a from-scratch build's array for array, whether the
delta patched them inside the edit's window or composed them.  And a
chain of strokes that re-aggregates only each window against the
answers its base recorded must answer a sessionless engine's bits.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Filter,
    FilterSet,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from tests.conftest import random_star_polygon

AGGREGATE_KINDS = (
    lambda: Count(),
    lambda: Sum("val"),
    lambda: Average("val"),
    lambda: Min("val"),
    lambda: Max("val"),
)

#: Fixed extent anchors: never edited, so the set bbox (and with it the
#: canvas layout and grid extent) is identical before and after edits.
ANCHORS = (
    Polygon([(0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)]),
    Polygon([(94.0, 94.0), (100.0, 94.0), (100.0, 100.0), (94.0, 100.0)]),
)

CENTERS = ((30.0, 30.0), (70.0, 30.0), (30.0, 70.0), (70.0, 70.0), (50.0, 50.0))


def _interior_polygon(rng: np.random.Generator, slot: int) -> Polygon:
    return random_star_polygon(
        rng,
        center=CENTERS[slot % len(CENTERS)],
        radius_range=(4.0, 18.0),
        vertices=int(rng.integers(4, 9)),
    )


def _engine(kind, resolution, backend, session=None):
    cls = AccurateRasterJoin if kind == "accurate" else BoundedRasterJoin
    return cls(
        resolution=resolution, session=session,
        config=EngineConfig(backend=backend, workers=2),
    )


def _run(engine, points, polygons, aggregate, streamed):
    if not streamed:
        return engine.execute(points, polygons, aggregate=aggregate)

    def chunk_source():
        step = max(1, len(points) // 3)
        vals = points.column("val")
        for start in range(0, len(points), step):
            yield PointDataset(
                points.xs[start:start + step],
                points.ys[start:start + step],
                {"val": vals[start:start + step]},
            )

    return engine.execute_stream(chunk_source, polygons, aggregate=aggregate)


def _assert_bit_identical(reference, result, label):
    assert np.array_equal(reference.values, result.values, equal_nan=True), label
    assert reference.channels.keys() == result.channels.keys(), label
    for name in reference.channels:
        assert np.array_equal(
            reference.channels[name], result.channels[name]
        ), (label, name)


@st.composite
def edit_workloads(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 400))
    n_interior = draw(st.integers(2, 4))
    k_edits = draw(st.integers(1, 2))
    structural = draw(st.sampled_from(["none", "add", "delete"]))
    resolution = draw(st.sampled_from([64, 128]))
    backend = draw(st.sampled_from(["serial", "thread", "process"]))
    streamed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
        {"val": rng.normal(0.0, 10.0, n_points)},
    )
    interior = [_interior_polygon(rng, i) for i in range(n_interior)]
    base = PolygonSet(list(ANCHORS) + interior)
    edited = list(interior)
    edit_slots = rng.choice(n_interior, size=min(k_edits, n_interior),
                            replace=False)
    for slot in edit_slots:
        edited[int(slot)] = _interior_polygon(rng, int(slot))
    if structural == "add" and len(edited) < len(CENTERS):
        edited.append(_interior_polygon(rng, len(edited)))
    elif structural == "delete" and len(edited) > 1:
        edited.pop(int(rng.integers(0, len(edited))))
    after = PolygonSet(list(ANCHORS) + edited)
    return points, base, after, resolution, backend, streamed


@given(edit_workloads())
@settings(max_examples=5, deadline=None)
def test_incremental_edit_bit_identical(workload):
    """Warm-session edits re-execute incrementally and bit-identically."""
    points, base, after, resolution, backend, streamed = workload
    assert base.bbox.xmin == after.bbox.xmin  # anchors pin the frame
    for kind in ("accurate", "bounded"):
        for make_aggregate in AGGREGATE_KINDS:
            reference = _run(
                _engine(kind, resolution, "serial"),
                points, after, make_aggregate(), streamed,
            )
            session = QuerySession(store=False)
            engine = _engine(kind, resolution, backend, session=session)
            _run(engine, points, base, make_aggregate(), streamed)
            result = _run(engine, points, after, make_aggregate(), streamed)
            assert result.stats.extra["prepared"] == "delta", (
                kind, backend, streamed,
            )
            assert result.stats.prepared_delta_hits == 1
            rebuilt = result.stats.extra["polygons_rebuilt"]
            base_fps = {p.fingerprint for p in base}
            expected = sum(1 for p in after if p.fingerprint not in base_fps)
            assert rebuilt == expected, (kind, backend, streamed)
            _assert_bit_identical(
                reference, result,
                (kind, backend, streamed, type(make_aggregate()).__name__),
            )


@given(edit_workloads())
@settings(max_examples=3, deadline=None)
def test_incremental_edit_restarts_from_its_own_pair(workload):
    """With a store attached the edited key persists as a whole pair: a
    fresh session over the same directory answers it with a store hit,
    nothing polygon-side rebuilds, and the bits are a cold build's."""
    points, base, after, resolution, backend, streamed = workload
    reference = _run(
        _engine("accurate", resolution, "serial"),
        points, after, Sum("val"), streamed,
    )
    with tempfile.TemporaryDirectory(prefix="repro-edit-prop-") as root:
        session = QuerySession(store=ArtifactStore(root))
        engine = _engine("accurate", resolution, backend, session=session)
        _run(engine, points, base, Sum("val"), streamed)
        live = _run(engine, points, after, Sum("val"), streamed)
        assert live.stats.extra["prepared"] == "delta"
        _assert_bit_identical(reference, live, (backend, streamed, "live"))

        restarted = QuerySession(store=ArtifactStore(root))
        engine2 = _engine("accurate", resolution, backend,
                          session=restarted)
        again = _run(engine2, points, after, Sum("val"), streamed)
        assert restarted.store_hits == 1
        assert again.stats.prepared_store_hits == 1
        assert again.stats.triangulation_s == 0.0
        assert again.stats.index_build_s == 0.0
        _assert_bit_identical(
            reference, again, (backend, streamed, "restarted")
        )


# ----------------------------------------------------------------------
# The delta's views against a from-scratch build
# ----------------------------------------------------------------------
#: Device limits splitting the 64-pixel canvas into 1, 4 and 16 tiles.
TILE_LIMITS = {1: 64, 4: 32, 16: 16}

#: A sliver well inside one pixel: on the exact path every pixel it has
#: is a boundary pixel, so it owns no run.
SLIVER = ((0.0, 0.0), (0.3, 0.0), (0.0, 0.3))


def _sliver(poly: Polygon) -> Polygon:
    cx, cy = poly.exterior.mean(axis=0)
    return Polygon([(cx + dx, cy + dy) for dx, dy in SLIVER])


def _pull_vertex(poly: Polygon, vertex: int) -> Polygon:
    """Move one vertex 30% toward the ring's centroid, as a rezoning
    stroke does; the neighbours keep theirs, so the cells now overlap
    or leave a gap."""
    ring = poly.exterior.copy()
    vertex %= len(ring)
    ring[vertex] += (ring.mean(axis=0) - ring[vertex]) * 0.3
    return Polygon(ring)


def _zoning(rng: np.random.Generator, cells: int) -> list[Polygon]:
    """A jittered ``cells`` x ``cells`` grid of quads over [15, 85]^2 —
    neighbours share their edges, as a zoning's do — plus a star on the
    canvas centre overlapping the middle cells and crossing the seams."""
    step = 70.0 / cells
    grid = 15.0 + step * np.stack(np.meshgrid(
        np.arange(cells + 1), np.arange(cells + 1), indexing="ij",
    ), axis=-1)
    grid[1:-1, 1:-1] += rng.uniform(-0.2, 0.2, (cells - 1, cells - 1, 2)) * step
    quads = [
        Polygon([grid[i, j], grid[i + 1, j], grid[i + 1, j + 1],
                 grid[i, j + 1]])
        for i in range(cells) for j in range(cells)
    ]
    return quads + [_interior_polygon(rng, 4)]


@st.composite
def view_edits(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    tiles = draw(st.sampled_from(sorted(TILE_LIMITS)))
    kind = draw(st.sampled_from(["accurate", "bounded"]))
    prewarm = kind == "accurate" and draw(st.booleans())
    edit = draw(st.sampled_from(
        ["move", "seam", "add", "remove", "reorder", "no-run"]
    ))
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(200, 600))
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
        {"val": rng.integers(0, 50, n_points).astype(np.float64)},
    )
    interior = _zoning(rng, int(rng.integers(2, 4)))
    at = int(rng.integers(0, len(interior)))
    edited = list(interior)
    if edit == "move":  # one polygon, or two
        for pid in rng.choice(len(interior), int(rng.integers(1, 3)), False):
            edited[pid] = _pull_vertex(interior[pid], int(rng.integers(4)))
    elif edit == "seam":  # the centre star
        edited[-1] = _pull_vertex(interior[-1], int(rng.integers(9)))
    elif edit == "add":
        edited.insert(at, _interior_polygon(rng, int(rng.integers(4))))
    elif edit == "remove":
        edited.pop(at)
    elif edit == "reorder":
        other = (at + 1 + int(rng.integers(len(edited) - 1))) % len(edited)
        edited[at], edited[other] = edited[other], edited[at]
    elif rng.random() < 0.5:  # no-run: a polygon shrinks to a sliver ...
        edited[at] = _sliver(interior[at])
    else:  # ... or a sliver grows back
        interior[at] = _sliver(interior[at])
    # The polygon the edit left a sliver, if any.
    sliver = None
    if edit == "no-run" and edited[at].bbox.width < 1:
        sliver = len(ANCHORS) + at
    base = PolygonSet(list(ANCHORS) + interior)
    after = PolygonSet(list(ANCHORS) + edited)
    return points, base, after, tiles, kind, prewarm, edit, sliver


def _build(kind, tiles, points, polygons, session, prewarm=False):
    cls = AccurateRasterJoin if kind == "accurate" else BoundedRasterJoin
    engine = cls(
        resolution=64, session=session,
        device=GPUDevice(max_resolution=TILE_LIMITS[tiles]),
    )
    if prewarm:
        engine.prewarm(points, polygons)
    result = engine.execute(points, polygons, aggregate=Sum("val"))
    key = (polygons.fingerprint,) + tuple(engine.prepared_spec())
    return engine, result, session._entries[key]


def _assert_views_equal(got, cold, label):
    assert len(got.tiles) == len(cold.tiles), label
    assert set(got.boundary_masks) == set(cold.boundary_masks), label
    for idx in range(len(cold.tiles)):
        if idx in cold.boundary_masks:
            assert np.array_equal(
                got.boundary_masks[idx], cold.boundary_masks[idx]
            ), (label, idx)
        for field in ("coverage", "candidates"):
            views = getattr(got, field), getattr(cold, field)
            assert (idx in views[0]) == (idx in views[1]), (label, field)
            if idx in views[1]:
                for name, mine, theirs in zip(
                    views[1][idx]._fields, views[0][idx], views[1][idx]
                ):
                    assert np.array_equal(mine, theirs), (label, idx, name)
    if cold.edge_table is None:
        assert got.edge_table is None, label
        return
    for name in cold.edge_table.__slots__:
        mine, theirs = (
            getattr(table, name) for table in (got.edge_table, cold.edge_table)
        )
        if name == "mbrs":
            assert all(map(np.array_equal, mine, theirs)), label
        else:
            assert np.array_equal(mine, theirs), (label, name)


@given(view_edits())
@settings(max_examples=40, deadline=None)
def test_delta_views_equal_a_cold_build(workload):
    """A delta's boundary masks, run tables, candidate CSRs and edge
    table are a from-scratch build's on every tile — patched inside the
    edit's window when ids are stable, composed when an add, a remove or
    a reorder moved them — and so are its answers."""
    points, base, after, tiles, kind, prewarm, edit, sliver = workload
    label = (kind, tiles, prewarm, edit)
    session = QuerySession(store=False)
    engine, _, _ = _build(kind, tiles, points, base, session, prewarm)
    assert len(session._entries[next(iter(session._entries))].tiles) == tiles
    result = engine.execute(points, after, aggregate=Sum("val"))
    assert result.stats.extra["prepared"] == "delta", label
    if prewarm:
        assert result.stats.extra["pyramid"] == "hit", label
    key = (after.fingerprint,) + tuple(engine.prepared_spec())
    got = session._entries[key]
    _, reference, cold = _build(
        kind, tiles, points, after, QuerySession(store=False)
    )
    _assert_views_equal(got, cold, label)
    _assert_bit_identical(reference, result, label)
    if kind == "accurate" and sliver is not None:
        # The sliver's pixels are all boundary pixels: no run is its.
        assert all(sliver not in cov.pids for cov in got.coverage.values())


# ----------------------------------------------------------------------
# A stroke re-aggregates only its window
# ----------------------------------------------------------------------
def _stroke_chain(seed, tiles, kind, filtered, strokes):
    """Points, a zoning and the zonings ``strokes`` leave one after
    another, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(300, 700))
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
        {"val": rng.normal(0.0, 10.0, n_points)},
    )
    interior = _zoning(rng, int(rng.integers(2, 4)))
    chain = [PolygonSet(list(ANCHORS) + interior)]
    for stroke in strokes:
        polys = list(chain[-1])[len(ANCHORS):]
        if stroke == "move":
            at = int(rng.integers(0, len(polys) - 1))
            polys[at] = _pull_vertex(polys[at], int(rng.integers(4)))
        elif stroke == "seam":  # the centre star, across the tile seams
            polys[-1] = _pull_vertex(polys[-1], int(rng.integers(9)))
        else:  # a quad shrinks to a sliver: on the exact path, no run
            at = int(rng.integers(0, len(polys) - 1))
            polys[at] = _sliver(polys[at])
        chain.append(PolygonSet(list(ANCHORS) + polys))
    return points, chain, tiles, kind, filtered, strokes


@st.composite
def stroke_chains(draw):
    return _stroke_chain(
        draw(st.integers(0, 2**31 - 1)),
        draw(st.sampled_from(sorted(TILE_LIMITS))),
        draw(st.sampled_from(["accurate", "bounded"])),
        draw(st.booleans()),
        draw(st.lists(
            st.sampled_from(["move", "seam", "no-run"]),
            min_size=1, max_size=3,
        )),
    )


def _cutting_device(kind, tiles, points, aggregate, filters):
    """A device whose every tile takes the points in three or four
    batches: the framebuffer plus a third of the rows."""
    side = TILE_LIMITS[tiles]
    cell = 8 if kind == "accurate" else 4
    columns = AccurateRasterJoin.required_columns(aggregate, filters)
    row_bytes = sum(points.column(name).dtype.itemsize for name in columns)
    return GPUDevice(
        capacity_bytes=len(aggregate.channels) * cell * side * side
        + row_bytes * (len(points) // 3),
        max_resolution=side,
    )


@given(stroke_chains())
# The second stroke moves none of tile 0's pixels, yet the star's edges
# moved: a point there on a pixel both its old and new outline cross
# can change sides, so the star is recomputed wherever it lies.
@example(_stroke_chain(33, 4, "accurate", False, ["seam", "seam"]))
@settings(max_examples=25, deadline=None)
def test_windowed_strokes_equal_a_sessionless_engine(chain_workload):
    """Every stroke of a chain re-aggregates only its window against the
    statement its base answered — fewer polygons than the set, the tiles
    the window missed not at all — and its values and channels are a
    sessionless engine's bit for bit: on 1, 4 and 16 tiles, for both
    kernels, every aggregate, with and without a filter, with every tile
    cut into several device batches."""
    points, chain, tiles, kind, filtered, strokes = chain_workload
    cls = AccurateRasterJoin if kind == "accurate" else BoundedRasterJoin
    filters = FilterSet([Filter("val", ">=", -3.0)] if filtered else [])
    for make_aggregate in AGGREGATE_KINDS:
        aggregate = make_aggregate()
        device = _cutting_device(kind, tiles, points, aggregate, filters)
        engine = cls(resolution=64, device=device,
                     session=QuerySession(store=False))
        first = engine.execute(points, chain[0], aggregate=aggregate,
                               filters=filters)
        assert "polygons_recomputed" not in first.stats.extra
        for step, polygons in enumerate(chain[1:]):
            label = (kind, tiles, filtered, strokes, step, aggregate)
            result = engine.execute(points, polygons, aggregate=aggregate,
                                    filters=filters)
            reference = cls(resolution=64, device=device).execute(
                points, polygons, aggregate=aggregate, filters=filters,
            )
            assert reference.stats.batches >= 2 * tiles, label
            assert result.stats.extra["prepared"] == "delta", label
            recomputed, total = result.stats.extra["polygons_recomputed"]
            assert total == len(polygons), label
            assert recomputed < total, label
            _assert_bit_identical(reference, result, label)
