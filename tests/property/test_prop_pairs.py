"""Property tests for the boundary join's record.

Which boundary rows pair with which polygons, and which pairs match,
depends on the points, the artifact, the tile and the batch cut alone —
never on the filter or the aggregate — so a session-held artifact
records it per point source and kernel, and a later statement over the
pairing replays it: its filter masks the recorded matches, its
aggregate folds them (``repro.core.tiles._Record``).  Whatever ran the
join, a statement answers **bit for bit** what a session-less engine —
which keeps no record — answers: for every aggregate kind, zero to two
filters, one and sixteen tiles under a device that cuts every tile into
batches, prewarmed or not, serial or threaded, alone or fused.  The
second half pins the record's safety: a source mutated in place never
replays one, racing first statements agree, the process backend ships
its record home, and a delta's windowed statement neither reads nor
writes one.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
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
from repro.serve import ServeConfig
from repro.sql.planner import QueryPlanner
from tests.conftest import random_star_polygon
from tests.serve.test_server import _Blocker

AGGREGATES = (
    lambda: Count(),
    lambda: Sum("val"),
    lambda: Average("val"),
    lambda: Min("val"),
    lambda: Max("val"),
)
FILTERS = (
    Filter("flt", ">=", 0.0),
    Filter("flt", "<", 1.0),
    Filter("val", ">", -5.0),
)
#: (resolution, device framebuffer limit) per tile count.
LAYOUTS = {1: (64, 64), 16: (128, 32)}


def _engine(tiles, session=None, backend="serial", workers=1):
    """A device whose byte limit leaves ~3 KB for points beside the
    largest framebuffer reservation: every tile's rows cross it in
    several batches."""
    resolution, limit = LAYOUTS[tiles]
    return AccurateRasterJoin(
        resolution=resolution, grid_resolution=32, session=session,
        device=GPUDevice(max_resolution=limit,
                         capacity_bytes=16 * limit * limit + 3072),
        config=EngineConfig(backend=backend, workers=workers),
    )


def _workload(seed=5, n=1_500):
    rng = np.random.default_rng(seed)
    polygons = PolygonSet([
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(10.0, 30.0), vertices=9),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(8.0, 25.0), vertices=6),
        Polygon([(0, 0), (100, 0), (100, 100), (0, 100)]),
    ])
    return PointDataset(
        rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n), {
            "val": rng.normal(0.0, 10.0, n),
            "flt": rng.normal(0.0, 1.0, n),
        },
    ), polygons


POINTS, POLYGONS = _workload()


def same_bits(got, want):
    assert np.array_equal(got.values, want.values, equal_nan=True)
    for name, channel in want.channels.items():
        assert np.array_equal(got.channels[name], channel, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.integers(0, len(AGGREGATES) - 1),
    picks=st.lists(st.integers(0, len(FILTERS) - 1), max_size=2,
                   unique=True),
    tiles=st.sampled_from(sorted(LAYOUTS)),
    prewarm=st.booleans(),
    backend=st.sampled_from(["serial", "thread"]),
)
def test_recorded_statements_equal_a_sessionless_engine(
    kind, picks, tiles, prewarm, backend
):
    filters = [FILTERS[i] for i in picks]
    want = _engine(tiles).execute(
        POINTS, POLYGONS, AGGREGATES[kind](), filters
    )
    assert "pairs" not in want.stats.extra
    engine = _engine(tiles, QuerySession(store=False), backend, 2)
    if prewarm:
        engine.prewarm(POINTS, POLYGONS)
    first = engine.execute(POINTS, POLYGONS, AGGREGATES[kind](), filters)
    assert first.stats.extra["pairs"] == "built"
    assert first.stats.extra["pyramid"] == ("hit" if prewarm else "cold")
    same_bits(first, want)
    # Another aggregate over the same columns and framebuffer bytes —
    # the same batch cut — replays the same record.
    sibling = AGGREGATES[(0, 3, 2, 4, 1)[kind]]()
    other = engine.execute(POINTS, POLYGONS, sibling, filters)
    assert other.stats.extra["pairs"] == "recorded"
    same_bits(other, _engine(tiles).execute(
        POINTS, POLYGONS, sibling, filters
    ))
    again = engine.execute(POINTS, POLYGONS, AGGREGATES[kind](), filters)
    assert again.stats.extra["pairs"] == "recorded"
    assert again.stats.pip_tests == 0 < first.stats.pip_tests
    assert again.stats.boundary_points == want.stats.boundary_points
    same_bits(again, want)


@pytest.mark.parametrize("tiles", sorted(LAYOUTS))
def test_a_fused_group_through_the_server_replays_the_record(tiles):
    """Statements the server fuses into one ``MultiAggregate``
    execution share the record the solo statements built."""
    # Threads: the server's fused group, whatever $REPRO_EXEC_BACKEND.
    planner = QueryPlanner(
        device=GPUDevice(max_resolution=1024 if tiles == 1 else 256),
        config=EngineConfig(backend="thread", workers=2),
    )
    planner.register_points("pts", POINTS)
    planner.register_regions("zones", POLYGONS)
    statements = [
        f"SELECT {agg} FROM pts, zones WHERE pts.loc INSIDE "
        "zones.geometry AND flt >= 0.0 GROUP BY zones.id"
        for agg in ("COUNT(*)", "SUM(val)", "AVG(val)")
    ]
    solos = [planner.execute(sql) for sql in statements]
    assert solos[0].stats.extra["pairs"] == "built"
    with planner.server(ServeConfig(max_workers=2)) as server:
        blocker = _Blocker(server, workers=2)
        futures = [server.submit(sql) for sql in statements]
        blocker.done()
        for future, solo in zip(futures, solos):
            result = future.result(30.0)
            assert result.stats.extra["fused_queries"] == 3
            assert result.stats.extra["pairs"] == "recorded"
            assert result.stats.pip_tests == 0
            same_bits(result, solo)
    planner.close()


def test_a_mutated_source_never_replays_a_record():
    """The record is keyed by the session's content guard: a column
    written in place keys a new one, and the answer follows the data."""
    points, polygons = _workload(seed=9)
    engine = _engine(16, QuerySession(store=False))
    engine.execute(points, polygons, Sum("val"))
    assert engine.execute(points, polygons, Sum("val")).stats.extra[
        "pairs"] == "recorded"
    xs = points.column("x")
    xs[:] = xs[::-1].copy()
    result = engine.execute(points, polygons, Sum("val"))
    assert result.stats.extra["partition"] == "on"
    assert result.stats.extra["pairs"] == "built"
    same_bits(result, _engine(16).execute(points, polygons, Sum("val")))


def test_two_threads_race_a_pairings_first_statement():
    session = QuerySession(store=False)
    want = _engine(16).execute(POINTS, POLYGONS, Average("val"))
    start = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        engine = _engine(16, session)
        start.wait()
        results[slot] = engine.execute(POINTS, POLYGONS, Average("val"))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    for result in results:
        same_bits(result, want)
    replayed = _engine(16, session).execute(POINTS, POLYGONS, Average("val"))
    assert replayed.stats.extra["pairs"] == "recorded"
    same_bits(replayed, want)


def test_the_process_backend_ships_its_record_home():
    want = _engine(16).execute(POINTS, POLYGONS, Max("val"), [FILTERS[0]])
    with _engine(16, QuerySession(store=False), "process", 2) as engine:
        first = engine.execute(POINTS, POLYGONS, Max("val"), [FILTERS[0]])
        again = engine.execute(POINTS, POLYGONS, Max("val"), [FILTERS[0]])
    assert first.stats.extra["pairs"] == "built"
    assert again.stats.extra["pairs"] == "recorded"
    assert again.stats.pip_tests == 0
    same_bits(first, want)
    same_bits(again, want)


def test_a_windowed_delta_neither_reads_nor_writes_a_record():
    session = QuerySession(store=False)
    engine = _engine(16, session)
    engine.execute(POINTS, POLYGONS, Sum("val"))
    (base,) = session._entries.values()
    (routing,) = session._point_cache.values()
    recorded = dict(base.answers.pairs(routing.guard, engine.kernel.token))
    assert recorded
    ring = POLYGONS[1].exterior.copy()
    ring[0] += (1.5, -2.0)
    edited = PolygonSet([POLYGONS[0], Polygon(ring), POLYGONS[2]])
    result = engine.execute(POINTS, edited, Sum("val"))
    assert result.stats.extra["prepared"] == "delta"
    assert "polygons_recomputed" in result.stats.extra
    assert "pairs" not in result.stats.extra
    delta = next(entry for entry in session._entries.values()
                 if entry is not base)
    assert delta.answers.pairs(routing.guard, engine.kernel.token) is None
    book = base.answers.pairs(routing.guard, engine.kernel.token)
    assert book.keys() == recorded.keys()
    assert all(book[key] is recorded[key] for key in book)
    same_bits(result, _engine(16).execute(POINTS, edited, Sum("val")))
