"""QuerySession thread-safety: one session hammered from many threads.

The serving layer shares a single session across concurrent queries, so
every mutation path — prepared-state insert/lookup, partition cache,
cached channels, invalidation, byte accounting — must hold up under
races.  Before the coarse RLock, concurrent ``prepared_for`` calls could
corrupt the LRU dicts mid-``popitem`` and double-count byte budgets.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    Count,
    Filter,
    Max,
    Min,
    PointDataset,
    QuerySession,
    Sum,
)
from repro.obs import metrics
from tests.conftest import random_star_polygon
from repro.exec.partition import route_chunk
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas

THREADS = 8
ROUNDS = 12


@pytest.fixture
def polygon_sets(rng):
    return [
        PolygonSet([
            random_star_polygon(rng, center=(40.0 + 5 * i, 50.0)),
            random_star_polygon(rng, center=(60.0, 40.0 + 5 * i)),
        ])
        for i in range(4)
    ]


def test_eight_thread_hammer(rng, polygon_sets):
    session = QuerySession(capacity=3)
    spec = ("accurate", 128, 128, 8192)
    attrs = {f"a{i}": rng.uniform(0.0, 1.0, 2000) for i in range(6)}
    points = PointDataset(
        rng.uniform(0.0, 100.0, 2000), rng.uniform(0.0, 100.0, 2000), attrs
    )
    canvas = Canvas(BBox(0.0, 0.0, 100.0, 100.0), 64, 64)
    routing = route_chunk(points, canvas, list(canvas.tiles(32)), 32)
    bare = routing.nbytes
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def hammer(worker: int) -> None:
        try:
            barrier.wait(10.0)
            local = np.random.default_rng(worker)
            for round_no in range(ROUNDS):
                polygons = polygon_sets[(worker + round_no) % len(polygon_sets)]
                prepared, source = session.prepared_for(polygons, spec)
                assert isinstance(source, str)
                assert prepared is not None
                token = ("partition", worker % 2)
                if local.random() < 0.5:
                    session.partition_store(points, token, routing)
                else:
                    session.partition_lookup(points, token)
                # Statements reading other column sets share the routing:
                # each column is gathered once, by whoever comes first.
                columns = tuple(local.choice(list(attrs), 3, replace=False))
                for batches in routing.per_tile(points, columns, None,
                                                [0] * 4):
                    for batch in batches:
                        assert len(batch.column(columns[0])) == len(batch)
                session.contains(polygons, spec)
                session.warmth(polygons, spec)
                assert len(session) >= 0
                assert session.nbytes >= 0
                assert session.partition_nbytes >= 0
                if local.random() < 0.2:
                    session.invalidate(polygons)
                session.checkpoint()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt inside read-modify-writes
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # The budget stayed consistent: re-derive it from scratch.
    assert 0 <= len(session) <= 3
    # No column's bytes were lost to a racing gather (or counted twice).
    assert routing.nbytes == bare + len(attrs) * points.xs.nbytes
    for name, values in attrs.items():
        assert np.array_equal(routing._columns[name], values[routing.order])


def test_concurrent_executions_share_session_bit_identically(
    rng, uniform_points, three_regions
):
    """Eight threads executing through one shared session agree exactly."""
    session = QuerySession()
    engine = AccurateRasterJoin(resolution=128, session=session)
    reference = engine.execute(uniform_points, three_regions)
    results: dict[int, np.ndarray] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def run(worker: int) -> None:
        try:
            barrier.wait(10.0)
            worker_engine = AccurateRasterJoin(
                resolution=128, session=session
            )
            results[worker] = worker_engine.execute(
                uniform_points, three_regions
            ).values
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not errors, errors
    assert len(results) == THREADS
    for values in results.values():
        assert np.array_equal(values, reference.values)


def test_prewarmed_pairing_builds_each_channel_once(uniform_points,
                                                    three_regions):
    """Eight threads, each with its own (column, filter) statement, meet
    on one prewarmed pairing: every channel is scattered exactly once —
    by whoever needs it first — and every answer is its solo bits."""
    late = [Filter("hour", ">=", 12)]
    statements = [
        (Count(), None), (Sum("fare"), None), (Average("fare"), late),
        (Min("fare"), None), (Max("fare"), late), (Sum("hour"), late),
        (Count(), late), (Average("hour"), None),
    ]
    assert len(statements) == THREADS
    #: (blend, column, filtered): what a cached channel is keyed by.
    distinct = {
        (aggregate.blend, column, filters is not None)
        for aggregate, filters in statements
        for column in aggregate.channels.values()
    }
    solo = [
        AccurateRasterJoin(resolution=128).execute(
            uniform_points, three_regions, aggregate, filters
        )
        for aggregate, filters in statements
    ]
    session = QuerySession(store=False)
    engine = AccurateRasterJoin(resolution=128, session=session)
    engine.execute(uniform_points, three_regions)  # the artifact, once
    engine.prewarm(uniform_points, three_regions)
    metrics.REGISTRY.reset()
    results: dict[int, object] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def run(worker: int) -> None:
        try:
            aggregate, filters = statements[worker]
            mine = AccurateRasterJoin(resolution=128, session=session)
            barrier.wait(10.0)
            for _ in range(3):
                results[worker] = mine.execute(
                    uniform_points, three_regions, aggregate, filters
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    builds = metrics.snapshot()["counters"].get("session_channel_builds")
    assert builds == len(distinct)
    assert sum(
        state.kind == "channel" for state in session._point_cache.values()
    ) == len(distinct)
    for worker, want in enumerate(solo):
        got = results[worker]
        assert got.stats.extra["pyramid"] == "hit"
        assert np.array_equal(got.values, want.values, equal_nan=True)
        for name, channel in want.channels.items():
            assert np.array_equal(got.channels[name], channel, equal_nan=True)


@pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
def test_checkpoint_from_a_second_thread_while_tile_loops_run(
    uniform_points, three_regions, tmp_path, stored
):
    """A budget pass on another serving thread may demote an artifact
    at any moment of a tile loop.  Demotion only drops the entry from
    the session — the loop holding it finishes on its own reference and
    the next statement rebuilds it, or with a store attached saves it
    first and reloads it — so every statement still answers the
    undisturbed bits with the undisturbed PIP count, and the budget
    holds once the threads are done."""
    from repro import ArtifactStore, GPUDevice

    def engine(session):
        return AccurateRasterJoin(
            resolution=128, grid_resolution=32, session=session,
            device=GPUDevice(max_resolution=64),  # 4 tiles
        )

    statements = [Count(), Sum("fare"), Min("fare"), Average("hour")]
    solo = [
        engine(None).execute(uniform_points, three_regions, aggregate)
        for aggregate in statements
    ]
    probe = QuerySession(store=False)
    engine(probe).execute(uniform_points, three_regions)
    store = ArtifactStore(tmp_path / "s") if stored else False
    session = QuerySession(store=store, byte_budget=probe.nbytes // 2)
    serving = engine(session)
    done = threading.Event()
    errors: list[BaseException] = []

    def checkpoint() -> None:
        try:
            while not done.is_set():
                session.checkpoint()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    checkpointer = threading.Thread(target=checkpoint)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        checkpointer.start()
        results = [
            [serving.execute(uniform_points, three_regions, aggregate)
             for _ in range(6)]
            for aggregate in statements
        ]
    finally:
        done.set()
        checkpointer.join(10.0)
        sys.setswitchinterval(interval)
    assert not checkpointer.is_alive()
    assert not errors, errors
    assert session.demotions > 0
    assert session.nbytes <= session.byte_budget
    if stored:
        assert store.saves >= 1 and store.load_failures == 0
        assert any(got.stats.extra["prepared"] == "store-hit"
                   for runs in results for got in runs)
    for runs, want in zip(results, solo):
        for got in runs:
            assert got.stats.pip_tests == want.stats.pip_tests
            assert np.array_equal(got.values, want.values, equal_nan=True)
            for name, channel in want.channels.items():
                assert np.array_equal(
                    got.channels[name], channel, equal_nan=True
                )
