"""Engine statements on the process backend's fork-per-dispatch pool.

The fork pool is the one way tile tasks leave the calling process: a
statement on it answers serial's bits, cold or warm, through an engine
or the planner; leaves no child behind; and a tile task whose child dies
or raises fails that statement alone — the next one forks afresh and
answers.  ``EngineConfig.shm`` builds nothing of its own.
"""

import multiprocessing

import numpy as np
import pytest

from repro.cache.session import QuerySession
from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Count, Sum
from repro.core.bounded import BoundedRasterJoin
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.errors import ExecutionBackendError
from repro.exec import backend as exec_backend
from repro.exec.backend import ProcessBackend, SerialBackend, ThreadBackend
from repro.exec.config import EngineConfig
from repro.geometry.polygon import Polygon, PolygonSet
from tests.conftest import WorkerKiller

RESOLUTION = 512
MAX_FBO = 256  # 2x2 = 4 tiles
FORK = EngineConfig(backend="process", workers=2)


@pytest.fixture
def points(rng):
    n = 8_000
    return PointDataset(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n),
        {"val": rng.uniform(0, 10, n)},
    )


@pytest.fixture
def polygons():
    return PolygonSet([
        Polygon([(12 * i + 1, 1), (12 * i + 11, 1),
                 (12 * i + 11, 95), (12 * i + 1, 95)])
        for i in range(6)
    ])


@pytest.fixture
def square_zones():
    """A square extent: 1024 pixels under a 256 limit is 4x4 = 16 tiles."""
    return PolygonSet([
        Polygon([(25 * i + 1, 25 * j + 1), (25 * i + 24, 25 * j + 1),
                 (25 * i + 24, 25 * j + 24), (25 * i + 1, 25 * j + 24)])
        for i in range(4) for j in range(4)
    ])


def _engine(config, session=None):
    return AccurateRasterJoin(
        resolution=RESOLUTION, device=GPUDevice(max_resolution=MAX_FBO),
        session=session, config=config,
    )


def serial_reference(points, polygons, aggregate):
    return _engine(EngineConfig(backend="serial")).execute(
        points, polygons, aggregate
    )


def same_bits(got, want):
    np.testing.assert_array_equal(got.values, want.values)
    assert got.channels.keys() == want.channels.keys()
    for name, channel in want.channels.items():
        np.testing.assert_array_equal(got.channels[name], channel)


class TestForkedStatements:
    def test_cold_and_warm_match_serial_and_leave_no_child(
        self, points, polygons
    ):
        ref = serial_reference(points, polygons, Sum("val"))
        assert ref.stats.extra["tiles"] == 4
        session = QuerySession(store=False)
        with _engine(FORK, session) as engine:
            cold = engine.execute(points, polygons, Sum("val"))
            assert not multiprocessing.active_children()
            warm = engine.execute(points, polygons, Sum("val"))
        for res in (cold, warm):
            same_bits(res, ref)
            assert res.stats.extra["pool"] == "forked"
        assert not multiprocessing.active_children()
        assert not exec_backend._FORK_REGISTRY

    def test_bounded_intervals_cross_the_fork(self, points, polygons):
        """The bounded engine's per-tile framebuffers and run tables
        travel home on the partials: its §5 intervals are serial's."""
        def run(config):
            return BoundedRasterJoin(
                resolution=RESOLUTION, compute_bounds=True,
                device=GPUDevice(max_resolution=MAX_FBO), config=config,
            ).execute(points, polygons, Sum("val"))

        ref, forked = run(EngineConfig(backend="serial")), run(FORK)
        assert forked.stats.extra["pool"] == "forked"
        same_bits(forked, ref)
        for name in ("loose_lo", "loose_hi", "expected_lo", "expected_hi",
                     "expected_value"):
            np.testing.assert_array_equal(
                getattr(forked.intervals, name), getattr(ref.intervals, name)
            )

    def test_a_streamed_statement_under_a_device_forks_nothing(
        self, points, polygons
    ):
        """A stream's chunk sizes are unknown, so under a device its
        tiles run one at a time: inline on the fork backend too, with
        serial's bits."""
        chunks = [points.take(np.arange(lo, min(lo + 3_000, len(points))))
                  for lo in range(0, len(points), 3_000)]
        with _engine(FORK) as engine:
            res = engine.execute_stream(lambda: iter(chunks), polygons,
                                        Sum("val"))
        assert res.stats.extra["tiles"] == 4
        assert res.stats.extra["partition"] == "scan"
        assert res.stats.extra["pool"] == "inline"
        same_bits(res, serial_reference(points, polygons, Sum("val")))

    def test_an_edit_after_forked_statements_is_a_delta(self, points,
                                                        polygons):
        """What the children built comes home on their partials, per
        polygon: a later one-polygon edit rebuilds that polygon alone and
        answers a cold serial build's bits."""
        edited = PolygonSet([
            Polygon([(26, 10), (33, 10), (33, 80), (26, 80)])
            if i == 2 else polygon for i, polygon in enumerate(polygons)
        ])
        assert edited.bbox == polygons.bbox
        with _engine(FORK, QuerySession(store=False)) as engine:
            engine.execute(points, polygons, Sum("val"))
            res = engine.execute(points, edited, Sum("val"))
        assert res.stats.extra["pool"] == "forked"
        assert res.stats.extra["prepared"] == "delta"
        assert res.stats.extra["polygons_rebuilt"] == 1
        same_bits(res, serial_reference(points, edited, Sum("val")))

    def test_the_planner_runs_the_fork_pool(self, points, square_zones):
        from repro.sql.planner import QueryPlanner

        sql = (
            "SELECT SUM(val) FROM pts, zones "
            "WHERE pts.location INSIDE zones.geometry GROUP BY zones.id"
        )
        answers = {}
        for name, config in (("serial", EngineConfig(backend="serial")),
                             ("process", FORK)):
            planner = QueryPlanner(
                device=GPUDevice(max_resolution=MAX_FBO), config=config
            )
            try:
                planner.register_points("pts", points)
                planner.register_regions("zones", square_zones)
                answers[name] = [planner.execute(sql) for _ in range(2)]
            finally:
                planner.close()
                planner.session.invalidate()
        cold, warm = answers["process"]
        assert cold.stats.extra["tiles"] == 16
        for res in (cold, warm):
            assert res.stats.extra["pool"] == "forked"
            same_bits(res, answers["serial"][0])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_process_backends_start_no_child(self, points, polygons,
                                                backend):
        with _engine(EngineConfig(backend=backend, workers=2),
                     QuerySession(store=False)) as engine:
            res = engine.execute(points, polygons, Count())
            assert res.stats.extra["partition"] == "on"
            assert res.stats.extra["pool"] != "forked"
            assert not multiprocessing.active_children()


class TestALostTileTask:
    """A tile task's child ending mid-statement fails that statement
    with a typed error; a task raising fails it with the task's own
    error.  Either way nothing is left behind and the engine answers
    its next statement."""

    @pytest.mark.parametrize("warm", [False, True],
                             ids=["sessionless", "session"])
    def test_a_dead_child_fails_the_statement_alone(self, points, polygons,
                                                    warm):
        ref = serial_reference(points, polygons, Sum("val"))
        session = QuerySession(store=False) if warm else None
        with _engine(FORK, session) as engine:
            if warm:
                same_bits(engine.execute(points, polygons, Count()),
                          serial_reference(points, polygons, Count()))
            with pytest.raises(ExecutionBackendError,
                               match="died mid-dispatch"):
                engine.execute(points, polygons, WorkerKiller("val"))
            assert not multiprocessing.active_children()
            assert not exec_backend._FORK_REGISTRY
            res = engine.execute(points, polygons, Sum("val"))
        assert res.stats.extra["pool"] == "forked"
        same_bits(res, ref)

    def test_a_raising_task_surfaces_its_own_error(self, points, polygons):
        ref = serial_reference(points, polygons, Sum("val"))
        lost = FileNotFoundError("tile input gone")
        with _engine(FORK, QuerySession(store=False)) as engine:
            with pytest.raises(FileNotFoundError, match="tile input gone"):
                engine.execute(points, polygons,
                               WorkerKiller("val", raises=lost))
            assert not multiprocessing.active_children()
            same_bits(engine.execute(points, polygons, Sum("val")), ref)


class TestTheShmFieldIsInert:
    """``EngineConfig.shm`` is still constructed by the benchmark ledger
    and builds nothing of its own: the backend it names, as it would
    without the field."""

    @pytest.mark.parametrize("backend, cls", [
        ("serial", SerialBackend), ("thread", ThreadBackend),
        ("process", ProcessBackend),
    ], ids=["serial", "thread", "process"])
    def test_shm_builds_the_named_backend(self, backend, cls):
        for shm in (False, True):
            built = EngineConfig(backend=backend, workers=2,
                                 shm=shm).make_backend()
            assert type(built) is cls
            assert built.workers == (1 if backend == "serial" else 2)

    def test_a_shm_statement_is_the_fork_pools(self, points, polygons):
        config = EngineConfig(backend="process", workers=2, shm=True)
        with _engine(config, QuerySession(store=False)) as engine:
            res = engine.execute(points, polygons, Sum("val"))
        assert res.stats.extra["pool"] == "forked"
        same_bits(res, serial_reference(points, polygons, Sum("val")))
        assert not multiprocessing.active_children()
