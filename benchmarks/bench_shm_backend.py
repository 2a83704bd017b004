"""Shared-memory data plane: resident spawn pool vs fork-per-dispatch.

The closure-mode :class:`~repro.exec.backend.ProcessBackend` pays a pool
fork on every dispatch (its tasks are unpicklable closures) plus a
pickle of every worker product on the way home.  The shm data plane
removes both: partition sub-chunks live in named shared-memory segments
exported once, tile tasks become tiny picklable descriptors served by a
persistent pool of spawned workers, and accumulators return through a
shared result buffer.  This benchmark runs the same warm 16-tile query
through both modes and asserts

* every cell is **bit-identical** to the serial reference — worker
  count, dispatch mode, and the shm tier never change a single bit;
* the resident pool answers warm repeated queries at least **2x**
  faster than fork-per-dispatch (the acceptance bar of the shm PR);
* the warm resident queries really did reuse the pool
  (``pool: resident-reused`` — no respawn, no re-export);
* teardown leaves **zero** live shared-memory segments.

Results are written to ``BENCH_shm.json`` at the repository root so
later PRs have a machine-readable perf trajectory to regress against.
"""

import gc
import glob
import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks import harness
from repro import (
    AccurateRasterJoin,
    EngineConfig,
    GPUDevice,
    PointDataset,
    QuerySession,
    Sum,
)
from repro.data import generate_voronoi_regions
from repro.exec import shm
from repro.geometry.bbox import BBox

POINT_ROWS = 200_000
RESOLUTION = 1024
MAX_FBO = 256          # 1024^2 canvas over 256^2 FBOs -> 4x4 = 16 tiles
WORKERS = 4
EXTENT = BBox(0.0, 0.0, 1000.0, 1000.0)
REPEATS = 5
RESULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_shm.json"


def _table():
    return harness.table(
        "shm_backend",
        "Resident shm workers vs fork-per-dispatch (warm 16-tile query)",
        ["cell", "workers", "wall_s", "speedup_vs_fork", "pool",
         "bit_identical"],
    )


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    points = PointDataset(
        rng.uniform(EXTENT.xmin, EXTENT.xmax, POINT_ROWS),
        rng.uniform(EXTENT.ymin, EXTENT.ymax, POINT_ROWS),
        {"val": rng.normal(10.0, 3.0, POINT_ROWS)},
    )
    polygons = generate_voronoi_regions(16, EXTENT, seed=7)
    return points, polygons


def _engine(backend: str, workers: int, use_shm: bool,
            session: QuerySession) -> AccurateRasterJoin:
    return AccurateRasterJoin(
        resolution=RESOLUTION,
        device=GPUDevice(max_resolution=MAX_FBO),
        session=session,
        config=EngineConfig(
            backend=backend, workers=workers, shm=use_shm,
        ),
    )


def _timed_best(engine, points, polygons, aggregate):
    """Best-of-N wall time of a warm query."""
    best = float("inf")
    last = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        last = engine.execute(points, polygons, aggregate=aggregate)
        best = min(best, time.perf_counter() - start)
        assert last.stats.prepared_hits == 1
    return best, last


def _assert_identical(reference, result, label):
    assert np.array_equal(reference.values, result.values), label
    for name in reference.channels:
        assert np.array_equal(
            reference.channels[name], result.channels[name]
        ), (label, name)


@pytest.mark.benchmark(group="shm-backend")
def test_shm_resident_pool_smoke(benchmark, workload):
    points, polygons = workload
    aggregate = Sum("val")
    table = _table()
    record = {
        "benchmark": "shm_backend",
        "points": POINT_ROWS,
        "resolution": RESOLUTION,
        "max_fbo": MAX_FBO,
        "workers": WORKERS,
        "repeats": REPEATS,
        "cells": {},
    }

    # Serial reference: the bits every other cell must reproduce.
    session = QuerySession()
    serial = _engine("serial", 1, False, session)
    reference = serial.execute(points, polygons, aggregate=aggregate)
    assert reference.stats.extra["tiles"] == 16, reference.stats.extra
    serial.close()
    session.invalidate()

    cells = {
        "fork@4w": dict(backend="process", shm=False),
        "resident@4w": dict(backend="process", shm=True),
    }
    timings: dict[str, float] = {}
    results: dict[str, object] = {}
    pool_events: dict[str, str] = {}
    for cell, spec in cells.items():
        session = QuerySession()
        engine = _engine(spec["backend"], WORKERS, spec["shm"], session)
        cold = engine.execute(points, polygons, aggregate=aggregate)
        assert cold.stats.extra["partition"] == "on", cold.stats.extra
        if spec["shm"]:
            assert shm.REGISTRY.live_segments() > 0, (
                "shm tier produced no segments"
            )
        wall, warm = _timed_best(engine, points, polygons, aggregate)
        timings[cell] = wall
        results[cell] = warm
        pool_events[cell] = warm.stats.extra["pool"]
        engine.backend.close()
        engine.close()
        session.invalidate()

    for cell, wall in timings.items():
        _assert_identical(reference, results[cell], cell)
        speedup = timings["fork@4w"] / wall
        table.add_row(cell, WORKERS, wall, speedup, pool_events[cell], True)
        record["cells"][cell] = {
            "workers": WORKERS,
            "wall_s": wall,
            "speedup_vs_fork": speedup,
            "pool": pool_events[cell],
            "bit_identical": True,
        }

    # The persistent spawn pool really served the warm queries.
    assert pool_events["resident@4w"] == "resident-reused", pool_events
    assert pool_events["fork@4w"] == "forked", pool_events

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # ------------------------------------------------------------------
    # Acceptance bars + the machine-readable trajectory record.
    # ------------------------------------------------------------------
    speedup = timings["fork@4w"] / timings["resident@4w"]
    record["speedup_resident_vs_fork"] = speedup
    gc.collect()
    leftovers = glob.glob(f"/dev/shm/{shm.SHM_PREFIX}-*")
    record["live_segments_after_teardown"] = shm.REGISTRY.live_segments()
    record["dev_shm_leftovers"] = leftovers
    record["metrics"] = harness.metrics_snapshot()
    RESULT_JSON.write_text(json.dumps(record, indent=2, sort_keys=True))

    assert speedup >= 2.0, (
        f"resident pool answers warm queries only {speedup:.2f}x faster "
        f"than fork-per-dispatch at {WORKERS} workers (need >= 2x)"
    )
    assert shm.REGISTRY.live_segments() == 0, (
        "registry still holds segments after teardown"
    )
    assert not leftovers, f"stray /dev/shm segments: {leftovers}"
