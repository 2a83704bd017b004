"""Ablation benchmarks for the paper's tuning choices.

A2  Grid resolution for the index join (the paper tuned 1024^2 vs 4096^2).
A3  MBR vs exact cell assignment (the paper's §7.1 CPU-baseline tweak).
A4  Canvas tiling overhead at a fixed total resolution.
"""

import numpy as np
import pytest

from benchmarks import harness
from repro import BoundedRasterJoin, GPUDevice, IndexJoin
from repro.index.grid import GridIndex

POINT_COUNT = 1_000_000


# ----------------------------------------------------------------------
# A2: grid resolution
# ----------------------------------------------------------------------
def _a2_table():
    return harness.table(
        "ablation_a2",
        "Index-join grid resolution (build + probe trade-off)",
        ["grid_cells", "build_s", "query_s", "pip_tests"],
    )


@pytest.mark.benchmark(group="ablation-a2")
@pytest.mark.parametrize("resolution", [128, 512, 1024, 4096])
def test_a2_grid_resolution(benchmark, taxi, neighborhoods, resolution):
    points = taxi.head(POINT_COUNT)
    engine = IndexJoin(mode="gpu", grid_resolution=resolution)
    result = benchmark.pedantic(
        lambda: engine.execute(points, neighborhoods), rounds=1, iterations=1
    )
    _a2_table().add_row(
        f"{resolution}^2", result.stats.index_build_s,
        result.stats.query_s, result.stats.pip_tests,
    )


# ----------------------------------------------------------------------
# A3: MBR vs exact cell assignment
# ----------------------------------------------------------------------
def _a3_table():
    return harness.table(
        "ablation_a3",
        "Grid assignment: polygon MBR vs exact geometry (paper §7.1)",
        ["assignment", "build_s", "entries", "query_s", "pip_tests"],
    )


@pytest.mark.benchmark(group="ablation-a3")
@pytest.mark.parametrize("assignment", ["mbr", "exact"])
def test_a3_cell_assignment(benchmark, taxi, neighborhoods, assignment):
    points = taxi.head(POINT_COUNT)
    grid = GridIndex(neighborhoods, resolution=1024, assignment=assignment)
    engine = IndexJoin(
        mode="gpu", grid_resolution=1024, grid_assignment=assignment
    )
    result = benchmark.pedantic(
        lambda: engine.execute(points, neighborhoods), rounds=1, iterations=1
    )
    _a3_table().add_row(
        assignment, grid.build_seconds, grid.num_entries,
        result.stats.query_s, result.stats.pip_tests,
    )
    benchmark.extra_info["pip_tests"] = result.stats.pip_tests


def test_a3_exact_assignment_reduces_pip_tests(taxi, neighborhoods):
    points = taxi.head(200_000)
    mbr = IndexJoin(mode="gpu", grid_assignment="mbr").execute(
        points, neighborhoods
    )
    exact = IndexJoin(mode="gpu", grid_assignment="exact").execute(
        points, neighborhoods
    )
    assert np.array_equal(mbr.values, exact.values)
    assert exact.stats.pip_tests <= mbr.stats.pip_tests


# ----------------------------------------------------------------------
# A4: tiling overhead
# ----------------------------------------------------------------------
def _a4_table():
    return harness.table(
        "ablation_a4",
        "Canvas tiling overhead at fixed total resolution 4096",
        ["max_fbo_side", "tiles", "query_s"],
    )


@pytest.mark.benchmark(group="ablation-a4")
@pytest.mark.parametrize("max_side", [4096, 2048, 1024])
def test_a4_tiling_overhead(benchmark, taxi, neighborhoods, max_side):
    points = taxi.head(POINT_COUNT)
    engine = BoundedRasterJoin(
        resolution=4096, device=GPUDevice(max_resolution=max_side)
    )
    result = benchmark.pedantic(
        lambda: engine.execute(points, neighborhoods), rounds=1, iterations=1
    )
    _a4_table().add_row(max_side, result.stats.extra["tiles"],
                        result.stats.query_s)


def test_a4_tiling_result_invariant(taxi, neighborhoods):
    points = taxi.head(200_000)
    single = BoundedRasterJoin(resolution=2048).execute(points, neighborhoods)
    tiled = BoundedRasterJoin(
        resolution=2048, device=GPUDevice(max_resolution=512)
    ).execute(points, neighborhoods)
    assert np.array_equal(single.values, tiled.values)
