"""Table 1: polygonal data sets and processing costs.

Paper columns: region, #polygons, triangulation time, index creation on
GPU / multi-CPU / single-CPU.  The paper reports milliseconds for the GPU
builds and seconds for the CPU builds; the expected *shape* is
GPU << multi-CPU < single-CPU, with the county set an order of magnitude
costlier than the neighborhoods.

``triangulation_s`` times ``triangulate_set``, the one call the prepare
path makes for a whole set; ``kernel`` says which ear clipper ran it
(``native``: the compiled one, ``python``: the fallback where no compiler
is).  ``outline_s`` sits beside it: one conservative-outline pass over
the whole set at 1024², the exact join's other polygon-side cost (the
triangles cover the interior, the outline marks the pixels that need a
point-in-polygon test).
"""

import time

import pytest

from benchmarks import harness
from repro.geometry import triangulate
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Canvas

GRID_RESOLUTION = 1024


def _table():
    return harness.table(
        "table1",
        "Polygonal data sets and processing costs",
        [
            "region",
            "polygons",
            "vertices",
            "kernel",
            "triangulation_s",
            "outline_s",
            "index_gpu_s",
            "index_multicpu_s",
            "index_singlecpu_s",
        ],
    )


def _measure(polygons, label, benchmark):
    def triangulate_all():
        return triangulate.triangulate_set(list(polygons))

    benchmark.pedantic(triangulate_all, rounds=1, iterations=1)
    start = time.perf_counter()
    triangulate_all()
    tri_s = time.perf_counter() - start

    canvas = Canvas.for_resolution(polygons.bbox, GRID_RESOLUTION)
    view = canvas.full_viewport()
    rings = {pid: p.rings for pid, p in enumerate(polygons)}
    start = time.perf_counter()
    outline_pixels_many(view, rings)
    outline_s = time.perf_counter() - start

    gpu_s = harness.build_grid_gpu(polygons, GRID_RESOLUTION)
    multi_s = harness.build_grid_multicore(polygons, GRID_RESOLUTION)
    single_s = harness.build_grid_python(polygons, GRID_RESOLUTION)
    _table().add_row(
        label, len(polygons), polygons.total_vertices, triangulate.KERNEL,
        tri_s, outline_s, gpu_s, multi_s, single_s,
    )
    benchmark.extra_info.update(
        kernel=triangulate.KERNEL, triangulation_s=tri_s, outline_s=outline_s, index_gpu_s=gpu_s,
        index_multicpu_s=multi_s, index_singlecpu_s=single_s,
    )
    assert gpu_s < single_s, "vectorized build must beat the scalar build"


@pytest.mark.benchmark(group="table1")
def test_table1_neighborhoods(benchmark, neighborhoods):
    _measure(neighborhoods, "NYC-like neighborhoods", benchmark)


@pytest.mark.benchmark(group="table1")
def test_table1_counties(benchmark, counties):
    _measure(counties, "US-like counties", benchmark)
