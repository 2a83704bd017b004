"""Figure 8: scaling with points, data fits in device memory.

Paper panels: (left) speedup over the single-CPU baseline, (right) total
query time vs. input size, for Taxi ⋈ Neighborhoods.  Expected shape:
bounded raster join scales best (it eliminates all PIP tests — its point
pass is a histogram and its polygon pass is independent of N); accurate
performs fewer PIP tests than the index-join baseline; every GPU approach
sits orders of magnitude above the scalar CPU loop.

Substrate note: NumPy's vectorized PIP is relatively cheaper than
divergent per-thread PIP on real GPUs, so the bounded variant's win over
the fused index join emerges at larger N than in the paper — the
crossover is part of the reproduced series.
"""

import pytest

from benchmarks import harness
from repro import AccurateRasterJoin, BoundedRasterJoin, GPUDevice, IndexJoin

SIZES = [500_000, 1_000_000, 2_000_000, 4_000_000]
EPSILON_M = 10.0  # the paper's default ε for NYC polygons

_cpu_anchor: dict = {}


def _table():
    return harness.table(
        "fig8",
        "In-memory scaling, Taxi ⋈ Neighborhoods (ε = 10 m)",
        ["engine", "points", "query_s", "speedup_vs_single_cpu"],
    )


def _cpu_seconds_per_point(taxi, neighborhoods) -> float:
    if "sec_per_point" not in _cpu_anchor:
        _cpu_anchor["sec_per_point"] = harness.single_cpu_seconds_per_point(
            taxi, neighborhoods
        )
    return _cpu_anchor["sec_per_point"]


def _run(benchmark, engine, points, polygons, label, resident_columns=("x", "y")):
    device = engine.device
    resident = device.make_resident(
        {name: points.column(name) for name in resident_columns}
    )
    try:
        result = benchmark.pedantic(
            lambda: engine.execute(resident, polygons), rounds=1, iterations=1
        )
    finally:
        resident.free()
    assert result.stats.transfer_s == 0.0, "in-memory run must not transfer"
    return result


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("n", SIZES)
def test_fig8_bounded(benchmark, taxi, neighborhoods, n):
    engine = BoundedRasterJoin(epsilon=EPSILON_M, device=GPUDevice())
    result = _run(benchmark, engine, taxi.head(n), neighborhoods, "bounded")
    cpu = _cpu_seconds_per_point(taxi, neighborhoods) * n
    _table().add_row("bounded-raster", n, result.stats.query_s,
                     cpu / result.stats.query_s)
    assert result.stats.pip_tests == 0


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("n", SIZES)
def test_fig8_accurate(benchmark, taxi, neighborhoods, n):
    engine = AccurateRasterJoin(resolution=1024, device=GPUDevice())
    result = _run(benchmark, engine, taxi.head(n), neighborhoods, "accurate")
    cpu = _cpu_seconds_per_point(taxi, neighborhoods) * n
    _table().add_row("accurate-raster", n, result.stats.query_s,
                     cpu / result.stats.query_s)


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("n", SIZES)
def test_fig8_index_join(benchmark, taxi, neighborhoods, n):
    engine = IndexJoin(mode="gpu", grid_resolution=1024, device=GPUDevice())
    result = _run(benchmark, engine, taxi.head(n), neighborhoods, "index")
    cpu = _cpu_seconds_per_point(taxi, neighborhoods) * n
    _table().add_row("index-join-gpu", n, result.stats.query_s,
                     cpu / result.stats.query_s)


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("n", [50_000, 100_000])
def test_fig8_cpu_baselines(benchmark, taxi, neighborhoods, n):
    """Measured CPU anchors (larger sizes are linear extrapolations —
    the per-point cost is constant, which this test verifies)."""
    points = taxi.head(n)
    single = IndexJoin(mode="cpu", grid_resolution=1024)
    multi = IndexJoin(mode="multicore", grid_resolution=1024, workers=2)

    result = benchmark.pedantic(
        lambda: single.execute(points, neighborhoods), rounds=1, iterations=1
    )
    single_s = result.stats.query_s
    multi_s = multi.execute(points, neighborhoods).stats.query_s
    _table().add_row("index-join-cpu x1", n, single_s, 1.0)
    _table().add_row("index-join-cpu multicore", n, multi_s,
                     single_s / max(multi_s, 1e-12))

    per_point = single_s / n
    anchor = _cpu_seconds_per_point(taxi, neighborhoods)
    assert 0.3 < per_point / anchor < 3.0, (
        "single-CPU cost must stay linear in N for the extrapolated "
        "speedup axis to be meaningful"
    )


@pytest.mark.benchmark(group="fig8")
def test_fig8_bounded_scales_best(taxi, neighborhoods):
    """The expected shape at the largest N: the bounded join, whose point
    pass is a histogram, answers faster than the accurate join — the
    minimum of three in-memory runs each, the two engines alternating."""
    points = taxi.head(SIZES[-1])
    engines = [
        BoundedRasterJoin(epsilon=EPSILON_M, device=GPUDevice()),
        AccurateRasterJoin(resolution=1024, device=GPUDevice()),
    ]
    residents = [
        engine.device.make_resident(
            {name: points.column(name) for name in ("x", "y")}
        )
        for engine in engines
    ]
    best = dict.fromkeys((engine.name for engine in engines), float("inf"))
    try:
        for _ in range(3):
            for engine, resident in zip(engines, residents):
                seconds = engine.execute(resident, neighborhoods).stats.query_s
                best[engine.name] = min(best[engine.name], seconds)
    finally:
        for resident in residents:
            resident.free()
    bounded, accurate = best.values()
    assert bounded < accurate, best
