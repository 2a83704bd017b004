"""Table 2: choice of GPU baseline.

The paper compares its fused Index Join against Zhang et al.'s
materializing join at three input sizes and finds the fused join 2-3x
faster "mainly due to avoiding the materialization of the join result".
The comparator here is :class:`repro.core.materializing.MaterializingJoin`
(point quadtree + MBR filter + materialized candidate pairs + separate
aggregation pass, 16-bit coordinate truncation).
"""

import time

import pytest

from benchmarks import harness
from repro import IndexJoin, MaterializingJoin

#: Scaled from the paper's 57.7M / 111.7M / 168.4M points.
SIZES = [500_000, 1_000_000, 2_000_000]


def _table():
    return harness.table(
        "table2",
        "Choice of GPU baseline (fused Index Join vs Zhang-style)",
        ["points", "zhang_style_s", "index_join_s", "speedup"],
    )


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("n", SIZES)
def test_table2_baseline_choice(benchmark, taxi, neighborhoods, n):
    points = taxi.head(n)
    zhang = MaterializingJoin(truncate_bits=16)
    fused = IndexJoin(mode="gpu", grid_resolution=1024)

    start = time.perf_counter()
    zhang.execute(points, neighborhoods)
    zhang_s = time.perf_counter() - start

    result = benchmark.pedantic(
        lambda: fused.execute(points, neighborhoods), rounds=1, iterations=1
    )
    fused_s = result.stats.query_s

    _table().add_row(n, zhang_s, fused_s, zhang_s / max(fused_s, 1e-12))
    benchmark.extra_info.update(zhang_s=zhang_s, fused_s=fused_s)
    assert fused_s < zhang_s, (
        "the fused index join must beat the materializing comparator"
    )
