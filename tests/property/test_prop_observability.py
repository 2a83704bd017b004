"""Property tests for stats and trace invariants across the stack.

Three invariants, over random workloads x engines x backends x
streamed/monolithic execution:

* the §7.1 identity ``query_s == transfer_s + processing_s +
  partition_s + io_s`` (and every component non-negative);
* work counters are non-negative integers;
* in a recorded span tree, the children of any *sequential* span fit
  inside their parent's duration.  Spans flagged ``concurrent=True``
  (parallel tile dispatch, the multicore PIP join, the parallel PIP
  refinement) are exempt: their children overlap in wall time, so the
  child sum may legitimately exceed the parent.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    BoundedRasterJoin,
    GPUDevice,
    IndexJoin,
    MaterializingJoin,
    PointDataset,
    PolygonSet,
)
from repro.exec.config import EngineConfig
from repro.geometry.polygon import rectangle
from repro.obs import trace
from tests.conftest import random_star_polygon

#: Slack for float addition when comparing child sums to parents.
_EPS = 1e-6

ENGINES = (
    lambda cfg: AccurateRasterJoin(
        resolution=96, device=GPUDevice(max_resolution=48), config=cfg
    ),
    lambda cfg: BoundedRasterJoin(
        resolution=96, device=GPUDevice(max_resolution=48), config=cfg
    ),
    lambda cfg: IndexJoin(mode="gpu", config=cfg),
    lambda cfg: MaterializingJoin(config=cfg),
    lambda cfg: MaterializingJoin(truncate_bits=None, config=cfg),
)

#: Pinned counterexample inputs: both points lie outside the only
#: polygon's MBR, so the materializing join is left with no candidate
#: pair to refine (it used to index the empty pair list), and 16-bit
#: truncation must not clip them onto the bbox border.
_FAR_POINTS = PointDataset(np.array([0.0, 100.0]), np.array([0.0, 100.0]))
_SQUARE = PolygonSet([rectangle(40.0, 40.0, 60.0, 60.0)])


@st.composite
def workloads(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 1200))
    n_polys = draw(st.integers(1, 3))
    backend = draw(st.sampled_from(["serial", "thread", "process"]))
    engine_idx = draw(st.integers(0, len(ENGINES) - 1))
    streamed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
    )
    centers = [(30.0, 30.0), (70.0, 60.0), (40.0, 75.0)]
    polygons = PolygonSet(
        [
            random_star_polygon(rng, center=centers[k],
                                radius_range=(4.0, 22.0))
            for k in range(n_polys)
        ]
    )
    return points, polygons, backend, engine_idx, streamed


def _check_stats(stats):
    assert stats.query_s == (
        stats.transfer_s + stats.processing_s
        + stats.partition_s + stats.io_s
    )
    for name in ("transfer_s", "processing_s", "partition_s", "io_s",
                 "triangulation_s", "index_build_s", "polygon_pass_s"):
        assert getattr(stats, name) >= 0.0, name
    for name in ("pip_tests", "points_processed", "points_filtered_out",
                 "boundary_points", "passes", "batches",
                 "bytes_transferred", "prepared_hits", "prepared_misses",
                 "prepared_store_hits", "prepared_delta_hits"):
        assert getattr(stats, name) >= 0, name
    for key, value in stats.extra.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            assert value >= 0, key


def _check_span_containment(span):
    assert span.duration_s >= 0.0, span.name
    if not span.attrs.get("concurrent", False):
        child_sum = sum(c.duration_s for c in span.children)
        assert child_sum <= span.duration_s + _EPS, (
            span.name, child_sum, span.duration_s,
        )
    for child in span.children:
        _check_span_containment(child)


@given(workloads())
@example(workload=(_FAR_POINTS, _SQUARE, "serial", 3, False))
@example(workload=(_FAR_POINTS, _SQUARE, "serial", 4, False))
@settings(max_examples=12, deadline=None)
def test_stats_identity_and_span_containment(workload):
    points, polygons, backend, engine_idx, streamed = workload
    # An ambient tracer (the EXPLAIN ANALYZE entry path) traces the query
    # without touching the environment, keeping hypothesis examples pure.
    tracer = trace.Tracer("test")
    engine = ENGINES[engine_idx](EngineConfig(backend=backend, workers=2))
    try:
        with trace.use(tracer):
            if streamed:
                result = engine.execute_stream(
                    lambda: points.batches(max(1, len(points) // 3)),
                    polygons,
                )
            else:
                result = engine.execute(points, polygons)
    finally:
        engine.close()
    _check_stats(result.stats)
    assert result.trace is not None
    _check_span_containment(result.trace)
