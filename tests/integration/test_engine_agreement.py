"""Cross-engine integration tests on realistic synthetic workloads.

Every exact engine must agree bit-for-bit; the bounded engine must approach
them as resolution grows.  These tests run the full taxi-over-neighborhoods
pipeline end to end, which is the paper's headline experiment in miniature.

``TestExecutionMatrix`` additionally sweeps the full execution matrix —
(engine × backend × streamed/monolithic × warm/cold QuerySession) — and
requires every cell to be bit-identical to the serial, cold, monolithic
reference on a multi-tile canvas.
"""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Filter,
    GPUDevice,
    IndexJoin,
    MaterializingJoin,
    PointDataset,
    QuerySession,
    Sum,
)
from repro.data import generate_taxi, generate_voronoi_regions
from repro.geometry.bbox import BBox
from tests.conftest import brute_force_counts, brute_force_sums


@pytest.fixture(scope="module")
def taxi():
    return generate_taxi(40_000, seed=11)


@pytest.fixture(scope="module")
def hoods():
    from repro.data.regions import NYC_REGION_EXTENT

    return generate_voronoi_regions(24, NYC_REGION_EXTENT, seed=11)


@pytest.fixture(scope="module")
def exact_counts(taxi, hoods):
    return brute_force_counts(taxi, hoods)


EXACT_ENGINES = [
    AccurateRasterJoin(resolution=512),
    IndexJoin(mode="gpu", grid_resolution=256),
    MaterializingJoin(truncate_bits=None),
]


class TestExactEnginesAgree:
    @pytest.mark.parametrize("engine", EXACT_ENGINES, ids=lambda e: e.name)
    def test_counts(self, engine, taxi, hoods, exact_counts):
        result = engine.execute(taxi, hoods)
        assert np.array_equal(result.values, exact_counts)

    def test_sum_agreement(self, taxi, hoods):
        results = [
            engine.execute(taxi, hoods, aggregate=Sum("fare")).values
            for engine in EXACT_ENGINES
        ]
        for other in results[1:]:
            assert np.allclose(results[0], other, rtol=1e-9)

    def test_filtered_agreement(self, taxi, hoods):
        filters = [Filter("hour", ">=", 17), Filter("passengers", "<=", 2)]
        results = [
            engine.execute(taxi, hoods, filters=filters).values
            for engine in EXACT_ENGINES
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_cpu_modes_agree_with_gpu(self, taxi, hoods, exact_counts):
        small = taxi.head(3000)
        expected = brute_force_counts(small, hoods)
        for mode in ("cpu", "multicore"):
            result = IndexJoin(mode=mode, grid_resolution=128, workers=2).execute(
                small, hoods
            )
            assert np.array_equal(result.values, expected)


class TestBoundedConvergence:
    def test_monotone_error_decay(self, taxi, hoods, exact_counts):
        """Median relative error decreases as epsilon shrinks (Fig 12b)."""
        nonzero = exact_counts > 0
        medians = []
        for eps in (2000.0, 500.0, 125.0):
            approx = BoundedRasterJoin(epsilon=eps).execute(taxi, hoods)
            rel = (
                np.abs(approx.values[nonzero] - exact_counts[nonzero])
                / exact_counts[nonzero]
            )
            medians.append(float(np.median(rel)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_default_epsilon_error_small(self, taxi, hoods, exact_counts):
        """At the paper's default 10 m bound on NYC-scale data, the median
        error is a fraction of a percent (paper reports ~0.15%)."""
        approx = BoundedRasterJoin(epsilon=10.0).execute(taxi, hoods)
        nonzero = exact_counts > 0
        rel = (
            np.abs(approx.values[nonzero] - exact_counts[nonzero])
            / exact_counts[nonzero]
        )
        assert np.median(rel) < 0.01

    def test_average_aggregate_close(self, taxi, hoods):
        accurate = AccurateRasterJoin(resolution=512).execute(
            taxi, hoods, aggregate=Average("fare")
        )
        bounded = BoundedRasterJoin(epsilon=50.0).execute(
            taxi, hoods, aggregate=Average("fare")
        )
        both = np.isfinite(accurate.values) & np.isfinite(bounded.values)
        assert np.abs(accurate.values[both] - bounded.values[both]).max() < 0.5


#: The execution matrix dimensions (satellite of the parallel-backend PR).
MATRIX_ENGINES = ("accurate", "bounded")
MATRIX_BACKENDS = ("serial", "thread", "process")

#: A framebuffer limit below the render resolution forces a multi-tile
#: canvas, so the backend dimension exercises real tile fan-out.
MATRIX_RESOLUTION = 256
MATRIX_MAX_FBO = 128


def _matrix_engine(kind: str, backend: str, session: QuerySession | None):
    config = EngineConfig(backend=backend, workers=3)
    device = GPUDevice(max_resolution=MATRIX_MAX_FBO)
    if kind == "accurate":
        return AccurateRasterJoin(
            resolution=MATRIX_RESOLUTION, device=device,
            grid_resolution=256, session=session, config=config,
        )
    return BoundedRasterJoin(
        resolution=MATRIX_RESOLUTION, device=device, session=session,
        config=config,
    )


class TestExecutionMatrix:
    """Every (engine × backend × streamed × warm) cell is bit-identical
    to the serial / cold / monolithic reference of the same engine."""

    @pytest.fixture(scope="class")
    def matrix_points(self, taxi):
        return taxi.head(6_000)

    @pytest.fixture(scope="class")
    def matrix_chunks(self, matrix_points):
        def chunk_source():
            n = len(matrix_points)
            step = -(-n // 3)
            fares = matrix_points.column("fare")
            for start in range(0, n, step):
                end = min(start + step, n)
                yield PointDataset(
                    matrix_points.xs[start:end],
                    matrix_points.ys[start:end],
                    {"fare": fares[start:end]},
                )
        return chunk_source

    @pytest.fixture(scope="class")
    def references(self, matrix_points, hoods):
        """Serial cold monolithic result per engine kind: the backend,
        the worker count, the session's warmth and the stream's
        chunking must never change a bit of it."""
        out = {}
        for kind in MATRIX_ENGINES:
            out[kind] = _matrix_engine(kind, "serial", None).execute(
                matrix_points, hoods, aggregate=Sum("fare")
            )
            # The matrix only means something on a multi-tile canvas.
            assert out[kind].stats.extra["tiles"] > 1
        return out

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "streamed", [False, True], ids=["monolithic", "streamed"]
    )
    @pytest.mark.parametrize("backend", MATRIX_BACKENDS)
    @pytest.mark.parametrize("kind", MATRIX_ENGINES)
    def test_cell_bit_identical(
        self, kind, backend, streamed, warm, matrix_points, matrix_chunks,
        hoods, references,
    ):
        session = QuerySession() if warm else None
        engine = _matrix_engine(kind, backend, session)
        aggregate = Sum("fare")

        def run():
            if streamed:
                return engine.execute_stream(
                    matrix_chunks, hoods, aggregate=aggregate
                )
            return engine.execute(matrix_points, hoods, aggregate=aggregate)

        if warm:
            run()  # priming run populates the session
            result = run()
            assert result.stats.prepared_hits == 1
        else:
            result = run()

        reference = references[kind]
        assert np.array_equal(result.values, reference.values)
        for name in reference.channels:
            assert np.array_equal(result.channels[name],
                                  reference.channels[name])
        assert result.stats.extra["backend"] == backend
        assert result.stats.extra["tiles"] == reference.stats.extra["tiles"]

    def test_accurate_reference_matches_brute_force(
        self, matrix_points, hoods, references
    ):
        """The anchor: the multi-tile accurate reference is correct, so
        bit-equality with it means every matrix cell is correct."""
        expected = brute_force_sums(matrix_points, hoods, "fare")
        assert np.allclose(references["accurate"].values, expected,
                           rtol=1e-9)


class TestVisualizationQuality:
    def test_jnd_indistinguishable_at_20m(self, taxi, hoods, exact_counts):
        """The Figure 6 claim: at epsilon = 20 m the approximate heat map
        is perceptually identical to the accurate one."""
        from repro.viz import jnd_report

        approx = BoundedRasterJoin(epsilon=20.0).execute(taxi, hoods)
        report = jnd_report(approx.values, exact_counts)
        assert report.indistinguishable
        assert report.max_difference < 0.01
