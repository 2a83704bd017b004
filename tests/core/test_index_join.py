"""Unit tests for the index-join baselines."""

import os

import numpy as np
import pytest

from repro import Average, Count, Filter, GPUDevice, IndexJoin, Sum
from repro.errors import QueryError
from tests.conftest import brute_force_counts, brute_force_sums


class TestGpuMode:
    def test_exact_counts(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        result = IndexJoin(mode="gpu", grid_resolution=128).execute(
            uniform_points, three_regions
        )
        assert np.array_equal(result.values, exact)

    def test_exact_sum_and_avg(self, uniform_points, three_regions):
        sums = brute_force_sums(uniform_points, three_regions, "fare")
        result = IndexJoin(mode="gpu").execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert np.allclose(result.values, sums, rtol=1e-9)

    def test_pip_test_count_reasonable(self, uniform_points, three_regions):
        """One PIP test per point/candidate pair — bounded by points x polys
        and at least the number of join matches."""
        exact = brute_force_counts(uniform_points, three_regions)
        result = IndexJoin(mode="gpu", grid_resolution=256).execute(
            uniform_points, three_regions
        )
        assert result.stats.pip_tests >= exact.sum()
        assert result.stats.pip_tests <= len(uniform_points) * len(three_regions)

    def test_finer_grid_fewer_pip_tests(self, uniform_points, three_regions):
        coarse = IndexJoin(mode="gpu", grid_resolution=8).execute(
            uniform_points, three_regions
        )
        fine = IndexJoin(mode="gpu", grid_resolution=256).execute(
            uniform_points, three_regions
        )
        assert fine.stats.pip_tests < coarse.stats.pip_tests

    def test_filters(self, uniform_points, three_regions):
        filters = [Filter("hour", "<", 6)]
        mask = uniform_points.column("hour") < 6
        subset = uniform_points.take(np.flatnonzero(mask))
        exact = brute_force_counts(subset, three_regions)
        result = IndexJoin(mode="gpu").execute(
            uniform_points, three_regions, filters=filters
        )
        assert np.array_equal(result.values, exact)

    def test_exact_assignment_grid(self, uniform_points, three_regions):
        mbr = IndexJoin(mode="gpu", grid_assignment="mbr").execute(
            uniform_points, three_regions
        )
        exact_mode = IndexJoin(mode="gpu", grid_assignment="exact").execute(
            uniform_points, three_regions
        )
        assert np.array_equal(mbr.values, exact_mode.values)
        assert exact_mode.stats.pip_tests <= mbr.stats.pip_tests


class TestCpuModes:
    def test_scalar_matches_gpu(self, uniform_points, three_regions):
        small = uniform_points.head(2000)
        gpu = IndexJoin(mode="gpu", grid_resolution=64).execute(
            small, three_regions
        )
        cpu = IndexJoin(mode="cpu", grid_resolution=64).execute(
            small, three_regions
        )
        assert np.array_equal(gpu.values, cpu.values)

    def test_multicore_matches_scalar(self, uniform_points, three_regions):
        small = uniform_points.head(2000)
        cpu = IndexJoin(mode="cpu", grid_resolution=64).execute(
            small, three_regions
        )
        multi = IndexJoin(mode="multicore", grid_resolution=64, workers=2).execute(
            small, three_regions
        )
        assert np.array_equal(cpu.values, multi.values)
        assert multi.stats.pip_tests == cpu.stats.pip_tests

    def test_multicore_sum(self, uniform_points, three_regions):
        small = uniform_points.head(2000)
        exact = brute_force_sums(small, three_regions, "fare")
        multi = IndexJoin(mode="multicore", grid_resolution=64, workers=2).execute(
            small, three_regions, aggregate=Sum("fare")
        )
        assert np.allclose(multi.values, exact, rtol=1e-9)

    def test_multicore_avg_falls_back(self, uniform_points, three_regions):
        """Multi-channel aggregates run the scalar path but stay exact."""
        small = uniform_points.head(1000)
        counts = brute_force_counts(small, three_regions)
        sums = brute_force_sums(small, three_regions, "fare")
        multi = IndexJoin(mode="multicore", grid_resolution=64, workers=2).execute(
            small, three_regions, aggregate=Average("fare")
        )
        assert np.allclose(multi.values, sums / counts, rtol=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(QueryError):
            IndexJoin(mode="quantum")

    @pytest.mark.parametrize("mode", ["gpu", "cpu", "multicore"])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, mode, workers):
        """Like ``ExecutionBackend``: zero is not "all cores" and a
        negative count is not accepted outside multicore mode."""
        with pytest.raises(QueryError, match="worker count"):
            IndexJoin(mode=mode, workers=workers)

    @pytest.mark.parametrize("mode", ["gpu", "cpu", "multicore"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_positive_worker_count_kept(self, mode, workers):
        assert IndexJoin(mode=mode, workers=workers).workers == workers

    @pytest.mark.parametrize("mode", ["gpu", "cpu", "multicore"])
    def test_default_worker_count_is_the_core_count(self, mode):
        assert IndexJoin(mode=mode).workers == max(1, os.cpu_count() or 1)


class TestDevice:
    def test_out_of_core_exact(self, uniform_points, three_regions):
        exact = brute_force_counts(uniform_points, three_regions)
        device = GPUDevice(capacity_bytes=200_000)
        result = IndexJoin(mode="gpu", device=device).execute(
            uniform_points, three_regions
        )
        assert result.stats.batches > 1
        assert np.array_equal(result.values, exact)
