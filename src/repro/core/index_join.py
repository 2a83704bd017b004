"""Index-join baselines (§6.2 and the CPU baselines of §7.1).

The baseline the paper compares against: a grid index over the polygons,
one probe + PIP tests per point, aggregation fused into the scan (no join
materialization).  Three execution modes mirror the paper's three
implementations:

* ``mode="gpu"`` — vectorized kernels over device-resident batches (the
  compute-shader implementation); NumPy vectorization stands in for the
  GPU's data parallelism.
* ``mode="cpu"`` — a faithful scalar single-threaded loop (the C++
  single-CPU baseline anchor of Figures 8/9).
* ``mode="multicore"`` — the scalar loop parallelized over point chunks
  through the :class:`~repro.exec.backend.ProcessBackend` (the OpenMP
  baseline): each worker keeps process-local accumulators that are
  merged at the end, exactly the paper's locking-avoidance strategy.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate
from repro.core.engine import (
    SpatialAggregationEngine,
    apply_filters,
    grid_pip_aggregate,
    new_accumulators,
    point_batches,
)
from repro.core.filters import FilterSet
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.backend import ProcessBackend
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.geometry.predicates import point_in_polygon
from repro.index.grid import GridIndex
from repro.obs import trace
from repro.types import ExecutionStats


def _scalar_range(
    grid: GridIndex,
    polygons: PolygonSet,
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray | None,
    start: int,
    end: int,
) -> tuple[np.ndarray, int]:
    """Scalar JoinPoint loop over one chunk of points (worker side).

    Inputs arrive through fork copy-on-write memory (the tasks are
    closures), so nothing is pickled on the way in; only the per-chunk
    accumulator travels back.
    """
    local = np.zeros(len(polygons), dtype=np.float64)
    pip_tests = 0
    for i in range(start, end):
        x = float(xs[i])
        y = float(ys[i])
        for pid in grid.candidates_of_point(x, y):
            pid = int(pid)
            pip_tests += 1
            if point_in_polygon(x, y, polygons[pid].rings):
                local[pid] += 1.0 if weights is None else float(weights[i])
    return local, pip_tests


class IndexJoin(SpatialAggregationEngine):
    """Grid-index + PIP join with fused aggregation."""

    def __init__(
        self,
        mode: str = "gpu",
        device: GPUDevice | None = None,
        grid_resolution: int = 1024,
        workers: int | None = None,
        grid_assignment: str = "mbr",
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(device, session=session, config=config)
        if mode not in ("gpu", "cpu", "multicore"):
            raise QueryError(f"unknown IndexJoin mode {mode!r}")
        self.mode = mode
        self.grid_resolution = grid_resolution
        self.grid_assignment = grid_assignment
        if workers is not None and workers < 1:
            raise QueryError(f"worker count must be >= 1, got {workers}")
        self.workers = workers or max(1, os.cpu_count() or 1)
        self.name = f"index-join-{mode}"
        #: Multicore mode's fan-out vehicle, owned by the engine so a
        #: second query reuses it (per-dispatch forks inherit the
        #: parent's resident arrays copy-on-write) instead of
        #: constructing a fresh backend per batch.
        self._fanout_backend = (
            ProcessBackend(workers=self.workers) if mode == "multicore" else None
        )

    # ------------------------------------------------------------------
    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key."""
        return ("grid", self.grid_resolution, self.grid_assignment)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """The polygon grid — plus, for the vectorized mode, the edge
        table its PIP pass tests against — reused across queries (and,
        with a store, across processes) via the session."""
        with trace.span("prepare", polygons=len(polygons)):
            prepared = self._prepared_state(
                polygons, self.prepared_spec(), stats
            )
            prepared.ensure_grid(
                polygons, self.grid_resolution, self.grid_assignment, stats
            )
            if self.mode == "gpu":
                prepared.ensure_edge_table(polygons, self.grid_resolution)
        return prepared

    def _run(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> tuple[np.ndarray, dict[str, np.ndarray], None]:
        prepared = self._prepare(polygons, stats)
        grid = prepared.grid
        # The index join renders no tiles; it still reports the execution
        # environment uniformly so every engine's stats are comparable.
        # Multicore mode's fork pool IS its execution vehicle, so the
        # report reflects that rather than the (unused) tile backend.
        self._record_execution_env(stats, 1)
        if self.mode == "multicore":
            stats.extra["backend"] = "process"
            stats.extra["workers"] = self.workers
        accumulators = new_accumulators(polygons, aggregate)
        columns = self.required_columns(aggregate, filters)
        for batch in point_batches(points, columns, self.device, stats):
            start = time.perf_counter()
            xs, ys, attrs = apply_filters(batch, filters, stats)
            # The grid probe + PIP join *is* the whole point pass here;
            # multicore fans chunks out concurrently, so its child
            # durations may overlap (span-containment exemption).
            with trace.span("pip-join", mode=self.mode,
                            concurrent=self.mode == "multicore"):
                if self.mode == "gpu":
                    grid_pip_aggregate(xs, ys, attrs, grid,
                                       prepared.edge_table, aggregate,
                                       accumulators, stats)
                elif self.mode == "cpu":
                    self._scalar_join(xs, ys, attrs, grid, polygons,
                                      aggregate, accumulators, stats)
                else:
                    self._parallel_join(xs, ys, attrs, grid, polygons,
                                        aggregate, accumulators, stats)
            stats.processing_s += time.perf_counter() - start
        return aggregate.finalize(accumulators), accumulators, None

    # ------------------------------------------------------------------
    # Single-CPU scalar loop
    # ------------------------------------------------------------------
    @staticmethod
    def _scalar_join(
        xs: np.ndarray,
        ys: np.ndarray,
        attrs: dict[str, np.ndarray],
        grid: GridIndex,
        polygons: PolygonSet,
        aggregate: Aggregate,
        accumulators: dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        channel_cols = {
            ch: (attrs[col] if col is not None else None)
            for ch, col in aggregate.channels.items()
        }
        pip_tests = 0
        for i in range(len(xs)):
            x = float(xs[i])
            y = float(ys[i])
            for pid in grid.candidates_of_point(x, y):
                pid = int(pid)
                pip_tests += 1
                if not point_in_polygon(x, y, polygons[pid].rings):
                    continue
                for ch, col in channel_cols.items():
                    value = 1.0 if col is None else float(col[i])
                    if aggregate.blend == "add":
                        accumulators[ch][pid] += value
                    elif aggregate.blend == "min":
                        # np.minimum, not Python min: a NaN value must
                        # poison the slot exactly as it does in the
                        # vectorized paths (Python min would keep the
                        # accumulator and silently drop the NaN).
                        accumulators[ch][pid] = float(
                            np.minimum(accumulators[ch][pid], value)
                        )
                    else:
                        accumulators[ch][pid] = float(
                            np.maximum(accumulators[ch][pid], value)
                        )
        stats.pip_tests += pip_tests

    # ------------------------------------------------------------------
    # Multi-core scalar loop (OpenMP stand-in)
    # ------------------------------------------------------------------
    def _parallel_join(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        attrs: dict[str, np.ndarray],
        grid: GridIndex,
        polygons: PolygonSet,
        aggregate: Aggregate,
        accumulators: dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        if aggregate.blend != "add" or len(aggregate.channels) != 1:
            # The parallel scalar path supports the count/sum kernels the
            # figures need; richer aggregates fall back to single-core.
            self._scalar_join(xs, ys, attrs, grid, polygons, aggregate,
                              accumulators, stats)
            return
        (channel, col), = aggregate.channels.items()
        weights = attrs[col] if col is not None else None
        n = len(xs)
        if n == 0:
            return
        chunk = -(-n // self.workers)
        ranges = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]

        partials = self._fanout_backend.run_tasks(
            [
                (lambda start=start, end=end: _scalar_range(
                    grid, polygons, xs, ys, weights, start, end
                ))
                for start, end in ranges
            ]
        )
        stats.extra["pool"] = self._fanout_backend.last_pool_event
        # Chunk partials merge in range order, like the tile merge.
        for local, pip_tests in partials:
            accumulators[channel] += local
            stats.pip_tests += pip_tests

    def close(self) -> None:
        """Release both the tile backend and the multicore fan-out pool."""
        super().close()
        if self._fanout_backend is not None:
            self._fanout_backend.close()
