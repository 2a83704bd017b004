"""Bounded raster join (§4.1–§4.2): the paper's headline algorithm.

The engine renders the points into a framebuffer whose pixels accumulate
partial aggregates, then rasterizes the triangulated polygons over the same
framebuffer, adding each covered pixel's partial aggregate into the owning
polygon's result slot.  No point-in-polygon test is ever executed; errors
are confined to pixels crossed by polygon outlines and are bounded in space
by ε (pixel diagonal), the Hausdorff guarantee of §4.2.

When the ε-implied resolution exceeds the device's framebuffer limit, the
canvas splits into tiles and the two passes run once per tile (Figure 5);
clipping guarantees every point-polygon pair is counted exactly once.

Canvas layout, triangulations, and per-polygon pixel coverage are carried
in a :class:`~repro.cache.prepared.PreparedPolygons` artifact; attach a
:class:`~repro.cache.session.QuerySession` and repeated queries over the
same polygon set reuse them.  The two passes are the shared tile pipeline
(:mod:`repro.core.tiles`) run under this engine's kernel: no boundary
stage, so every point rasterizes and every fragment counts, into float32
channels like the paper's GL framebuffers.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate, Count, Sum
from repro.core.filters import FilterSet
from repro.core.tiles import RasterJoinEngine, TileKernel
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas
from repro.obs import trace
from repro.types import AggregationResult, ExecutionStats


class BoundedRasterJoin(RasterJoinEngine):
    """Approximate raster join with an ε-bounded spatial error.

    Parameters
    ----------
    epsilon:
        Hausdorff bound in world units; the pixel diagonal never exceeds
        it.  Mutually exclusive with ``resolution``.
    resolution:
        Alternatively, the pixel count of the canvas's longer side (the
        "4k x 4k canvas" style of specification used for visualization).
    device:
        Simulated GPU; ``None`` runs without memory limits or transfer
        accounting.
    compute_bounds:
        Also derive per-polygon result intervals (§5) — adds a boundary
        analysis pass; see :mod:`repro.core.bounds`.  ``Count`` and
        ``Sum`` only: any other aggregate raises :class:`QueryError`.
    session:
        Optional :class:`QuerySession` so repeated queries over the same
        polygon set reuse triangulations, canvas layout, and coverage.
    """

    name = "bounded-raster"

    def __init__(
        self,
        epsilon: float | None = None,
        resolution: int | None = None,
        device: GPUDevice | None = None,
        compute_bounds: bool = False,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(device, session=session, config=config)
        if (epsilon is None) == (resolution is None):
            raise QueryError("specify exactly one of epsilon= or resolution=")
        self.epsilon = epsilon
        self.resolution = resolution
        self.compute_bounds = compute_bounds
        self.kernel = TileKernel(
            engine=self.name, exact=False, fbo_dtype=np.float32,
            device=device,
        )

    # ------------------------------------------------------------------
    # Prepared state
    # ------------------------------------------------------------------
    def _make_canvas(self, polygons: PolygonSet) -> Canvas:
        """Canvas over the polygon-set extent (the paper's w x h box).

        The extent is padded by one pixel so points sitting exactly on the
        extent's max edges still land on the grid instead of being clipped.
        """
        extent = polygons.bbox
        if self.epsilon is not None:
            probe = Canvas.for_epsilon(extent, self.epsilon)
            pad = max(probe.pixel_width, probe.pixel_height)
            return Canvas.for_epsilon(extent.expanded(pad), self.epsilon)
        probe = Canvas.for_resolution(extent, self.resolution)
        pad = max(probe.pixel_width, probe.pixel_height)
        return Canvas.for_resolution(extent.expanded(pad), self.resolution)

    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key.

        Everything besides geometry that prepared state depends on.  The
        optimizer probes sessions with this spec for cache-aware costing;
        it must stay in lockstep with what :meth:`_prepare` keys on.
        """
        return ("bounded", self.epsilon, self.resolution, self.max_resolution)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """Canvas layout and triangulations — built once per polygon set."""
        with trace.span("prepare", polygons=len(polygons)):
            prepared = self._prepared_state(
                polygons, self.prepared_spec(), stats
            )
            if prepared.canvas is None:
                prepared.canvas = self._make_canvas(polygons)
                prepared.tiles = list(
                    prepared.canvas.tiles(self.max_resolution)
                )
            prepared.ensure_triangles(polygons, stats)
            # Columnar MBRs feed the batched builders' vectorized per-tile
            # bin pass; built in the parent so tile tasks only read them.
            prepared.ensure_mbr_arrays(polygons)
        stats.extra["canvas"] = (prepared.canvas.width, prepared.canvas.height)
        stats.extra["pixel_diagonal"] = prepared.canvas.pixel_diagonal
        return prepared

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        member = self.member(polygons, aggregate, filters, stats)
        run = self.run_member(
            member, points, stats, keep_fbo=self.compute_bounds
        )
        accumulators = run.accumulators
        values = aggregate.finalize(accumulators)
        if self.compute_bounds:
            from repro.core.bounds import estimate_result_intervals

            start = time.perf_counter()
            with trace.span("bounds"):
                self._intervals = estimate_result_intervals(
                    run.payloads, polygons, member.prepared.triangles, values,
                    aggregate,
                )
            stats.extra["bounds_s"] = time.perf_counter() - start
        else:
            self._intervals = None
        return values, accumulators

    def execute(self, points, polygons, aggregate=None, filters=None) -> AggregationResult:
        aggregate = aggregate or Count()
        if self.compute_bounds and not isinstance(aggregate, (Count, Sum)):
            raise QueryError(
                f"result intervals bound COUNT and SUM only, not {aggregate!r}"
            )
        result = super().execute(points, polygons, aggregate, filters)
        result.intervals = self._intervals
        return result
