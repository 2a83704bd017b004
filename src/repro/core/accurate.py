"""Accurate raster join (§4.3): exact results with minimal PIP tests.

Three steps, following the paper:

1. render the *outlines* of all polygons conservatively into a boundary
   mask (the Boundary FBO);
2. draw the points — a point whose fragment lands on a boundary pixel is
   joined exactly (JoinPoint: a PIP test against every polygon that
   pixel lists as a candidate — those with an outline pixel or a raster
   fragment on it, read off the canvas instead of a second index),
   every other point accumulates into the point FBO;
3. draw the polygons — every fragment adds its FBO partial aggregate to
   the owning polygon, save those on boundary pixels (their points were
   already handled): each polygon's coverage runs are trimmed at them
   once per tile (``docs/rasterization.md``).

Only points near polygon outlines ever see a PIP test; everything else is
pure rasterization.  The result is exact for any resolution — resolution
only shifts work between the PIP path and the raster path.

Everything that depends only on the polygon set — canvas layout,
triangulations, per-tile boundary masks and candidate lists, per-polygon
pixel coverage, the PIP's edge table — lives in a
:class:`~repro.cache.prepared.PreparedPolygons` artifact, and attaching a
:class:`~repro.cache.session.QuerySession` makes repeated queries over
the same polygons skip the whole rebuild.  The three
steps themselves are the shared tile pipeline (:mod:`repro.core.tiles`)
run under this engine's kernel: exact boundary stage, float64 framebuffer.
"""

from __future__ import annotations

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate
from repro.core.filters import FilterSet
from repro.core.tiles import RasterJoinEngine, TileKernel, route_points
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas
from repro.obs import trace
from repro.types import ExecutionStats


class AccurateRasterJoin(RasterJoinEngine):
    """Exact raster join: rasterization plus boundary-only PIP tests."""

    name = "accurate-raster"

    def __init__(
        self,
        resolution: int = 1024,
        device: GPUDevice | None = None,
        grid_resolution: int = 1024,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        super().__init__(device, session=session, config=config)
        if resolution < 1:
            raise QueryError(f"resolution must be >= 1, got {resolution}")
        if grid_resolution < 1:
            raise QueryError(
                f"grid_resolution must be >= 1, got {grid_resolution}"
            )
        self.resolution = resolution
        #: Row bands of the boundary PIP's edge table (named for the
        #: grid index that once framed them); never changes an answer.
        self.grid_resolution = grid_resolution
        # Exactness demands lossless per-pixel accumulators.  The paper's
        # GL implementation uses 32-bit channels; in this reproduction the
        # accurate engine upgrades them to float64 so attribute sums and
        # order statistics match the PIP path bit-for-bit.
        self.kernel = TileKernel(
            engine=self.name, exact=True, fbo_dtype=np.float64,
            device=device,
        )

    # ------------------------------------------------------------------
    # Prepared state
    # ------------------------------------------------------------------
    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key.

        Everything besides geometry that prepared state depends on.
        EXPLAIN probes sessions with this spec for cache-aware costing;
        it must stay in lockstep with what :meth:`_prepare` keys on.
        """
        return (
            "accurate",
            self.resolution,
            self.grid_resolution,
            self.max_resolution,
        )

    def _make_canvas(self, polygons: PolygonSet) -> Canvas:
        """Canvas over the polygon-set extent, padded by one pixel so
        points sitting exactly on the extent's max edges still land on
        the canvas instead of being clipped."""
        extent = polygons.bbox
        probe = Canvas.for_resolution(extent, self.resolution)
        pad = max(probe.pixel_width, probe.pixel_height)
        return Canvas.for_resolution(extent.expanded(pad), self.resolution)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """Canvas layout, triangulations and edge table — built once."""
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
            # bin pass and gate the edge table's pair test; built in the
            # parent so tile tasks only read them.
            prepared.ensure_mbr_arrays(polygons)
            prepared.ensure_edge_table(polygons, self.grid_resolution)
        stats.extra["canvas"] = (prepared.canvas.width, prepared.canvas.height)
        return prepared

    # ------------------------------------------------------------------
    # Prewarm (docs/aggregate_pyramid.md)
    # ------------------------------------------------------------------
    def prewarm(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
    ) -> None:
        """Explicitly ready ``points`` for statements over this canvas.

        Routes them as any statement would and gives the session's
        routing a pixel-sorted row index: from then on a statement over
        any polygon set deriving the same canvas reads its point
        framebuffers from the session (each scattered once, on first
        need) and touches only the rows on boundary pixels.  Never
        implicit — the one-off O(points) sort is paid exactly where the
        caller asked for it — and never a different answer: the bits are
        the un-prewarmed statement's.
        """
        if self.session is None:
            raise QueryError("prewarm needs a QuerySession to retain its work")
        canvas = self._make_canvas(polygons)
        tiles = list(canvas.tiles(self.max_resolution))
        routing, token, _ = route_points(
            self.session, points, canvas, tiles, self.max_resolution
        )
        routing.index_pixels(tiles)
        self.session.partition_store(points, token, routing)

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
        accumulators = self.run_member(member, points, stats).accumulators
        return aggregate.finalize(accumulators), accumulators
