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
the same polygons skip the whole rebuild.  The engine is the bounded
join plus a boundary stage: the one raster join
(:class:`~repro.core.tiles.RasterJoinEngine`) under the exact kernel —
float64 framebuffer — with only its canvas rule, the edge table and
prewarm its own.
"""

from __future__ import annotations

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.tiles import RasterJoinEngine, TileKernel, route_points
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas
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

    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key:
        all but geometry that prepared state (and EXPLAIN's warmth
        probe) keys on."""
        return ("accurate", self.resolution, self.grid_resolution,
                self.max_resolution)

    def _canvas(self, extent: BBox) -> Canvas:
        return Canvas.for_resolution(extent, self.resolution)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """The shared artifact plus the boundary PIP's edge table."""
        prepared = super()._prepare(polygons, stats)
        prepared.ensure_edge_table(polygons, self.grid_resolution)
        return prepared

    def prewarm(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
    ) -> None:
        """Explicitly ready ``points`` for statements over this canvas.

        Routes them as any statement would and flags the routing: from
        then on a statement over any polygon set deriving the same
        canvas reads its point framebuffers from the session (each
        scattered once, on first need) and touches only the rows on
        boundary pixels.  Never implicit, never a different answer: the
        bits are the un-prewarmed statement's
        (``docs/aggregate_pyramid.md``).
        """
        if self.session is None:
            raise QueryError("prewarm needs a QuerySession to retain its work")
        canvas = self._make_canvas(polygons)
        routing, token, _ = route_points(
            self.session, points, canvas,
            list(canvas.tiles(self.max_resolution)), self.max_resolution,
        )
        routing.prewarmed = True
        self.session.partition_store(points, token, routing)
