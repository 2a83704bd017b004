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
same polygon set reuse them.  The engine is the one raster join
(:class:`~repro.core.tiles.RasterJoinEngine`) under the kernel without a
boundary stage — every point rasterizes and every fragment counts, into
float32 channels like the paper's GL framebuffers — with only its canvas
rule, the pixel diagonal and the §5 intervals its own.  Its point pass
is a histogram: each fragment's value, rounded to float32 as the channel
stores it, blends on numpy's fast ``ufunc.at`` loop
(:meth:`~repro.graphics.fbo.FrameBuffer.scatter`), and a value beyond
float32's range is ±inf.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.aggregates import Count, Sum
from repro.core.bounds import estimate_result_intervals
from repro.core.tiles import RasterJoinEngine, TileKernel, TileMember, TileRun
from repro.device.memory import GPUDevice
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas
from repro.obs import trace
from repro.types import AggregationResult, ExecutionStats, ResultIntervals


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

    def _canvas(self, extent: BBox) -> Canvas:
        """The paper's w x h box: ε-implied, or ``resolution`` pixels on
        the longer side."""
        if self.epsilon is not None:
            return Canvas.for_epsilon(extent, self.epsilon)
        return Canvas.for_resolution(extent, self.resolution)

    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key:
        all but geometry that prepared state (and EXPLAIN's warmth
        probe) keys on."""
        return ("bounded", self.epsilon, self.resolution, self.max_resolution)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """The shared artifact; the canvas's pixel diagonal (the spatial
        error bound achieved) is reported with it."""
        prepared = super()._prepare(polygons, stats)
        stats.extra["pixel_diagonal"] = prepared.canvas.pixel_diagonal
        return prepared

    def _intervals(
        self, member: TileMember, run: TileRun, values: np.ndarray,
        stats: ExecutionStats,
    ) -> ResultIntervals:
        """§5: per-polygon result intervals off the kept point
        framebuffers."""
        start = time.perf_counter()
        with trace.span("bounds"):
            intervals = estimate_result_intervals(
                run.payloads, member.polygons, member.prepared.triangles,
                values, member.aggregate,
            )
        stats.extra["bounds_s"] = time.perf_counter() - start
        return intervals

    def execute(self, points, polygons, aggregate=None, filters=None) -> AggregationResult:
        aggregate = aggregate or Count()
        if self.compute_bounds and not isinstance(aggregate, (Count, Sum)):
            raise QueryError(
                f"result intervals bound COUNT and SUM only, not {aggregate!r}"
            )
        return super().execute(points, polygons, aggregate, filters)
