"""Accurate raster join (§4.3): exact results with minimal PIP tests.

Three steps, following the paper:

1. render the *outlines* of all polygons conservatively into a boundary
   mask (the Boundary FBO);
2. draw the points — a point whose fragment lands on a boundary pixel is
   joined exactly through the grid index (JoinPoint: probe + PIP against
   every candidate), every other point accumulates into the point FBO;
3. draw the polygons — every fragment adds its FBO partial aggregate to
   the owning polygon.  The paper discards fragments on boundary pixels
   (their points were already handled); here step 2 never scatters those
   points, so the pixels hold the blend identity and the discard is
   unnecessary (``docs/rasterization.md``).

Only points near polygon outlines ever see a PIP test; everything else is
pure rasterization.  The result is exact for any resolution — resolution
only shifts work between the PIP path and the raster path.

Everything that depends only on the polygon set — canvas layout,
triangulations, the grid index, per-tile boundary masks, and per-polygon
pixel coverage — lives in a :class:`~repro.cache.prepared.PreparedPolygons`
artifact, and attaching a :class:`~repro.cache.session.QuerySession` makes
repeated queries over the same polygons skip the whole rebuild.  The three
steps themselves are the shared tile pipeline (:mod:`repro.core.tiles`)
run under this engine's kernel: exact boundary stage, float64 framebuffer.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.pyramid import (
    AggregatePyramid,
    channel_kinds,
    ensure_polygon_blocks,
)
from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate
from repro.core.engine import grid_pip_aggregate, new_accumulators
from repro.core.filters import FilterSet
from repro.core.tiles import RasterJoinEngine, TileKernel
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.graphics.viewport import Canvas
from repro.obs import metrics, trace
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
        self.resolution = resolution
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

        Everything besides geometry that prepared state depends on.  The
        optimizer probes sessions with this spec for cache-aware costing;
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
        the grid instead of being clipped."""
        extent = polygons.bbox
        probe = Canvas.for_resolution(extent, self.resolution)
        pad = max(probe.pixel_width, probe.pixel_height)
        return Canvas.for_resolution(extent.expanded(pad), self.resolution)

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """Canvas layout, triangulations, grid index and edge table —
        built once."""
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
            prepared.ensure_grid(polygons, self.grid_resolution, "mbr", stats)
            # Columnar MBRs feed the batched builders' vectorized per-tile
            # bin pass and gate the edge table's pair test; built in the
            # parent so tile tasks only read them.
            prepared.ensure_mbr_arrays(polygons)
            prepared.ensure_edge_table(polygons)
        stats.extra["canvas"] = (prepared.canvas.width, prepared.canvas.height)
        return prepared

    # ------------------------------------------------------------------
    # Aggregate pyramid (GeoBlocks-style warm path; repro.cache.pyramid)
    # ------------------------------------------------------------------
    def pyramid_token(self, polygons: PolygonSet) -> tuple:
        """The grid-frame spec a pyramid over these polygons is keyed by.

        Mirrors what :meth:`_prepare`'s ``ensure_grid`` builds — the
        grid extent is :meth:`GridIndex.default_extent` of the polygon
        set — so a pyramid built here is addressable by any later query
        whose polygons share that frame (every pan/zoom stroke over the
        same union bbox).
        """
        from repro.index.grid import GridIndex

        ext = GridIndex.default_extent(polygons)
        return (
            "pyramid", self.grid_resolution, "mbr",
            (ext.xmin, ext.ymin, ext.xmax, ext.ymax),
        )

    def build_pyramid(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
    ) -> AggregatePyramid:
        """Explicitly build (or fetch) the pyramid for this frame.

        Building is never implicit — a query over a cold session runs
        the exact path untouched — so the one-off O(points) sort is paid
        exactly where the caller asked for it (a dashboard's "prewarm"
        step, the planner's :meth:`~repro.sql.planner.QueryPlanner.prewarm`,
        or a benchmark's setup).  Channels are added lazily by the first
        query that needs them.
        """
        if self.session is None:
            raise QueryError(
                "build_pyramid needs a QuerySession to retain the pyramid"
            )
        token = self.pyramid_token(polygons)
        pyramid = self.session.pyramid_lookup(points, token)
        if pyramid is not None:
            return pyramid
        stats = ExecutionStats(engine=self.name, batches=0, passes=0)
        prepared = self._prepare(polygons, stats)
        pyramid = AggregatePyramid.build(points, prepared.grid)
        self.session.pyramid_register(points, token, pyramid)
        self.session.checkpoint()
        return pyramid

    def pyramid_warmth(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
    ) -> bool:
        """Costing probe: would :meth:`_run` take the pyramid path?

        Identity-keyed and hash-free (the optimizer calls it per
        candidate plan); optimistic the same way the session's
        :meth:`~repro.cache.session.QuerySession.pyramid_warm` is.
        """
        if self.session is None:
            return False
        return self.session.pyramid_warm(points, self.pyramid_token(polygons))

    def _pyramid_plan(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> tuple[AggregatePyramid, dict] | None:
        """The resident pyramid serving this query, or ``None`` (exact path).

        ``None`` whenever nothing was ever built (building is explicit:
        :meth:`build_pyramid`), the aggregate has a shape the partials
        cannot express, or filters are present (cell partials pre-aggregate over *all*
        points).  The gate never builds anything — a cold query costs
        one O(1) probe plus, with a store attached, one content hash for
        the disk-tier key.
        """
        if self.session is None:
            return None
        if filters:
            return None
        kinds = channel_kinds(aggregate)
        if kinds is None:
            return None
        pyramid = self.session.pyramid_lookup(points, self.pyramid_token(polygons))
        if pyramid is None:
            stats.extra["pyramid"] = "cold"
            return None
        return pyramid, kinds

    def _run_pyramid(
        self,
        prepared: PreparedPolygons,
        pyramid: AggregatePyramid,
        kinds: dict,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        stats: ExecutionStats,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Answer from cached block aggregates + boundary-cell PIP.

        Interior cells (the polygon boundary provably misses them) are
        folded from the pyramid's block partials with zero point reads;
        only the points of boundary cells are gathered and joined
        through the exact :func:`grid_pip_aggregate` — against a grid
        holding *boundary cells only*, so a point a block already
        counted is never PIP-tested for the same polygon.
        """
        self._record_execution_env(stats, len(prepared.tiles))
        start = time.perf_counter()
        pip_grid = ensure_polygon_blocks(prepared, polygons, prepared.grid)
        for kind, col in kinds.values():
            pyramid.ensure_channel(kind, col, points)
        accumulators = new_accumulators(polygons, aggregate)
        block_cells = 0
        with trace.span("pyramid-block-merge", polygons=len(polygons)):
            for pid, unit in enumerate(prepared.units):
                for ch, (kind, col) in kinds.items():
                    accumulators[ch][pid] = aggregate.combine(
                        np.asarray(accumulators[ch][pid]),
                        np.asarray(
                            pyramid.block_reduce(kind, col, unit.blocks)
                        ),
                    )
                block_cells += sum(len(ids) for _, ids in unit.blocks)
        fallback_cells = np.unique(np.concatenate(
            [unit.pip_cells for unit in prepared.units]
        )) if prepared.units else np.zeros(0, dtype=np.int64)
        idx = pyramid.gather_indices(fallback_cells)
        if len(idx):
            attrs = {
                col: points.column(col)[idx] for col in aggregate.columns
            }
            with trace.span("boundary-pip", points=int(len(idx))):
                grid_pip_aggregate(
                    points.column("x")[idx], points.column("y")[idx], attrs,
                    pip_grid, prepared.edge_table, aggregate, accumulators,
                    stats,
                )
        stats.points_processed += len(idx)
        stats.boundary_points += len(idx)
        stats.extra["pyramid"] = "hit"
        stats.extra["pyramid_cells"] = int(block_cells)
        stats.extra["pyramid_fallback_points"] = int(len(idx))
        metrics.counter("pyramid_block_cells", int(block_cells))
        metrics.counter("pyramid_fallback_points", int(len(idx)))
        stats.processing_s += time.perf_counter() - start
        return aggregate.finalize(accumulators), accumulators

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
        plan = self._pyramid_plan(
            points, polygons, aggregate, filters, stats
        )
        if plan is not None:
            return self._run_pyramid(
                member.prepared, plan[0], plan[1], points, polygons,
                aggregate, stats,
            )
        accumulators = self.run_member(
            member, lambda: iter((points,)), stats, points_hint=points
        ).accumulators
        return aggregate.finalize(accumulators), accumulators
