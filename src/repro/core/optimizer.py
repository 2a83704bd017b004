"""The cost model behind EXPLAIN ANALYZE's predictions.

Figure 12(a) shows the trade-off between the bounded and accurate
variants: as ε shrinks, the bounded join needs quadratically more
rendering passes and eventually loses to the accurate join.  §8 states
the authors "intend to add an estimate of the time required for the two
variants, so that an optimizer can choose the best option" — this module
is that estimate.  The SQL planner picks the variant from ``WITHIN``;
``EXPLAIN ANALYZE`` prints the estimate next to the measured span times.

The model is calibrated, not guessed: on first use it runs two tiny
probe queries and fits per-unit costs — seconds per rendered point, per
polygon-pass pixel, per boundary point and per triangulated vertex — then
predicts the statement's time from measurable quantities (input size,
canvas pixels, expected boundary traffic, and the tile count and tile
concurrency of the statement's footprint — the numbers the tile loop
itself runs by, :func:`~repro.core.tiles.statement_footprint`).  The two
joins are one pipeline under two kernels, so one term function prices
both; the exact kernel adds the boundary PIP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Aggregate, Count
from repro.core.bounded import BoundedRasterJoin
from repro.core.filters import Filter, FilterSet
from repro.core.tiles import RasterJoinEngine
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.geometry.polygon import PolygonSet, rectangle
from repro.obs import trace


@dataclass
class CostModel:
    """Fitted per-unit costs (seconds).

    ``per_vertex_triangulate`` prices the polygon-side preparation
    (triangulation) that a cold run pays and a warm run skips.  The
    ``warm`` argument of the predictors is what
    :meth:`~repro.cache.session.QuerySession.warmth` reports for the
    variant: the share of the query's polygons whose prepared state —
    coverage included — is already reusable (1.0 for an exact artifact
    hit, the matched share for a delta-derivable edited set; ``True``
    means 1.0, ``None`` / ``False`` cold).  The preparation and
    polygon-pass terms scale by the share that actually rebuilds (the
    warm polygon pass replays stored coverage indices, whose gather
    cost is noise next to rasterizing the triangles) — so a 1-of-200
    edit is costed like a warm query, not a cold one.
    """

    per_point_render: float
    per_pixel_polygon_pass: float
    per_boundary_point: float
    per_vertex_triangulate: float = 0.0

    def _point_pass_seconds(
        self, num_points: int, tiles: int, waves: int, routed: bool = False,
    ) -> float:
        """Point-pass cost for one statement over a point source.

        Each tile scans only its share (``num_points / tiles``), so the
        term scales by the per-tile point share instead of the total —
        the difference between "parallel" and "scales with cores" on
        multi-tile canvases — and the one projection of the whole input
        is paid only when the session does not already hold this
        source's routing over the canvas (``routed``), at any tile count.
        """
        return self.per_point_render * num_points * (
            (not routed) + waves / tiles
        )

    def terms(
        self, exact: bool, num_points: int, covered_pixels: int,
        tiles: int, concurrency: int, num_vertices: int = 0,
        warm: float | None = None, routed: bool = False,
        boundary_fraction: float = 0.0, prewarmed: bool = False,
        recorded: bool = False,
    ) -> dict[str, float]:
        """Per-term predicted seconds of one statement under either kernel.

        Keys name the trace spans the terms correspond to (EXPLAIN
        ANALYZE lines predictions up against measured span times):
        ``prepare`` (triangulation, discounted by warmth),
        ``point_pass`` (the per-tile point render), ``boundary_pip`` —
        the ``exact`` kernel's alone — and ``polygon_pass`` (coverage
        rasterization, dropped when coverage replays).

        Tiles are independent and ``concurrency`` of them run at once
        (the tile loop's cap), so the point pass runs in
        ``ceil(tiles / concurrency)`` waves, each scanning the per-tile
        point share, and a ``routed`` source skips the projection (see
        :meth:`_point_pass_seconds`); the polygon pass and the boundary
        PIP, partitioned with the points, divide by it.  The boundary
        PIP traffic is point work paid once per pairing: a ``recorded``
        statement replays the artifact's record of its boundary join,
        so that term runs no PIP test and is priced at zero.

        ``prewarmed`` is the third regime: the session holds the point
        framebuffers of this (points, canvas) pairing
        (``docs/aggregate_pyramid.md``), so the point pass scatters
        nothing — that term is zero — and every other term is paid as
        usual: the same boundary rows take the same PIP tests and the
        same polygon pass reads the cached channels.
        """
        tiles = max(1, tiles)
        concurrency = max(1, min(concurrency, tiles))
        waves = math.ceil(tiles / concurrency)
        rebuilt = 1.0 - float(warm or 0.0)
        terms = {
            "prepare": self.per_vertex_triangulate * num_vertices * rebuilt,
            "point_pass": 0.0 if prewarmed else self._point_pass_seconds(
                num_points, tiles, waves, routed
            ),
        }
        if exact:
            terms["boundary_pip"] = 0.0 if recorded else (
                self.per_boundary_point * (num_points * boundary_fraction)
                / concurrency
            )
        terms["polygon_pass"] = (
            self.per_pixel_polygon_pass * covered_pixels / concurrency
            * rebuilt
        )
        return terms


def _calibrate(device: GPUDevice | None, probe_points: int = 20_000) -> CostModel:
    """Fit the cost model from two micro-probes on synthetic data."""
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 100.0, probe_points)
    ys = rng.uniform(0.0, 100.0, probe_points)
    points = PointDataset(xs, ys)
    polys = PolygonSet(
        [
            rectangle(5 + 30 * i, 5 + 30 * j, 25 + 30 * i, 25 + 30 * j)
            for i in range(3)
            for j in range(3)
        ]
    )
    bounded = BoundedRasterJoin(resolution=512, device=device)
    res_b = bounded.execute(points, polys)
    accurate = AccurateRasterJoin(resolution=512, device=device)
    # The boundary PIP is priced by its own spans: the two probes'
    # difference also holds everything else the kernels do differently.
    with trace.use(trace.Tracer("calibrate")) as tracer:
        res_a = accurate.execute(points, polys)
    pip_s = sum(s.duration_s for s in tracer.root.find("boundary-pip"))

    canvas_pixels = 512 * 512
    covered = canvas_pixels * 0.36  # 9 boxes of 20x20 over 100x100
    # Split bounded processing into point render vs. polygon pass using
    # the measured ``polygon_pass_s`` share; the 50/50 guess remains only
    # as a fallback for degenerate timings (e.g. a mocked clock).
    polygon_s = res_b.stats.polygon_pass_s
    if not (0.0 < polygon_s < res_b.stats.processing_s):
        polygon_s = res_b.stats.processing_s * 0.5
    point_s = res_b.stats.processing_s - polygon_s
    per_point = max(point_s / probe_points, 1e-12)
    per_pixel = max(polygon_s / covered, 1e-12)
    boundary_pts = max(res_a.stats.boundary_points, 1)
    pip_time = max(pip_s, 1e-9)
    probe_vertices = sum(p.num_vertices for p in polys)
    return CostModel(
        per_point_render=per_point,
        per_pixel_polygon_pass=per_pixel,
        per_boundary_point=pip_time / boundary_pts,
        per_vertex_triangulate=max(
            res_b.stats.triangulation_s / probe_vertices, 0.0
        ),
    )


class RasterJoinOptimizer:
    """The calibrated cost model EXPLAIN ANALYZE predicts with."""

    def __init__(self, device: GPUDevice | None = None) -> None:
        #: The device the calibration probes run on.
        self.device = device
        self._model: CostModel | None = None

    @property
    def model(self) -> CostModel:
        if self._model is None:
            self._model = _calibrate(self.device)
        return self._model

    def explain_terms(
        self,
        points: PointDataset,
        polygons: PolygonSet,
        engine: RasterJoinEngine,
        aggregate: Aggregate | None = None,
        filters: FilterSet | Sequence[Filter] | None = None,
    ) -> tuple[str, dict[str, float]]:
        """(regime, per-term predicted seconds) of the statement
        ``aggregate`` over ``points`` and ``polygons`` under ``filters``
        (``COUNT(*)``, unfiltered, by default) on the given engine.

        The regime names which cost path the prediction took —
        ``"cold"``, ``"warm"`` (prepared artifact reusable), or
        ``"pyramid-warm"`` (a prewarmed pairing: the statement reads
        cached point framebuffers) — and the term keys name the trace
        spans the engine will emit (``prepare``, ``point_pass``,
        ``polygon_pass``, ``boundary_pip``), so EXPLAIN ANALYZE can
        line each prediction up against the measured span time.

        Everything but the fitted unit costs is read off the engine: the
        canvas it renders (``_make_canvas``, padded as it runs), the
        statement's footprint — its tiles under the device's limit and
        the tile loop's own cap on how many run at once, from the
        statement's columns and bytes per pixel — and its session's
        warmth.  The warmth probe reads what is actually held — memory
        or store manifest — and never touches LRU order, counters or
        mtimes: costing a query must not change cache state.  A
        session-less engine is costed cold.
        """
        num_vertices = sum(p.num_vertices for p in polygons)
        # Covered pixels scale with total polygon area over the extent.
        area_fraction = min(
            1.0,
            sum(p.area for p in polygons) / max(polygons.bbox.area, 1e-300),
        )
        canvas = engine._make_canvas(polygons)
        footprint = engine.footprint(
            points, polygons, aggregate or Count(), FilterSet.coerce(filters)
        )
        # A source the session already routed over the engine's canvas
        # is not projected again; a prewarmed one scatters nothing (the
        # third regime) and a recorded boundary join is replayed.
        routed, prewarmed, recorded = engine.routing_warmth(points, polygons)
        warm = None if engine.session is None else engine.session.warmth(
            polygons, engine.prepared_spec()
        )
        exact = engine.kernel.exact
        boundary_fraction = 0.0
        if exact:
            # Boundary traffic: outline length in pixels over the
            # canvas, times the point density per pixel row.
            perimeter = sum(
                math.hypot(bx - ax, by - ay)
                for poly in polygons
                for (ax, ay, bx, by) in poly.edges()
            )
            boundary_pixels = perimeter / max(
                min(canvas.pixel_width, canvas.pixel_height), 1e-300
            )
            boundary_fraction = min(
                1.0, boundary_pixels / max(canvas.num_pixels, 1)
            )
        regime = "pyramid-warm" if prewarmed else "warm" if warm else "cold"
        return regime, self.model.terms(
            exact, len(points), int(canvas.num_pixels * area_fraction),
            len(footprint.fbo_bytes), footprint.parallelism,
            num_vertices=num_vertices, warm=warm, routed=routed,
            boundary_fraction=boundary_fraction, prewarmed=prewarmed,
            recorded=recorded,
        )
