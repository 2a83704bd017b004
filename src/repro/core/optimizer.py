"""Cost-based choice between the bounded and accurate variants.

Figure 12(a) shows the trade-off that motivates this: as ε shrinks, the
bounded join needs quadratically more rendering passes and eventually loses
to the accurate join.  §8 states the authors "intend to add an estimate of
the time required for the two variants, so that an optimizer can choose the
best option" — this module implements that future-work optimizer.

The model is calibrated, not guessed: on first use (or on demand) it runs
two tiny probe queries and fits per-unit costs — seconds per rendered
point, per polygon-pass pixel, and per PIP test — then predicts each
variant's time for the actual query from measurable quantities (input size,
canvas pixels, tile count, expected boundary traffic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cache.session import QuerySession
from repro.core.accurate import AccurateRasterJoin
from repro.core.bounded import BoundedRasterJoin
from repro.core.engine import SpatialAggregationEngine
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet, rectangle
from repro.graphics.viewport import Canvas


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
    per_pip_test: float
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

    def bounded_terms(
        self, num_points: int, canvas_pixels: int, tiles: int,
        covered_pixels: int, workers: int = 1, num_vertices: int = 0,
        warm: float | None = None, routed: bool = False,
    ) -> dict[str, float]:
        """Per-term predicted bounded-join seconds.

        Keys name the trace spans the terms correspond to (EXPLAIN
        ANALYZE lines predictions up against measured span times):
        ``point_pass`` (the per-tile point render), ``prepare``
        (triangulation, discounted by warmth), and ``polygon_pass``
        (coverage rasterization, dropped when coverage replays).

        Tiles are independent, so with ``workers`` parallel tile workers
        the point pass runs in ``ceil(tiles / workers)`` waves and the
        polygon pass spreads over the tiles actually running concurrently.
        Each wave scans only the per-tile point share, and a ``routed``
        source skips the projection (see :meth:`_point_pass_seconds`).
        """
        tiles = max(1, tiles)
        concurrency = max(1, min(workers, tiles))
        waves = math.ceil(tiles / concurrency)
        rebuilt = 1.0 - float(warm or 0.0)
        return {
            "point_pass": self._point_pass_seconds(
                num_points, tiles, waves, routed
            ),
            "prepare": (
                self.per_vertex_triangulate * num_vertices * rebuilt
            ),
            "polygon_pass": (
                self.per_pixel_polygon_pass * covered_pixels / concurrency
                * rebuilt
            ),
        }

    def accurate_terms(
        self, num_points: int, boundary_fraction: float, covered_pixels: int,
        tiles: int = 1, workers: int = 1, num_vertices: int = 0,
        warm: float | None = None, routed: bool = False,
        prewarmed: bool = False,
    ) -> dict[str, float]:
        """Per-term predicted accurate-join seconds.

        The render and polygon pass parallelize across tiles like the
        bounded variant; the boundary PIP path is partitioned with the
        points, so it divides across concurrent tile workers too.  The
        boundary PIP traffic is per-query point work and is paid warm or
        cold.  The render term scales by the per-tile point share, and a
        ``routed`` source skips the projection (see
        :meth:`_point_pass_seconds`).

        ``prewarmed`` is the third regime: the session holds the point
        framebuffers of this (points, canvas) pairing
        (``docs/aggregate_pyramid.md``), so the point pass scatters
        nothing — that term is zero — and every other term is paid as
        usual: the same boundary rows take the same PIP tests and the
        same polygon pass reads the cached channels.
        """
        tiles = max(1, tiles)
        concurrency = max(1, min(workers, tiles))
        waves = math.ceil(tiles / concurrency)
        boundary_points = num_points * boundary_fraction
        rebuilt = 1.0 - float(warm or 0.0)
        return {
            "prepare": (
                self.per_vertex_triangulate * num_vertices * rebuilt
            ),
            "point_pass": 0.0 if prewarmed else self._point_pass_seconds(
                num_points, tiles, waves, routed
            ),
            "boundary_pip": (
                self.per_boundary_point * boundary_points / concurrency
            ),
            "polygon_pass": (
                self.per_pixel_polygon_pass * covered_pixels / concurrency
                * rebuilt
            ),
        }


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
    res_a = accurate.execute(points, polys)

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
    pip_tests = max(res_a.stats.pip_tests, 1)
    pip_time = max(res_a.stats.processing_s - res_b.stats.processing_s, 1e-9)
    probe_vertices = sum(p.num_vertices for p in polys)
    return CostModel(
        per_point_render=per_point,
        per_pixel_polygon_pass=per_pixel,
        per_pip_test=pip_time / pip_tests,
        per_boundary_point=pip_time / boundary_pts,
        per_vertex_triangulate=max(
            res_b.stats.triangulation_s / probe_vertices, 0.0
        ),
    )


class RasterJoinOptimizer:
    """Chooses bounded vs. accurate for a requested ε."""

    def __init__(
        self,
        device: GPUDevice | None = None,
        accurate_resolution: int = 1024,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.device = device
        self.accurate_resolution = accurate_resolution
        #: Execution configuration, forwarded to constructed engines and
        #: folded into the cost predictions (parallel tile workers shrink
        #: the multi-tile terms of both variants).  The backend is
        #: resolved once and pinned into the config as an instance, so
        #: every engine this optimizer constructs shares one backend —
        #: and therefore one persistent worker pool — across choices.
        config = config if config is not None else EngineConfig()
        self.config = config.with_pinned_backend()
        if session is None:
            # Mirror the engines: an explicit store location on the
            # config yields an optimizer-owned session (via the shared
            # EngineConfig.default_session gate), so routing decisions
            # keep a live memory tier instead of every choose() paying
            # a disk load through a throwaway per-engine session.
            session = self.config.default_session()
        #: Forwarded to every engine this optimizer constructs, so a
        #: rezoning loop that keeps asking for the same polygon set reuses
        #: its prepared state regardless of which variant wins.
        self.session = session
        self._workers = self.config.backend.workers
        self._model: CostModel | None = None

    def close(self) -> None:
        """Release the shared backend's worker pool (respawns lazily)."""
        self.config.backend.close()

    @property
    def model(self) -> CostModel:
        if self._model is None:
            self._model = _calibrate(self.device)
        return self._model

    # ------------------------------------------------------------------
    def _candidates(
        self, epsilon: float
    ) -> tuple[BoundedRasterJoin, AccurateRasterJoin]:
        """The two engines this optimizer chooses between."""
        return (
            BoundedRasterJoin(
                epsilon=epsilon, device=self.device, session=self.session,
                config=self.config,
            ),
            AccurateRasterJoin(
                resolution=self.accurate_resolution, device=self.device,
                session=self.session, config=self.config,
            ),
        )

    def _warmth(self, engine, polygons: PolygonSet) -> float | None:
        """The warm fraction of the engine's artifact, or ``None`` (cold).

        1.0 for an exact artifact, the matched-polygon share when the
        session could delta-derive from a sibling — the costing then
        discounts only the share that is actually reusable, so a
        single-polygon edit of a warm set plans warm.

        Probes the *candidate engine's* session — the shared optimizer
        session when one was given (or derived from an explicit
        ``EngineConfig.store_dir``); a session-less optimizer costs
        everything cold, matching the cache-free execution its engines
        will actually run.  The fraction comes from what is actually
        stored (manifest fields, not bare file existence), and the probe
        never touches LRU order, counters, or mtimes — costing a query
        must never change cache state.
        """
        if engine.session is None:
            return None
        return engine.session.warmth(polygons, engine.prepared_spec())

    def estimate(
        self,
        points: PointDataset,
        polygons: PolygonSet,
        epsilon: float,
    ) -> dict[str, float]:
        """Predicted seconds for each variant at the given ε.

        Cache-aware: when the session (memory or artifact store) already
        holds a variant's prepared artifact, that variant's preparation
        and polygon-pass terms are dropped — which is how a warm accurate
        engine can beat a cold bounded one.  The returned dict also
        reports each variant's warm fraction (0.0 when cold) under
        ``"bounded_warm"`` / ``"accurate_warm"``.
        """
        return self._estimate(points, polygons, self._candidates(epsilon))

    def _estimate(self, points, polygons, candidates) -> dict[str, float]:
        """:meth:`estimate` over an already-constructed candidate pair:
        each variant's prediction is the sum of its EXPLAIN terms."""
        cost = {}
        for name, engine in zip(("bounded", "accurate"), candidates):
            _, warm, terms = self._costing(points, polygons, engine)
            cost[name] = sum(terms.values())
            cost[f"{name}_warm"] = warm or 0.0
        return cost

    def explain_terms(
        self,
        points: PointDataset,
        polygons: PolygonSet,
        engine: SpatialAggregationEngine,
    ) -> tuple[str, dict[str, float]]:
        """(regime, per-term predicted seconds) for the given engine.

        The regime names which cost path the prediction took —
        ``"cold"``, ``"warm"`` (prepared artifact reusable), or
        ``"pyramid-warm"`` (a prewarmed pairing: the statement reads
        cached point framebuffers) — and the term keys name the trace
        spans the engine will emit (``prepare``, ``point_pass``,
        ``polygon_pass``, ``boundary_pip``), so EXPLAIN ANALYZE can
        line each prediction up against the measured span time.

        Supports the two raster-join variants the SQL planner chooses
        between; :meth:`estimate` sums these very terms.
        """
        regime, _, terms = self._costing(points, polygons, engine)
        return regime, terms

    def _costing(self, points, polygons, engine):
        """``(regime, warm fraction, per-term seconds)`` for one engine —
        the one place the cost features are extracted."""
        num_vertices = sum(p.num_vertices for p in polygons)
        # Covered pixels scale with total polygon area over the extent.
        area_fraction = min(
            1.0,
            sum(p.area for p in polygons) / max(polygons.bbox.area, 1e-300),
        )
        max_res = (
            self.device.max_resolution if self.device is not None else 8192
        )
        model = self.model
        # A source the session already routed over the variant's canvas
        # is not projected again.
        routed = engine.routing_warmth(points, polygons)
        warm = self._warmth(engine, polygons)
        if isinstance(engine, BoundedRasterJoin):
            canvas = Canvas.for_epsilon(polygons.bbox, engine.epsilon)
            return "warm" if warm else "cold", warm, model.bounded_terms(
                len(points), canvas.num_pixels, canvas.num_tiles(max_res),
                int(canvas.num_pixels * area_fraction),
                workers=self._effective_workers(points, canvas, max_res, 4),
                num_vertices=num_vertices, warm=warm, routed=routed,
            )
        # Boundary traffic: outline length in pixels over the accurate
        # canvas, times the point density per pixel row.
        perimeter = sum(
            math.hypot(bx - ax, by - ay)
            for poly in polygons
            for (ax, ay, bx, by) in poly.edges()
        )
        resolution = getattr(engine, "resolution", self.accurate_resolution)
        acc_canvas = Canvas.for_resolution(polygons.bbox, resolution)
        boundary_pixels = perimeter / max(
            min(acc_canvas.pixel_width, acc_canvas.pixel_height), 1e-300
        )
        boundary_fraction = min(
            1.0, boundary_pixels / max(acc_canvas.num_pixels, 1)
        )
        # Third regime: a prewarmed pairing scatters nothing.
        prewarmed = engine.routing_warmth(points, polygons, indexed=True)
        regime = "pyramid-warm" if prewarmed else "warm" if warm else "cold"
        return regime, warm, model.accurate_terms(
            len(points), boundary_fraction,
            int(acc_canvas.num_pixels * area_fraction),
            tiles=acc_canvas.num_tiles(max_res),
            workers=self._effective_workers(points, acc_canvas, max_res, 8),
            num_vertices=num_vertices, warm=warm, routed=routed,
            prewarmed=prewarmed,
        )

    def _effective_workers(
        self, points: PointDataset, canvas: Canvas, max_res: int,
        channel_bytes: int,
    ) -> int:
        """Configured workers, clamped by the device-memory concurrency cap.

        The engines never let more tiles hold a planned batch than the
        device budget allows (``tile_parallelism``); predicting with the
        raw worker count would undercost memory-starved queries, so the
        same clamp is applied here using the variant's FBO footprint.
        """
        if self.device is None:
            return self._workers
        from repro.device.batching import plan_batches, tile_parallelism
        from repro.errors import DeviceError

        fbo_bytes = min(canvas.num_pixels, max_res ** 2) * channel_bytes
        try:
            plan = plan_batches(points, ("x", "y"), self.device, fbo_bytes)
        except DeviceError:
            return 1
        return tile_parallelism(self.device, fbo_bytes, plan, self._workers)

    def choose(
        self,
        points: PointDataset,
        polygons: PolygonSet,
        epsilon: float,
    ) -> SpatialAggregationEngine:
        """The engine predicted to be faster for this query.

        Predictions are cache-aware (see :meth:`estimate`): a variant
        whose prepared artifact is already in the session — in memory or
        in the artifact store — competes without its preparation and
        polygon-pass cost, so a warm accurate engine routinely wins over
        a cold bounded one in an interactive loop.
        """
        bounded_engine, accurate_engine = self._candidates(epsilon)
        cost = self._estimate(
            points, polygons, (bounded_engine, accurate_engine)
        )
        if cost["bounded"] <= cost["accurate"]:
            return bounded_engine
        return accurate_engine
