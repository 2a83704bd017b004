"""Unit tests for the cost model behind EXPLAIN ANALYZE's predictions."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    RasterJoinOptimizer,
)
from repro.core.optimizer import CostModel
from repro.geometry.polygon import rectangle


def hand_tuned_model() -> CostModel:
    """A deterministic model where preparation + polygon pass dominate.

    Point traffic is priced at ~0 so the cache-aware terms (preparation,
    polygon pass) fully decide the comparison — cost relations become
    exact assertions instead of timing-dependent ones.
    """
    return CostModel(
        per_point_render=1e-12,
        per_pixel_polygon_pass=1e-6,
        per_boundary_point=1e-12,
        per_vertex_triangulate=1e-6,
    )


def with_model(model: CostModel) -> RasterJoinOptimizer:
    opt = RasterJoinOptimizer()
    opt._model = model
    return opt


def predicted(opt, points, polygons, engine) -> tuple[str, float]:
    """(regime, predicted seconds): the EXPLAIN terms, summed."""
    regime, terms = opt.explain_terms(points, polygons, engine)
    return regime, sum(terms.values())


@pytest.fixture(scope="module")
def optimizer() -> RasterJoinOptimizer:
    opt = RasterJoinOptimizer()
    opt.model  # force one calibration for the whole module
    return opt


class TestCostModel:
    def test_calibration_positive(self, optimizer):
        model = optimizer.model
        assert model.per_point_render > 0
        assert model.per_pixel_polygon_pass > 0
        # Fitted from the accurate probe's own boundary-join spans, a
        # real cost (about a microsecond a point), not the floor a
        # non-positive difference of two probes gets: 1 ns spread over
        # the probe's ~240 boundary points, about 4e-12.
        assert model.per_boundary_point > 1e-9

    def test_predictions_monotone_in_epsilon(
        self, optimizer, uniform_points, three_regions
    ):
        """Shrinking epsilon must never make the bounded prediction
        cheaper."""
        costs = [
            predicted(optimizer, uniform_points, three_regions,
                      BoundedRasterJoin(epsilon=eps))[1]
            for eps in (10.0, 1.0, 0.05, 0.005)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_accurate_prediction_independent_of_epsilon(
        self, optimizer, uniform_points, three_regions
    ):
        """Bounded statements at any ε leave the accurate prediction as
        it was: their artifacts and canvases are not its own."""
        session = QuerySession(store=False)
        accurate = AccurateRasterJoin(session=session)
        before = predicted(optimizer, uniform_points, three_regions, accurate)
        for eps in (10.0, 0.5):
            BoundedRasterJoin(epsilon=eps, session=session).execute(
                uniform_points, three_regions
            )
        after = predicted(optimizer, uniform_points, three_regions, accurate)
        assert before == after


class TestEngineCanvas:
    """EXPLAIN costs the canvas the engine runs: padded by a pixel, cut
    into tiles under the engine's device limit, over its workers."""

    UNIT = CostModel(
        per_point_render=1.0, per_pixel_polygon_pass=1.0,
        per_boundary_point=1.0, per_vertex_triangulate=1.0,
    )

    def test_bounded_terms_follow_the_tiles_the_engine_runs(self, rng):
        square = PolygonSet([Polygon(np.asarray(
            [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]]
        ))])
        points = PointDataset(
            rng.uniform(0.0, 100.0, 5_000), rng.uniform(0.0, 100.0, 5_000)
        )
        engine = BoundedRasterJoin(
            epsilon=0.5526, device=GPUDevice(max_resolution=256),
            config=EngineConfig(backend="thread", workers=2),
        )
        try:
            regime, terms = with_model(self.UNIT).explain_terms(
                points, square, engine
            )
            result = engine.execute(points, square)
        finally:
            engine.close()
        assert regime == "cold"
        # 258^2 pixels in four tiles over two workers: two waves scan a
        # quarter of the points each, after one projection of them all.
        assert result.stats.extra["canvas"] == (258, 258)
        assert result.stats.extra["tiles"] == 4
        assert terms["point_pass"] == pytest.approx(5_000 * (1 + 2 / 4))
        assert terms["polygon_pass"] == pytest.approx(258 * 258 / 2)

    @staticmethod
    def _square_and_points(rng):
        square = PolygonSet([Polygon(np.asarray(
            [[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]]
        ))])
        points = PointDataset(
            rng.uniform(0.0, 100.0, 5_000), rng.uniform(0.0, 100.0, 5_000)
        )
        return square, points

    @staticmethod
    def _engine(variant, device, workers):
        config = EngineConfig(backend="thread", workers=workers)
        if variant == "bounded":
            return BoundedRasterJoin(
                resolution=300, device=device, config=config
            )
        return AccurateRasterJoin(resolution=300, device=device, config=config)

    @pytest.mark.parametrize("variant", ["bounded", "accurate"])
    @pytest.mark.parametrize("max_resolution, tiles", [(None, 1), (256, 4)],
                             ids=["no-device", "device-256"])
    def test_terms_price_the_canvas_the_engine_runs(
        self, rng, variant, max_resolution, tiles
    ):
        """Either variant, with or without a device: the tile count is
        the engine's under its own limit, not an assumed one."""
        square, points = self._square_and_points(rng)
        device = (
            None if max_resolution is None
            else GPUDevice(max_resolution=max_resolution)
        )
        engine = self._engine(variant, device, workers=2)
        try:
            _, terms = with_model(self.UNIT).explain_terms(
                points, square, engine
            )
            result = engine.execute(points, square)
        finally:
            engine.close()
        assert result.stats.extra["canvas"] == (300, 300)
        assert result.stats.extra["tiles"] == tiles
        waves = -(-tiles // 2)
        assert terms["point_pass"] == pytest.approx(
            5_000 * (1 + waves / tiles)
        )
        assert terms["polygon_pass"] == pytest.approx(
            300 * 300 / min(2, tiles)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_are_the_engines(self, rng, workers):
        """Four tiles over the engine's own workers: the point pass runs
        in ``ceil(4 / workers)`` waves and the polygon pass divides."""
        square, points = self._square_and_points(rng)
        engine = self._engine(
            "bounded", GPUDevice(max_resolution=256), workers
        )
        try:
            _, terms = with_model(self.UNIT).explain_terms(
                points, square, engine
            )
        finally:
            engine.close()
        waves = -(-4 // workers)
        assert terms["point_pass"] == pytest.approx(5_000 * (1 + waves / 4))
        assert terms["polygon_pass"] == pytest.approx(300 * 300 / workers)

    @pytest.mark.parametrize("variant, aggregate, capacity, cap", [
        ("bounded", Count(), 400_000, 1),
        ("accurate", Average("fare"), 6 << 20, 1),
        ("bounded", Average("fare"), 8 << 20, 2),
        ("accurate", Average("fare"), 12 << 20, 3),
    ], ids=["bounded-count", "accurate-avg-6MiB", "bounded-avg-8MiB",
            "accurate-avg-12MiB"])
    def test_device_memory_caps_the_workers(
        self, rng, variant, aggregate, capacity, cap
    ):
        """A device that holds ``cap`` tiles' framebuffer and batch at
        once runs four workers ``cap`` tiles at a time, and EXPLAIN costs
        the cap the tile loop computes: from the statement's columns and
        bytes per pixel, not the locations' and a fixed channel."""
        n = 100_000
        points = PointDataset(
            rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n),
            {"fare": rng.uniform(0.0, 50.0, n)},
        )
        zones = PolygonSet([
            rectangle(0.0, 0.0, 40.0, 100.0), rectangle(60.0, 0.0, 100.0, 100.0),
        ])
        device = GPUDevice(capacity_bytes=capacity, max_resolution=256)
        config = EngineConfig(backend="thread", workers=4)
        engine = (
            BoundedRasterJoin(resolution=1024, device=device, config=config)
            if variant == "bounded"
            else AccurateRasterJoin(
                resolution=1024, device=device, config=config
            )
        )
        caps = []
        run_tasks = engine.backend.run_tasks

        def spy(tasks, parallelism=None):
            caps.append(parallelism)
            return run_tasks(tasks, parallelism=parallelism)

        engine.backend.run_tasks = spy
        try:
            _, terms = with_model(self.UNIT).explain_terms(
                points, zones, engine, aggregate
            )
            result = engine.execute(points, zones, aggregate)
        finally:
            engine.close()
        assert result.stats.extra["tiles"] == 16
        assert caps == [cap]
        waves = -(-16 // cap)
        assert terms["point_pass"] == pytest.approx(n * (1 + waves / 16))
        width, height = result.stats.extra["canvas"]
        assert terms["polygon_pass"] == pytest.approx(
            int(width * height * 0.8) / cap
        )

    @pytest.mark.parametrize("variant, keys", [
        ("bounded", {"prepare", "point_pass", "polygon_pass"}),
        ("accurate", {"prepare", "point_pass", "boundary_pip",
                      "polygon_pass"}),
    ])
    def test_term_keys_name_the_variants_spans(self, rng, variant, keys):
        """Only the accurate variant has a boundary PIP pass to cost."""
        square, points = self._square_and_points(rng)
        engine = self._engine(variant, None, workers=1)
        try:
            regime, terms = with_model(self.UNIT).explain_terms(
                points, square, engine
            )
        finally:
            engine.close()
        assert regime == "cold"
        assert set(terms) == keys
        assert all(value >= 0.0 for value in terms.values())


class TestCrossover:
    """Figure 12(a): as ε shrinks the bounded variant renders
    quadratically more pixels, and its predicted time crosses the
    accurate variant's."""

    @pytest.mark.parametrize("epsilon, cheaper", [
        (5.0, "bounded"), (0.001, "accurate"),
    ], ids=["coarse", "tiny"])
    def test_cheaper_variant_flips_as_epsilon_shrinks(
        self, optimizer, uniform_points, three_regions, epsilon, cheaper
    ):
        cost = {
            "bounded": predicted(optimizer, uniform_points, three_regions,
                                 BoundedRasterJoin(epsilon=epsilon))[1],
            "accurate": predicted(optimizer, uniform_points, three_regions,
                                  AccurateRasterJoin())[1],
        }
        other = "accurate" if cheaper == "bounded" else "bounded"
        assert cost[cheaper] < cost[other]


class TestCacheAwareCosting:
    """A variant whose artifact the session already holds is costed
    without its preparation and polygon-pass cost."""

    EPSILON = 5.0  # coarse: bounded is cheaper when both are cold

    def _engines(self, session):
        return (
            BoundedRasterJoin(epsilon=self.EPSILON, session=session),
            AccurateRasterJoin(session=session),
        )

    def _costs(self, points, polygons, session) -> dict:
        opt = with_model(hand_tuned_model())
        bounded, accurate = self._engines(session)
        return {
            "bounded": predicted(opt, points, polygons, bounded),
            "accurate": predicted(opt, points, polygons, accurate),
        }

    def test_cold_baseline_bounded_cheaper(self, uniform_points,
                                           three_regions):
        cost = self._costs(
            uniform_points, three_regions, QuerySession(store=False)
        )
        assert cost["bounded"][0] == cost["accurate"][0] == "cold"
        assert cost["bounded"][1] < cost["accurate"][1]

    def test_warm_accurate_beats_cold_bounded(self, uniform_points,
                                              three_regions):
        session = QuerySession(store=False)
        # Warm the accurate variant the way a real loop would: run it.
        accurate = AccurateRasterJoin(session=session)
        accurate.execute(uniform_points, three_regions)
        cost = self._costs(uniform_points, three_regions, session)
        assert cost["accurate"][0] == "warm"
        assert cost["bounded"][0] == "cold"
        assert cost["accurate"][1] < cost["bounded"][1]
        # The engine costed warm actually runs warm.
        result = accurate.execute(uniform_points, three_regions)
        assert result.stats.prepared_hits == 1

    def test_store_tier_counts_as_warm(self, uniform_points, three_regions,
                                       tmp_path):
        """An artifact that lives only on disk (previous process) still
        discounts the variant."""
        store_dir = tmp_path / "store"
        warmup = QuerySession(store=ArtifactStore(store_dir))
        AccurateRasterJoin(session=warmup).execute(
            uniform_points, three_regions
        )
        # "Restart": fresh session, same store, empty memory tier.
        session = QuerySession(store=ArtifactStore(store_dir))
        cost = self._costs(uniform_points, three_regions, session)
        assert cost["accurate"][0] == "warm"
        assert cost["accurate"][1] < cost["bounded"][1]

    def test_costing_never_mutates_cache_state(self, uniform_points,
                                               three_regions):
        session = QuerySession(store=False)
        accurate = AccurateRasterJoin(session=session)
        accurate.execute(uniform_points, three_regions)
        hits, misses = session.hits, session.misses
        self._costs(uniform_points, three_regions, session)
        assert (session.hits, session.misses) == (hits, misses)

    def test_config_wired_store_counts_as_warm(self, uniform_points,
                                               three_regions, tmp_path):
        """With the store wired only through EngineConfig (no explicit
        session anywhere), the costing still sees disk warmth — it
        probes the engine's own store-backed session."""
        config = EngineConfig(store_dir=str(tmp_path / "cfg-store"))
        AccurateRasterJoin(config=config).execute(
            uniform_points, three_regions
        )
        opt = with_model(hand_tuned_model())
        warm = predicted(opt, uniform_points, three_regions,
                         AccurateRasterJoin(config=config))
        cold = predicted(opt, uniform_points, three_regions,
                         AccurateRasterJoin())
        assert warm[0] == "warm" and cold[0] == "cold"
        assert warm[1] < cold[1]

    def test_triangles_only_entry_costs_cold(self, uniform_points,
                                             three_regions):
        """An artifact without coverage — triangles at most — is no
        discount: its first statement rasterizes the polygon side whole."""
        session = QuerySession(store=False)
        _, accurate = self._engines(session)
        entry, _ = session.prepared_for(three_regions, accurate.prepared_spec())
        entry.ensure_triangles(three_regions)
        cost = self._costs(uniform_points, three_regions, session)
        cold = self._costs(
            uniform_points, three_regions, QuerySession(store=False)
        )
        assert cost["accurate"] == cold["accurate"]
        assert cost["accurate"][0] == "cold"

    def test_warm_bounded_stays_cheaper(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        BoundedRasterJoin(epsilon=self.EPSILON, session=session).execute(
            uniform_points, three_regions
        )
        cost = self._costs(uniform_points, three_regions, session)
        assert cost["bounded"][0] == "warm"
        assert cost["bounded"][1] < cost["accurate"][1]


class TestRoutingAwareCosting:
    """The point-pass term follows the point pass: one expression at any
    tile count, with the projection paid only on a routing miss."""

    MODEL = CostModel(
        per_point_render=1e-6, per_pixel_polygon_pass=0.0,
        per_boundary_point=0.0,
    )

    @pytest.mark.parametrize("tiles, waves", [(1, 1), (4, 4), (16, 8)])
    def test_projection_is_paid_on_a_miss_only(self, tiles, waves):
        n = 1_000_000
        scatter = n * 1e-6 * waves / tiles
        cost = self.MODEL._point_pass_seconds
        assert cost(n, tiles, waves, routed=True) == pytest.approx(scatter)
        assert cost(n, tiles, waves, routed=False) == pytest.approx(
            scatter + n * 1e-6
        )

    def test_costing_probes_the_session_for_routing(self, uniform_points,
                                                    three_regions):
        """Identity-keyed and hash-free: it sees a resident routing,
        prices the point pass without the projection — without any point
        pass at all once the pairing is prewarmed — and touches no
        counter."""
        session = QuerySession(store=False)
        opt = with_model(self.MODEL)
        engine = AccurateRasterJoin(session=session)
        bounded = BoundedRasterJoin(epsilon=5.0, session=session)

        def cost():
            return {
                "accurate": predicted(
                    opt, uniform_points, three_regions, engine
                )[1],
                "bounded": predicted(
                    opt, uniform_points, three_regions, bounded
                )[1],
            }

        cold = cost()
        assert engine.routing_warmth(uniform_points, three_regions) == (
            False, False, False
        )
        engine.execute(uniform_points, three_regions)
        # Routed, and the artifact recorded the boundary join.
        assert engine.routing_warmth(uniform_points, three_regions) == (
            True, False, True
        )
        hits = session.partition_hits
        warm = cost()
        assert session.partition_hits == hits
        projection = len(uniform_points) * self.MODEL.per_point_render
        assert warm["accurate"] == pytest.approx(cold["accurate"] - projection)
        # The bounded variant renders another canvas: still unrouted.
        assert warm["bounded"] == cold["bounded"]
        # Prewarmed, the statement reads cached channels: no scatter.
        engine.prewarm(uniform_points, three_regions)
        assert engine.routing_warmth(uniform_points, three_regions) == (
            True, True, True
        )
        assert bounded.routing_warmth(uniform_points, three_regions) == (
            False, False, False
        )
        prewarmed = cost()
        assert session.partition_hits == hits + 1  # prewarm's own lookup
        assert prewarmed["accurate"] == pytest.approx(
            warm["accurate"] - projection
        )
        assert prewarmed["bounded"] == cold["bounded"]
        # Other points never read as routed.
        assert not any(engine.routing_warmth(
            uniform_points.head(100), three_regions
        ))


class TestRegimes:
    """The regime EXPLAIN prints follows what the engine's session
    holds, and a delta is costed at the share it rebuilds."""

    MODEL = CostModel(
        per_point_render=1e-6, per_pixel_polygon_pass=1e-6,
        per_boundary_point=0.0,
    )

    @pytest.mark.parametrize("state", ["cold", "warm", "delta", "prewarmed"])
    def test_regime_follows_the_session(
        self, uniform_points, three_regions, state
    ):
        session = QuerySession(store=False)
        opt = with_model(self.MODEL)
        polygons = three_regions
        bounded = BoundedRasterJoin(epsilon=0.5, session=session)
        accurate = AccurateRasterJoin(session=session)
        if state != "cold":
            accurate.execute(uniform_points, three_regions)
            bounded.execute(uniform_points, three_regions)
        if state == "delta":
            # One vertex of the (frame-interior) holed square moves.
            ring = three_regions[2].exterior.copy()
            ring[0] += 2.0
            polygons = PolygonSet(
                list(three_regions)[:2]
                + [Polygon(ring, holes=three_regions[2].holes)]
            )
        if state == "prewarmed":
            accurate.prewarm(uniform_points, three_regions)
        regime, terms = opt.explain_terms(uniform_points, polygons, accurate)
        assert regime == {
            "cold": "cold", "warm": "warm", "delta": "warm",
            "prewarmed": "pyramid-warm",
        }[state]
        assert opt.explain_terms(uniform_points, polygons, bounded)[0] == (
            "cold" if state == "cold" else "warm"
        )
        if state == "delta":
            # Two of three polygons carry over: a third rebuilds.
            _, cold = opt.explain_terms(
                uniform_points, polygons, AccurateRasterJoin()
            )
            assert terms["polygon_pass"] == pytest.approx(
                cold["polygon_pass"] / 3
            )
