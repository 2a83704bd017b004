"""Unit tests for the bounded-vs-accurate cost optimizer."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    Polygon,
    PolygonSet,
    QuerySession,
    RasterJoinOptimizer,
)
from repro.core.optimizer import CostModel


def hand_tuned_model() -> CostModel:
    """A deterministic model where preparation + polygon pass dominate.

    Point traffic is priced at ~0 so the cache-aware terms (preparation,
    polygon pass) fully decide the comparison — choices become exact
    assertions instead of timing-dependent ones.
    """
    return CostModel(
        per_point_render=1e-12,
        per_pixel_polygon_pass=1e-6,
        per_pip_test=1e-12,
        per_boundary_point=1e-12,
        per_vertex_triangulate=1e-6,
    )


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
        assert model.per_boundary_point > 0

    def test_estimates_monotone_in_epsilon(
        self, optimizer, uniform_points, three_regions
    ):
        """Shrinking epsilon must never make the bounded estimate cheaper."""
        costs = [
            optimizer.estimate(uniform_points, three_regions, eps)["bounded"]
            for eps in (10.0, 1.0, 0.05, 0.005)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_accurate_estimate_independent_of_epsilon(
        self, optimizer, uniform_points, three_regions
    ):
        a = optimizer.estimate(uniform_points, three_regions, 10.0)["accurate"]
        b = optimizer.estimate(uniform_points, three_regions, 0.01)["accurate"]
        assert a == b


class TestChoice:
    def test_coarse_epsilon_prefers_bounded(
        self, optimizer, uniform_points, three_regions
    ):
        engine = optimizer.choose(uniform_points, three_regions, epsilon=5.0)
        assert isinstance(engine, BoundedRasterJoin)

    def test_tiny_epsilon_prefers_accurate(
        self, optimizer, uniform_points, three_regions
    ):
        """The Figure 12(a) crossover: many tiles make bounded lose."""
        engine = optimizer.choose(uniform_points, three_regions, epsilon=0.001)
        assert isinstance(engine, AccurateRasterJoin)

    def test_chosen_engine_runs(self, optimizer, uniform_points, three_regions):
        engine = optimizer.choose(uniform_points, three_regions, epsilon=2.0)
        result = engine.execute(uniform_points, three_regions)
        assert len(result.values) == len(three_regions)


class TestCacheAwareCosting:
    """The ROADMAP item: a variant whose artifact the session already
    holds competes without its preparation and polygon-pass cost."""

    EPSILON = 5.0  # coarse: bounded wins this comfortably when both cold

    def _optimizer(self, session) -> RasterJoinOptimizer:
        opt = RasterJoinOptimizer(session=session)
        opt._model = hand_tuned_model()
        return opt

    def test_cold_baseline_prefers_bounded(self, uniform_points,
                                           three_regions):
        opt = self._optimizer(QuerySession(store=False))
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert not cost["bounded_warm"] and not cost["accurate_warm"]
        assert cost["bounded"] < cost["accurate"]
        assert isinstance(
            opt.choose(uniform_points, three_regions, self.EPSILON),
            BoundedRasterJoin,
        )

    def test_warm_accurate_beats_cold_bounded(self, uniform_points,
                                              three_regions):
        session = QuerySession(store=False)
        opt = self._optimizer(session)
        # Warm the accurate variant the way a real loop would: run it.
        accurate = AccurateRasterJoin(session=session)
        accurate.execute(uniform_points, three_regions)
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert cost["accurate_warm"] and not cost["bounded_warm"]
        assert cost["accurate"] < cost["bounded"]
        chosen = opt.choose(uniform_points, three_regions, self.EPSILON)
        assert isinstance(chosen, AccurateRasterJoin)
        # The chosen engine actually runs warm.
        result = chosen.execute(uniform_points, three_regions)
        assert result.stats.prepared_hits == 1

    def test_store_tier_counts_as_warm(self, uniform_points, three_regions,
                                       tmp_path):
        """An artifact that lives only on disk (previous process) still
        discounts the variant — the restarted optimizer prefers it."""
        store_dir = tmp_path / "store"
        warmup = QuerySession(store=ArtifactStore(store_dir))
        AccurateRasterJoin(session=warmup).execute(
            uniform_points, three_regions
        )
        # "Restart": fresh session, same store, empty memory tier.
        session = QuerySession(store=ArtifactStore(store_dir))
        opt = self._optimizer(session)
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert cost["accurate_warm"]
        assert isinstance(
            opt.choose(uniform_points, three_regions, self.EPSILON),
            AccurateRasterJoin,
        )

    def test_costing_never_mutates_cache_state(self, uniform_points,
                                               three_regions):
        session = QuerySession(store=False)
        accurate = AccurateRasterJoin(session=session)
        accurate.execute(uniform_points, three_regions)
        hits, misses = session.hits, session.misses
        opt = self._optimizer(session)
        opt.estimate(uniform_points, three_regions, self.EPSILON)
        opt.choose(uniform_points, three_regions, self.EPSILON)
        assert (session.hits, session.misses) == (hits, misses)

    def test_config_wired_store_counts_as_warm(self, uniform_points,
                                               three_regions, tmp_path):
        """With the store wired only through EngineConfig (no explicit
        session anywhere), the optimizer still sees disk warmth — it
        probes the candidate engines' own store-backed sessions."""
        from repro import EngineConfig

        config = EngineConfig(store_dir=str(tmp_path / "cfg-store"))
        AccurateRasterJoin(config=config).execute(
            uniform_points, three_regions
        )
        opt = RasterJoinOptimizer(config=config)
        opt._model = hand_tuned_model()
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert cost["accurate_warm"]
        assert isinstance(
            opt.choose(uniform_points, three_regions, self.EPSILON),
            AccurateRasterJoin,
        )

    def test_triangles_only_entry_costs_cold(self, uniform_points,
                                             three_regions):
        """An artifact without coverage — triangles at most — is no
        discount: its first statement rasterizes the polygon side whole."""
        session = QuerySession(store=False)
        opt = self._optimizer(session)
        _, accurate = opt._candidates(self.EPSILON)
        entry, _ = session.prepared_for(three_regions, accurate.prepared_spec())
        entry.ensure_triangles(three_regions)
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert cost["accurate_warm"] == 0.0
        cold = self._optimizer(QuerySession(store=False)).estimate(
            uniform_points, three_regions, self.EPSILON
        )
        assert cost["accurate"] == cold["accurate"]

    def test_warm_bounded_stays_preferred(self, uniform_points, three_regions):
        session = QuerySession(store=False)
        opt = self._optimizer(session)
        BoundedRasterJoin(epsilon=self.EPSILON, session=session).execute(
            uniform_points, three_regions
        )
        cost = opt.estimate(uniform_points, three_regions, self.EPSILON)
        assert cost["bounded_warm"]
        assert isinstance(
            opt.choose(uniform_points, three_regions, self.EPSILON),
            BoundedRasterJoin,
        )


class TestRoutingAwareCosting:
    """The point-pass term follows the point pass: one expression at any
    tile count, with the projection paid only on a routing miss."""

    MODEL = CostModel(
        per_point_render=1e-6, per_pixel_polygon_pass=0.0,
        per_pip_test=0.0, per_boundary_point=0.0,
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

    def test_optimizer_probes_the_session_for_routing(self, uniform_points,
                                                      three_regions):
        """Identity-keyed and hash-free: it sees a resident routing,
        prices the point pass without the projection — without any point
        pass at all once the pairing is prewarmed — and touches no
        counter."""
        session = QuerySession(store=False)
        opt = RasterJoinOptimizer(session=session)
        opt._model = self.MODEL
        epsilon = 5.0
        cold = opt.estimate(uniform_points, three_regions, epsilon)
        engine = AccurateRasterJoin(session=session)
        assert not engine.routing_warmth(uniform_points, three_regions)
        engine.execute(uniform_points, three_regions)
        assert engine.routing_warmth(uniform_points, three_regions)
        hits = session.partition_hits
        warm = opt.estimate(uniform_points, three_regions, epsilon)
        assert session.partition_hits == hits
        projection = len(uniform_points) * self.MODEL.per_point_render
        assert warm["accurate"] == pytest.approx(cold["accurate"] - projection)
        # The bounded variant renders another canvas: still unrouted.
        assert warm["bounded"] == cold["bounded"]
        # Prewarmed, the statement reads cached channels: no scatter.
        assert not engine.routing_warmth(uniform_points, three_regions,
                                         indexed=True)
        engine.prewarm(uniform_points, three_regions)
        assert engine.routing_warmth(uniform_points, three_regions,
                                     indexed=True)
        prewarmed = opt.estimate(uniform_points, three_regions, epsilon)
        assert session.partition_hits == hits + 1  # prewarm's own lookup
        assert prewarmed["accurate"] == pytest.approx(
            warm["accurate"] - projection
        )
        assert prewarmed["bounded"] == cold["bounded"]
        # Other points never read as routed.
        assert not engine.routing_warmth(
            uniform_points.head(100), three_regions
        )


class TestOneCostPath:
    """``estimate`` is the sum of each candidate's EXPLAIN terms — the
    features are extracted in one place, so the two cannot drift."""

    @pytest.mark.parametrize("state", ["cold", "warm", "delta", "prewarmed"])
    def test_estimate_is_the_sum_of_explain_terms(
        self, uniform_points, three_regions, state
    ):
        session = QuerySession(store=False)
        opt = RasterJoinOptimizer(session=session)
        opt._model = TestRoutingAwareCosting.MODEL
        epsilon = 0.5
        polygons = three_regions
        bounded, accurate = opt._candidates(epsilon)
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
        cost = opt.estimate(uniform_points, polygons, epsilon)
        regimes = {}
        for name, engine in (("bounded", bounded), ("accurate", accurate)):
            regime, terms = opt.explain_terms(uniform_points, polygons, engine)
            regimes[name] = regime
            assert cost[name] == sum(terms.values()), name
        assert regimes["accurate"] == {
            "cold": "cold", "warm": "warm", "delta": "warm",
            "prewarmed": "pyramid-warm",
        }[state]
        if state == "delta":
            assert cost["accurate_warm"] == pytest.approx(2 / 3)
