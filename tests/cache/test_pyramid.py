"""The prewarm contract (docs/aggregate_pyramid.md): a statement over a
prewarmed pairing reads cached point-pass channels — never stale, never
leaked, never a different bit."""

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    Count,
    Filter,
    GPUDevice,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.errors import QueryError
from repro.geometry.polygon import rectangle
from repro.obs import metrics
from tests.conftest import brute_force_counts, brute_force_values, run_pixels

RES = 128
GRID = 32

LATE = [Filter("hour", ">=", 12.0)]


@pytest.fixture
def points(rng):
    n = 8_000
    return PointDataset(
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
        {
            "fare": rng.integers(0, 40, n).astype(np.float64),
            "hour": rng.integers(0, 24, n).astype(np.float64),
        },
    )


@pytest.fixture
def regions():
    return PolygonSet(
        [
            rectangle(5, 5, 55, 45),
            Polygon([(50, 50), (90, 55), (80, 95), (45, 80), (60, 65)]),
            # Anchors the union bbox so edited sets keep the canvas.
            rectangle(0, 0, 100, 100),
        ]
    )


def engine(session):
    return AccurateRasterJoin(
        resolution=RES, grid_resolution=GRID, session=session
    )


def channels_of(session):
    return [state for state in session._point_cache.values()
            if state.kind == "channel"]


def records_nbytes(session):
    """What ``pyramid_nbytes`` counts beyond the point LRU: the
    artifacts' records of their boundary joins."""
    return sum(entry.answers.pairs_nbytes for entry in session._entries.values())


def same_bits(a, b):
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert set(a.channels) == set(b.channels)
    for name, channel in b.channels.items():
        assert np.array_equal(a.channels[name], channel, equal_nan=True)


class TestPrewarmedStatements:
    @pytest.mark.parametrize("filters", [None, LATE],
                             ids=["unfiltered", "filtered"])
    def test_every_aggregate_is_the_exact_bits(self, points, regions,
                                               filters):
        keep = None if filters is None else points.column("hour") >= 12.0
        cold_engine = engine(QuerySession(store=False))
        eng = engine(QuerySession(store=False))
        eng.prewarm(points, regions)
        for aggregate, function in [
            (Count(), "count"), (Sum("fare"), "sum"), (Average("fare"), "avg"),
            (Min("fare"), "min"), (Max("fare"), "max"),
        ]:
            cold = cold_engine.execute(points, regions, aggregate, filters)
            assert cold.stats.extra["pyramid"] == "cold"
            warm = eng.execute(points, regions, aggregate, filters)
            assert warm.stats.extra["pyramid"] == "hit"
            # Only the rows on boundary pixels were read.
            assert warm.stats.points_processed == (
                warm.stats.extra["pyramid_fallback_points"]
            ) < len(points)
            assert warm.stats.pip_tests == cold.stats.pip_tests
            same_bits(warm, cold)
            # Integer-valued attributes: float64 additions are exact.
            assert np.array_equal(warm.values, brute_force_values(
                points, regions, function,
                None if function == "count" else "fare", keep,
            ), equal_nan=True)

    def test_resident_points_on_four_tiles(self, points, regions):
        """Device-resident columns, a tiled canvas: same stage."""
        device = GPUDevice(max_resolution=RES // 2)
        resident = device.make_resident(
            {name: points.column(name) for name in ("x", "y", "fare", "hour")}
        )
        cold = AccurateRasterJoin(
            resolution=RES, grid_resolution=GRID, device=device
        ).execute(resident, regions, Sum("fare"), LATE)
        eng = AccurateRasterJoin(
            resolution=RES, grid_resolution=GRID, device=device,
            session=QuerySession(store=False),
        )
        eng.prewarm(resident, regions)
        warm = eng.execute(resident, regions, Sum("fare"), LATE)
        assert warm.stats.extra["tiles"] == 4
        assert warm.stats.extra["pyramid"] == "hit"
        same_bits(warm, cold)

    def test_prewarm_needs_a_session(self, points, regions):
        with pytest.raises(QueryError):
            AccurateRasterJoin(resolution=RES).prewarm(points, regions)

    def test_prewarm_builds_no_channel_and_prepares_no_polygon(
        self, points, regions
    ):
        session = QuerySession(store=False)
        engine(session).prewarm(points, regions)
        assert len(session) == 0 and not channels_of(session)
        (state,) = session._point_cache.values()
        assert state.value.prewarmed
        # A flag, no index: the routing is all a prewarm holds.
        assert session.pyramid_nbytes == 0
        assert session.partition_nbytes == state.nbytes

    @pytest.mark.parametrize("column", ["x", "fare", "hour"])
    def test_mutated_column_is_never_answered_from_a_stale_channel(
        self, points, regions, column
    ):
        """A cached channel depends on the coordinates, the aggregated
        column *and* the filter column: an in-place edit of any of them
        takes the pairing's whole state out, and the next statement
        routes, scatters and answers right."""
        session = QuerySession(store=False)
        eng = engine(session)
        eng.prewarm(points, regions)
        first = eng.execute(points, regions, Sum("fare"), LATE)
        assert first.stats.extra["pyramid"] == "hit"
        data = points.column(column)
        data[:] = (data + 7.0) % (100.0 if column == "x" else 24.0)
        result = eng.execute(points, regions, Sum("fare"), LATE)
        assert result.stats.extra["partition"] == "on"
        assert result.stats.extra["pyramid"] == "cold"
        assert not channels_of(session)
        assert np.array_equal(result.values, brute_force_values(
            points, regions, "sum", "fare", points.column("hour") >= 12.0
        ))

    def test_one_vertex_edit_keeps_the_pairing_warm(self, points, regions):
        session = QuerySession(store=False)
        eng = engine(session)
        eng.prewarm(points, regions)
        assert eng.execute(points, regions, Count()).stats.extra[
            "pyramid"] == "hit"
        builds = len(channels_of(session))
        # One vertex moves; the anchor rectangle pins the union bbox, so
        # the canvas — all a routing and its channels depend on — stays.
        ring = regions[1].exterior.copy()
        ring[0] += (1.5, -2.0)
        edited = PolygonSet([regions[0], Polygon(ring), regions[2]])
        result = eng.execute(points, edited, Count())
        assert result.stats.extra["pyramid"] == "hit"
        assert result.stats.extra["prepared"] == "delta"
        assert result.stats.extra["polygons_rebuilt"] == 1
        assert len(channels_of(session)) == builds
        assert np.array_equal(result.values, brute_force_counts(points, edited))

    def test_reloaded_pairing_rederives_the_run_table(
        self, points, regions, tmp_path
    ):
        """... and the candidate lists, both by the tile task alone: a
        store never holds them, so a prewarmed pairing whose artifact
        comes back from disk rebuilds them and answers the same bits.
        The run table never covers a boundary pixel, which is why the
        cached channels — every row scattered — need no blanking."""
        session = QuerySession(store=ArtifactStore(tmp_path / "s"))
        eng = engine(session)
        eng.prewarm(points, regions)
        first = eng.execute(points, regions, Average("fare"))
        (artifact,) = session._entries.values()
        assert set(artifact.views) == {0}
        mask, record, candidates = artifact.views[0]
        mask = mask.ravel()
        assert len(record.runs) and not mask[run_pixels(record.runs)].any()
        session.invalidate(regions)  # the routing and its channels stay
        again = eng.execute(points, regions, Average("fare"))
        assert again.stats.extra["prepared"] == "store-hit"
        assert again.stats.extra["pyramid"] == "hit"
        assert again.stats.pip_tests == first.stats.pip_tests > 0
        same_bits(again, first)
        (reloaded,) = session._entries.values()
        for held, rebuilt in ((record, reloaded.views[0].coverage),
                              (candidates, reloaded.views[0].candidates)):
            for mine, theirs in zip(rebuilt, held):
                assert mine is not theirs and np.array_equal(mine, theirs)


class TestChannelsInTheSessionLru:
    def test_budget_below_one_channel_answers_cold_and_holds_nothing(
        self, points, regions
    ):
        probe = QuerySession(store=False)
        engine(probe).prewarm(points, regions)
        reference = engine(probe).execute(points, regions, Sum("fare"))
        (channel,) = channels_of(probe)
        session = QuerySession(store=False, byte_budget=channel.nbytes - 1)
        eng = engine(session)
        for _ in range(2):
            eng.prewarm(points, regions)
            result = eng.execute(points, regions, Sum("fare"))
            assert result.stats.extra["pyramid"] == "cold"
            assert result.stats.extra["partition"] == "on"
            assert not session._point_cache
            assert session.partition_nbytes == 0
            assert session.pyramid_nbytes == records_nbytes(session) > 0
            same_bits(result, reference)

    def test_channels_that_would_evict_their_routing_are_not_built(
        self, points, regions
    ):
        probe = QuerySession(store=False)
        engine(probe).prewarm(points, regions)
        reference = engine(probe).execute(points, regions, Average("fare"))
        one, _ = channels_of(probe)
        session = QuerySession(store=False)
        # Room for the routing and one channel; AVG needs two.
        session.PARTITION_BYTE_CAP = probe.partition_nbytes + one.nbytes
        eng = engine(session)
        eng.prewarm(points, regions)
        metrics.REGISTRY.reset()
        for _ in range(2):
            result = eng.execute(points, regions, Average("fare"))
            assert result.stats.extra["pyramid"] == "cold"
            assert result.stats.extra["partition"] == "cached"
            assert not channels_of(session)
            same_bits(result, reference)
        assert "session_channel_builds" not in metrics.snapshot()["counters"]
        # One channel does fit.
        assert eng.execute(points, regions, Count()).stats.extra[
            "pyramid"] == "hit"

    def test_channels_routings_and_sources_share_one_lru(self, points,
                                                         regions, rng):
        """Over budget the least recently used entry goes, whatever its
        kind, and what the two byte counters report never exceeds the
        cap."""
        probe = QuerySession(store=False)
        engine(probe).prewarm(points, regions)
        engine(probe).execute(points, regions, Average("fare"))
        assert len(channels_of(probe)) == 2
        routing_bytes = probe.partition_nbytes
        channel_bytes = channels_of(probe)[0].nbytes
        # Room for the artifact, two routings and three channels.
        cap = 2 * routing_bytes + 3 * channel_bytes + 64
        session = QuerySession(store=False, byte_budget=probe.nbytes + cap)
        eng = engine(session)
        other = PointDataset(
            rng.uniform(0.0, 100.0, len(points)),
            rng.uniform(0.0, 100.0, len(points)),
            {"fare": rng.uniform(0.0, 9.0, len(points))},
        )
        want = {}
        for source in (points, other):
            want[id(source)] = engine(QuerySession(store=False)).execute(
                source, regions, Average("fare")
            )
        for source in (points, other, points, other):
            eng.prewarm(source, regions)
            result = eng.execute(source, regions, Average("fare"))
            assert result.stats.extra["pyramid"] == "hit"
            same_bits(result, want[id(source)])
            held = (session.pyramid_nbytes - records_nbytes(session)
                    + session.partition_nbytes)
            assert held <= cap
            assert held == sum(
                state.nbytes for state in session._point_cache.values()
            )
        # The fourth channel did not fit: the oldest entries went first.
        assert len(channels_of(session)) < 4

    def test_invalidate_drops_channels_with_everything_else(self, points,
                                                            regions):
        session = QuerySession(store=False)
        eng = engine(session)
        eng.prewarm(points, regions)
        eng.execute(points, regions, Count())
        assert session.pyramid_nbytes > 0
        session.invalidate()
        assert session.pyramid_nbytes == session.partition_nbytes == 0
        assert eng.execute(points, regions, Count()).stats.extra[
            "pyramid"] == "cold"


class TestBoundaryPixelStat:
    @staticmethod
    def _union_outline_pixels(regions):
        """The true union outline population over the engine's canvas."""
        from tests.graphics.reference_raster import outline_pixels
        from repro.types import ExecutionStats

        probe = engine(QuerySession())
        prepared = probe._prepare(
            regions, ExecutionStats(engine="probe", batches=0, passes=0)
        )
        total = 0
        for tile in prepared.tiles:
            mask = np.zeros((tile.height, tile.width), dtype=bool)
            for poly in regions:
                if not poly.bbox.intersects(tile.bbox):
                    continue
                ix, iy = outline_pixels(tile, poly.rings)
                mask[iy, ix] = True
            total += int(mask.sum())
        return total

    def test_boundary_pixels_counted_exactly_once(self, points, regions):
        """Regression: the stat is the union outline population — not
        double-counted by the render branch accumulating onto a value
        another branch already assigned — and identical however the
        mask was obtained (direct render, composed units, cached)."""
        expected = self._union_outline_pixels(regions)
        sessionless = AccurateRasterJoin(
            resolution=RES, grid_resolution=GRID
        ).execute(points, regions)
        assert sessionless.stats.extra["boundary_pixels"] == expected
        session = QuerySession()
        eng = engine(session)
        composed = eng.execute(points, regions)  # per-unit build + compose
        cached = eng.execute(points, regions)    # replayed boundary masks
        assert composed.stats.extra["boundary_pixels"] == expected
        assert cached.stats.extra["boundary_pixels"] == expected
