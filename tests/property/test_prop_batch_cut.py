"""Property tests: where a tile's rows are cut into batches never
reaches the bits.

A tile's rows cross the device in batches — cut by a ``GPUDevice`` whose
memory does not hold them, by a stream's chunks, or by both — and the
tile folds its boundary matches once, after its last batch, merged
stable by polygon (``repro.core.tiles._merge_batches``), while its
interior rows scatter in row order whatever the cut.  So a float Sum or
Average over non-dyadic values, filtered or not, at one and sixteen
tiles, answers the uncut statement's bits and ``pip_tests``; and a
session statement replays the boundary join's record whichever cut built
it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    Average,
    Filter,
    FilterSet,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from tests.conftest import (
    cutting_capacity,
    random_star_polygon,
    routed_tile_rows,
)

#: (resolution, device framebuffer limit) per tile count.
LAYOUTS = {1: (64, 64), 16: (128, 32)}
AGGREGATES = {"sum": lambda: Sum("val"), "avg": lambda: Average("val")}
FILTERS = {False: FilterSet(), True: FilterSet([Filter("flt", ">=", 0.0)])}


@st.composite
def workloads(draw):
    """Two stars and an anchor square over uniform points whose values
    are normal draws: no sum of them is exact in float64.  A point sits
    on every star vertex, which is a boundary pixel at any resolution,
    and the filter keeps it, so every statement tests pairs whatever
    the uniform draw."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(200, 2_000))
    rng = np.random.default_rng(seed)
    stars = [
        random_star_polygon(rng, center=(35.0, 40.0),
                            radius_range=(10.0, 30.0), vertices=9),
        random_star_polygon(rng, center=(65.0, 60.0),
                            radius_range=(8.0, 25.0), vertices=6),
    ]
    polygons = PolygonSet([
        *stars, Polygon([(0, 0), (100, 0), (100, 100), (0, 100)]),
    ])
    corners = np.concatenate([star.exterior for star in stars])
    k = len(corners)
    return PointDataset(
        np.concatenate([rng.uniform(0.0, 100.0, n), corners[:, 0]]),
        np.concatenate([rng.uniform(0.0, 100.0, n), corners[:, 1]]), {
            "val": rng.normal(0.0, 10.0, n + k),
            "flt": np.concatenate([rng.normal(0.0, 1.0, n),
                                   np.abs(rng.normal(0.0, 1.0, k))]),
        },
    ), polygons


def _engine(tiles, capacity=None, session=None):
    """``capacity`` of ``None``: the default device, which cuts nothing
    here."""
    resolution, limit = LAYOUTS[tiles]
    device = GPUDevice(max_resolution=limit) if capacity is None else (
        GPUDevice(capacity_bytes=capacity, max_resolution=limit)
    )
    return AccurateRasterJoin(resolution=resolution, grid_resolution=32,
                              device=device, session=session)


def _cutting_capacity(points, polygons, aggregate, filters, tiles,
                      batches):
    """Device bytes that leave room for a ``batches``-th of the most rows
    a tile is routed beside the statement's largest framebuffer: that
    tile crosses in ``batches`` batches at most and, for two or more,
    in two at least, every other tile in one to ``batches``."""
    engine = _engine(tiles)
    rows = int(routed_tile_rows(engine, points, polygons).max())
    return cutting_capacity(engine, points, polygons, aggregate, filters,
                            -(-rows // batches))


def same_bits(got, want):
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert got.channels.keys() == want.channels.keys()
    for name, channel in want.channels.items():
        assert np.array_equal(got.channels[name], channel, equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(
    workload=workloads(),
    kind=st.sampled_from(sorted(AGGREGATES)),
    filtered=st.booleans(),
    tiles=st.sampled_from(sorted(LAYOUTS)),
    batches=st.integers(1, 4),
    data=st.data(),
)
def test_any_batch_cut_answers_the_uncut_bits(workload, kind, filtered,
                                              tiles, batches, data):
    """A device's cut, and a stream's chunks cut again by that device,
    answer the uncut statement bit for bit and test its pairs."""
    points, polygons = workload
    filters = FILTERS[filtered]
    want = _engine(tiles).execute(points, polygons, AGGREGATES[kind](),
                                  filters)
    capacity = _cutting_capacity(points, polygons, AGGREGATES[kind](),
                                 filters, tiles, batches)
    cut = _engine(tiles, capacity).execute(points, polygons,
                                           AGGREGATES[kind](), filters)
    if batches == 1:
        assert cut.stats.batches == want.stats.batches
    else:
        assert cut.stats.batches > want.stats.batches
    edges = [0, *sorted(data.draw(st.lists(
        st.integers(1, len(points) - 1), max_size=4, unique=True,
    ))), len(points)]
    chunks = [points.take(np.arange(lo, hi))
              for lo, hi in zip(edges, edges[1:])]
    streamed = _engine(tiles, capacity).execute_stream(
        lambda: iter(chunks), polygons, AGGREGATES[kind](), filters
    )
    for got in (cut, streamed):
        assert got.stats.pip_tests == want.stats.pip_tests > 0
        assert got.stats.boundary_points == want.stats.boundary_points
        same_bits(got, want)


@settings(max_examples=10, deadline=None)
@given(
    workload=workloads(),
    kind=st.sampled_from(sorted(AGGREGATES)),
    filtered=st.booleans(),
    tiles=st.sampled_from(sorted(LAYOUTS)),
    batches=st.integers(2, 4),
    cut_first=st.booleans(),
)
def test_a_record_replays_under_any_cut(workload, kind, filtered, tiles,
                                        batches, cut_first):
    """The boundary join's record is one per tile, whatever cut built
    it: a statement under a cutting device replays the one an uncut
    statement built, and the other way round — no PIP test, same bits."""
    points, polygons = workload
    filters = FILTERS[filtered]
    capacity = _cutting_capacity(points, polygons, AGGREGATES[kind](),
                                 filters, tiles, batches)
    session = QuerySession(store=False)
    first, then = (capacity, None) if cut_first else (None, capacity)
    built = _engine(tiles, first, session).execute(
        points, polygons, AGGREGATES[kind](), filters
    )
    replayed = _engine(tiles, then, session).execute(
        points, polygons, AGGREGATES[kind](), filters
    )
    assert built.stats.extra["pairs"] == "built"
    assert replayed.stats.extra["pairs"] == "recorded"
    assert replayed.stats.pip_tests == 0 < built.stats.pip_tests
    assert replayed.stats.batches != built.stats.batches
    same_bits(replayed, built)
    same_bits(built, _engine(tiles).execute(
        points, polygons, AGGREGATES[kind](), filters
    ))
