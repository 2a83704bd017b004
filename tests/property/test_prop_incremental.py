"""Hypothesis property tests for incremental single-polygon edits.

The incremental-edit guarantee of ``repro.cache`` (PR 5): for random
polygon sets, editing k random polygons — replacing their geometry, and
sometimes adding or deleting one — and re-executing through a warm
:class:`QuerySession` takes the **delta derivation** path (only the
changed polygons' artifacts rebuild) yet produces **bit-identical**
values and channel arrays to a cold from-scratch build, for every
engine, execution backend, aggregate kind, and ingestion mode
(monolithic and streamed) — and equally from the pair the edited key
wrote, after a fresh-session "restart" over the same store directory.

The polygon sets carry two fixed anchor rectangles pinning the overall
extent, so edits never change the frame (the realistic rezoning case:
interior boundaries move, the city does not).
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    BoundedRasterJoin,
    Count,
    EngineConfig,
    Max,
    Min,
    PointDataset,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from tests.conftest import random_star_polygon

AGGREGATE_KINDS = (
    lambda: Count(),
    lambda: Sum("val"),
    lambda: Average("val"),
    lambda: Min("val"),
    lambda: Max("val"),
)

#: Fixed extent anchors: never edited, so the set bbox (and with it the
#: canvas layout and grid extent) is identical before and after edits.
ANCHORS = (
    Polygon([(0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)]),
    Polygon([(94.0, 94.0), (100.0, 94.0), (100.0, 100.0), (94.0, 100.0)]),
)

CENTERS = ((30.0, 30.0), (70.0, 30.0), (30.0, 70.0), (70.0, 70.0), (50.0, 50.0))


def _interior_polygon(rng: np.random.Generator, slot: int) -> Polygon:
    return random_star_polygon(
        rng,
        center=CENTERS[slot % len(CENTERS)],
        radius_range=(4.0, 18.0),
        vertices=int(rng.integers(4, 9)),
    )


def _engine(kind, resolution, backend, session=None):
    cls = AccurateRasterJoin if kind == "accurate" else BoundedRasterJoin
    return cls(
        resolution=resolution, session=session,
        config=EngineConfig(backend=backend, workers=2),
    )


def _run(engine, points, polygons, aggregate, streamed):
    if not streamed:
        return engine.execute(points, polygons, aggregate=aggregate)

    def chunk_source():
        step = max(1, len(points) // 3)
        vals = points.column("val")
        for start in range(0, len(points), step):
            yield PointDataset(
                points.xs[start:start + step],
                points.ys[start:start + step],
                {"val": vals[start:start + step]},
            )

    return engine.execute_stream(chunk_source, polygons, aggregate=aggregate)


def _assert_bit_identical(reference, result, label):
    assert np.array_equal(reference.values, result.values, equal_nan=True), label
    assert reference.channels.keys() == result.channels.keys(), label
    for name in reference.channels:
        assert np.array_equal(
            reference.channels[name], result.channels[name]
        ), (label, name)


@st.composite
def edit_workloads(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_points = draw(st.integers(50, 400))
    n_interior = draw(st.integers(2, 4))
    k_edits = draw(st.integers(1, 2))
    structural = draw(st.sampled_from(["none", "add", "delete"]))
    resolution = draw(st.sampled_from([64, 128]))
    backend = draw(st.sampled_from(["serial", "thread", "process"]))
    streamed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = PointDataset(
        rng.uniform(0.0, 100.0, n_points),
        rng.uniform(0.0, 100.0, n_points),
        {"val": rng.normal(0.0, 10.0, n_points)},
    )
    interior = [_interior_polygon(rng, i) for i in range(n_interior)]
    base = PolygonSet(list(ANCHORS) + interior)
    edited = list(interior)
    edit_slots = rng.choice(n_interior, size=min(k_edits, n_interior),
                            replace=False)
    for slot in edit_slots:
        edited[int(slot)] = _interior_polygon(rng, int(slot))
    if structural == "add" and len(edited) < len(CENTERS):
        edited.append(_interior_polygon(rng, len(edited)))
    elif structural == "delete" and len(edited) > 1:
        edited.pop(int(rng.integers(0, len(edited))))
    after = PolygonSet(list(ANCHORS) + edited)
    return points, base, after, resolution, backend, streamed


@given(edit_workloads())
@settings(max_examples=5, deadline=None)
def test_incremental_edit_bit_identical(workload):
    """Warm-session edits re-execute incrementally and bit-identically."""
    points, base, after, resolution, backend, streamed = workload
    assert base.bbox.xmin == after.bbox.xmin  # anchors pin the frame
    for kind in ("accurate", "bounded"):
        for make_aggregate in AGGREGATE_KINDS:
            reference = _run(
                _engine(kind, resolution, "serial"),
                points, after, make_aggregate(), streamed,
            )
            session = QuerySession(store=False)
            engine = _engine(kind, resolution, backend, session=session)
            _run(engine, points, base, make_aggregate(), streamed)
            result = _run(engine, points, after, make_aggregate(), streamed)
            assert result.stats.extra["prepared"] == "delta", (
                kind, backend, streamed,
            )
            assert result.stats.prepared_delta_hits == 1
            rebuilt = result.stats.extra["polygons_rebuilt"]
            base_fps = {p.fingerprint for p in base}
            expected = sum(1 for p in after if p.fingerprint not in base_fps)
            assert rebuilt == expected, (kind, backend, streamed)
            _assert_bit_identical(
                reference, result,
                (kind, backend, streamed, type(make_aggregate()).__name__),
            )


@given(edit_workloads())
@settings(max_examples=3, deadline=None)
def test_incremental_edit_restarts_from_its_own_pair(workload):
    """With a store attached the edited key persists as a whole pair: a
    fresh session over the same directory answers it with a store hit,
    nothing polygon-side rebuilds, and the bits are a cold build's."""
    points, base, after, resolution, backend, streamed = workload
    reference = _run(
        _engine("accurate", resolution, "serial"),
        points, after, Sum("val"), streamed,
    )
    with tempfile.TemporaryDirectory(prefix="repro-edit-prop-") as root:
        session = QuerySession(store=ArtifactStore(root))
        engine = _engine("accurate", resolution, backend, session=session)
        _run(engine, points, base, Sum("val"), streamed)
        live = _run(engine, points, after, Sum("val"), streamed)
        assert live.stats.extra["prepared"] == "delta"
        _assert_bit_identical(reference, live, (backend, streamed, "live"))

        restarted = QuerySession(store=ArtifactStore(root))
        engine2 = _engine("accurate", resolution, backend,
                          session=restarted)
        again = _run(engine2, points, after, Sum("val"), streamed)
        assert restarted.store_hits == 1
        assert again.stats.prepared_store_hits == 1
        assert again.stats.triangulation_s == 0.0
        assert again.stats.index_build_s == 0.0
        _assert_bit_identical(
            reference, again, (backend, streamed, "restarted")
        )
