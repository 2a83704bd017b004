"""A tile's run table carries the plan that reduces it, and the polygon
pass only runs it.

Every producer of a :class:`~repro.cache.prepared.TileCoverage` — the
tile task's ``compose_views`` for either kernel, a delta's
``patch_tile``, a windowed statement's ``_Window.table`` and the store's
decode — builds it through ``TileCoverage.build``, so each record's plan
equals one built from scratch from its runs, array for array, dtypes
included.  And a warm statement's polygon pass does no run-table work:
no sort, and per channel one ``reduceat`` per piece, one per run ending
the framebuffer and one per polygon segment.
"""

from unittest import mock

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Average,
    BoundedRasterJoin,
    EngineConfig,
    GPUDevice,
    QuerySession,
    Sum,
)
from repro.cache.prepared import PreparedPolygons, TileCoverage
from repro.core import tiles
from tests.cache.test_incremental import edited_regions

SERIAL = EngineConfig(backend="serial")


def assert_planned(record: TileCoverage, n: int, label=None) -> None:
    """``record`` is its runs' table with the plan built from scratch
    over ``n`` values."""
    fresh = TileCoverage.build(record.runs, record.pids, record.starts, n)
    for field, mine, theirs in zip(TileCoverage._fields, record, fresh):
        assert mine.dtype == theirs.dtype, (label, field)
        assert np.array_equal(mine, theirs), (label, field)


def _engine(kind, session, max_resolution=48):
    return kind(resolution=128, session=session, config=SERIAL,
                device=GPUDevice(max_resolution=max_resolution))


def _session_artifact(session):
    (artifact,) = session._entries.values()
    return artifact


class TestEveryProducerCarriesThePlan:
    @pytest.mark.parametrize("kind", [AccurateRasterJoin, BoundedRasterJoin])
    def test_compose_views(self, kind, uniform_points, three_regions):
        session = QuerySession(store=False)
        _engine(kind, session).execute(uniform_points, three_regions)
        artifact = _session_artifact(session)
        assert len(artifact.views) == len(artifact.tiles) > 1
        for idx, views in artifact.views.items():
            assert_planned(views.coverage, artifact.tiles[idx].num_pixels, idx)

    @pytest.mark.parametrize("kind", [AccurateRasterJoin, BoundedRasterJoin])
    def test_a_deltas_patch_and_window(self, kind, uniform_points,
                                       three_regions):
        """The spliced records a delta's ``patch_tile`` returns, and the
        tables its windowed statement reduces over each window's box."""
        patched, windows = [], []
        patch_tile, table = PreparedPolygons.patch_tile, tiles._Window.table

        def patch(self, tile, *args, **kwargs):
            out = patch_tile(self, tile, *args, **kwargs)
            if out is not None:
                patched.append((out[0].coverage, tile.num_pixels))
            return out

        def windowed(self, coverage):
            out = table(self, coverage)
            width, height = self.shape
            windows.append((out, width * height))
            return out

        session = QuerySession(store=False)
        _engine(kind, session).execute(uniform_points, three_regions,
                                       aggregate=Sum("fare"))
        with mock.patch.object(PreparedPolygons, "patch_tile", patch), \
                mock.patch.object(tiles._Window, "table", windowed):
            result = _engine(kind, session).execute(
                uniform_points, edited_regions(three_regions),
                aggregate=Sum("fare"),
            )
        assert result.stats.extra["prepared"] == "delta"
        assert "polygons_recomputed" in result.stats.extra
        assert patched and windows
        for label, made in (("patch", patched), ("window", windows)):
            for record, n in made:
                assert_planned(record, n, label)

    def test_the_stores_decode(self, tmp_path, uniform_points, three_regions):
        store = ArtifactStore(tmp_path / "artifacts")
        session = QuerySession(store=store)
        _engine(AccurateRasterJoin, session).execute(
            uniform_points, three_regions
        )
        (key,) = session._entries
        loaded = store.load(key, three_regions)
        assert len(loaded.views) == len(loaded.tiles) > 1
        for idx, views in loaded.views.items():
            assert_planned(views.coverage, loaded.tiles[idx].num_pixels, idx)


class _Counting:
    """A ufunc whose ``reduceat`` calls are counted."""

    def __init__(self, ufunc, calls):
        self._ufunc, self._calls = ufunc, calls

    def reduceat(self, *args, **kwargs):
        self._calls["reduceat"] += 1
        return self._ufunc.reduceat(*args, **kwargs)

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class TestThePassDoesNoRunTableWork:
    @pytest.mark.parametrize("max_resolution", [None, 256],
                             ids=["1-tile", "16-tiles"])
    def test_a_warm_statement(self, max_resolution, uniform_points,
                              three_regions):
        device = (GPUDevice() if max_resolution is None
                  else GPUDevice(max_resolution=max_resolution))
        engine = AccurateRasterJoin(
            resolution=1024, session=QuerySession(store=False),
            config=SERIAL, device=device,
        )
        aggregate = Average("fare")
        engine.execute(uniform_points, three_regions, aggregate=aggregate)
        calls = {"reduceat": 0}
        sorts = {"argsort": mock.Mock(wraps=np.argsort),
                 "sort": mock.Mock(wraps=np.sort)}
        expected = 0
        polygon_pass = tiles._polygon_pass

        def counted(coverage, member, channels, partial):
            nonlocal expected
            expected += len(member.aggregate.channels) * (
                len(coverage.pieces) + len(coverage.last) + 1
            )
            with mock.patch.multiple(
                np, add=_Counting(np.add, calls),
                minimum=_Counting(np.minimum, calls),
                maximum=_Counting(np.maximum, calls), **sorts,
            ):
                polygon_pass(coverage, member, channels, partial)

        with mock.patch.object(tiles, "_polygon_pass", counted):
            result = engine.execute(uniform_points, three_regions,
                                    aggregate=aggregate)
        artifact = _session_artifact(engine.session)
        assert result.stats.extra["tiles"] == len(artifact.tiles) == (
            1 if max_resolution is None else 16
        )
        # A 1024² tile spans four cast blocks: at least one cut each.
        pieces = sum(len(v.coverage.pieces) for v in artifact.views.values())
        assert pieces >= (4 if max_resolution is None else 1)
        assert calls["reduceat"] == expected > 0
        assert sorts["argsort"].call_count == sorts["sort"].call_count == 0
