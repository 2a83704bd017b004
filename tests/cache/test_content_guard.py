"""The content guard of the session's point-keyed caches.

Two tiers: a *frozen* column (an ndarray that owns its data and is not
writeable — every column a planner-registered table owns) is checked by
identity, reading no byte; every other column — writeable arrays,
views, memmaps, device-resident columns — is folded per statement.
Either way a source changed between two statements is re-routed, never
answered from its stale routing.
"""

import numpy as np
import pytest

from repro import AccurateRasterJoin, PointDataset, PolygonSet, QuerySession, Sum
from repro.cache import session as session_module
from repro.device.memory import GPUDevice
from repro.geometry.polygon import rectangle
from repro.sql.planner import QueryPlanner

SQL = ("SELECT SUM(val) FROM pts, zones WHERE pts.loc INSIDE zones.geometry "
       "GROUP BY zones.id")


def halves() -> PolygonSet:
    """Two half-canvas rectangles: a point's side is its polygon."""
    return PolygonSet([rectangle(0, 0, 50, 100), rectangle(50, 0, 100, 100)])


def points(n: int = 2_000, seed: int = 3) -> PointDataset:
    rng = np.random.default_rng(seed)
    return PointDataset(
        rng.uniform(0.5, 99.5, n), rng.uniform(0.5, 99.5, n),
        {"val": rng.integers(1, 10, n).astype(np.float64)},
    )


def engine(session=None) -> AccurateRasterJoin:
    return AccurateRasterJoin(resolution=256, session=session)


def fresh(pts, zones):
    return engine().execute(pts, zones, Sum("val"))


def swap_across(pts) -> None:
    """Swap two x values in place: one point on each side, with
    different values — every column's word sum and XOR stay the same."""
    xs, val = pts.xs, pts.column("val")
    left = np.flatnonzero((xs < 45.0) & (val == 1.0))[0]
    right = np.flatnonzero((xs > 55.0) & (val == 9.0))[0]
    xs[left], xs[right] = xs[right], xs[left]


def routings(session):
    return [s for s in session._point_cache.values() if s.kind == "partition"]


class TestFold:
    def test_a_swap_within_a_column_is_never_answered_stale(self):
        """Sum + XOR of the words miss a permutation; the routing would
        send both points to their old sides."""
        pts, zones = points(), halves()
        session = QuerySession(store=False)
        eng = engine(session)
        eng.execute(pts, zones, Sum("val"))
        assert eng.execute(pts, zones, Sum("val")).stats.extra[
            "partition"] == "cached"
        before = fresh(pts, zones).values
        swap_across(pts)
        result = eng.execute(pts, zones, Sum("val"))
        assert result.stats.extra["partition"] == "on"
        assert np.array_equal(result.values, fresh(pts, zones).values)
        assert not np.array_equal(result.values, before)

    def test_fold_is_order_sensitive(self):
        column = np.arange(1000, dtype=np.float64)
        swapped = column.copy()
        swapped[[3, 700]] = swapped[[700, 3]]
        assert session_module._fold_column(column)[:2] == (
            session_module._fold_column(swapped)[:2])
        assert session_module._fold_column(column) != (
            session_module._fold_column(swapped))

    @pytest.mark.parametrize("kind", ["writeable", "view", "memmap"])
    def test_unfrozen_columns_are_folded(self, kind, tmp_path):
        """What ``engine.execute`` is handed straight keeps the fold:
        writeable arrays, views of a larger array (even read-only ones:
        the base may still be written), read-only memmaps (the file
        may be)."""
        base = points(4_000)
        if kind == "writeable":
            pts = base
        elif kind == "view":
            pts = PointDataset(base.xs[:2_000], base.ys[:2_000],
                               {"val": base.column("val")[:2_000]})
            session_module.freeze_points(pts)
        else:
            path = tmp_path / "xs.bin"
            base.xs.tofile(path)
            xs = np.memmap(path, dtype=np.float64, mode="r")
            pts = PointDataset(xs, base.ys, {"val": base.column("val")})
        assert not session_module._frozen(pts.xs)
        session = QuerySession(store=False)
        eng = engine(session)
        eng.execute(pts, halves(), Sum("val"))
        if kind == "memmap":
            writer = np.memmap(tmp_path / "xs.bin", dtype=np.float64,
                               mode="r+")
            writer[: len(pts)] = 100.0 - writer[: len(pts)]
            writer.flush()
        elif kind == "view":
            base.xs[:2_000] = 100.0 - base.xs[:2_000]
        else:
            pts.xs[:] = 100.0 - pts.xs
        result = eng.execute(pts, halves(), Sum("val"))
        assert result.stats.extra["partition"] == "on"
        assert np.array_equal(result.values, fresh(pts, halves()).values)


class TestFrozenTables:
    def test_registered_columns_are_frozen(self):
        pts = points()
        planner = QueryPlanner()
        planner.register_points("pts", pts)
        for name in ("x", "y", "val"):
            assert session_module._frozen(pts.column(name))
            with pytest.raises(ValueError):
                pts.column(name)[0] = 1.0
        planner.close()

    def test_a_view_is_registered_but_not_frozen(self):
        base = points(4_000)
        pts = base.head(2_000)
        planner = QueryPlanner()
        planner.register_points("pts", pts)
        assert pts.xs.flags.writeable and not pts.xs.flags.owndata
        planner.close()

    def test_a_column_made_writeable_again_is_folded(self):
        """Flag up: the column's contribution to the guard changes from
        its identity to its fold, so the next statement re-routes once
        and the one after is cached again.  Mutate: the fold sees it,
        the routing is rebuilt and the answer is a fresh engine's."""
        pts, zones = points(), halves()
        planner = QueryPlanner(device=GPUDevice(max_resolution=256))
        planner.register_points("pts", pts)
        planner.register_regions("zones", zones)
        assert planner.execute(SQL).stats.extra["partition"] == "on"
        assert planner.execute(SQL).stats.extra["partition"] == "cached"
        pts.xs.flags.writeable = True
        assert planner.execute(SQL).stats.extra["partition"] == "on"
        assert planner.execute(SQL).stats.extra["partition"] == "cached"
        swap_across(pts)
        result = planner.execute(SQL)
        assert result.stats.extra["partition"] == "on"
        assert len(routings(planner.session)) == 1
        assert np.array_equal(result.values, fresh(pts, zones).values)
        planner.close()

    def test_a_registered_table_is_guarded_without_reading_it(
        self, monkeypatch
    ):
        """2.56M rows: from the first call on the guard folds no column
        and hashes nothing — its cost is flat in n.  A writeable source
        is folded on every call."""
        rng = np.random.default_rng(5)
        n = 2_560_000
        big = PointDataset(rng.uniform(0, 100, n), rng.uniform(0, 100, n))
        planner = QueryPlanner()
        planner.register_points("big", big)
        session = planner.session
        assert not hasattr(session_module, "hashlib")
        folds = []
        fold = session_module._fold_column
        monkeypatch.setattr(session_module, "_fold_column",
                            lambda col: folds.append(col) or fold(col))
        first, frozen = session._content_fold(big)
        assert folds == []
        assert frozen[0] is big.xs and frozen[1] is big.ys
        for _ in range(3):
            assert session._content_fold(big) == (first, frozen)
        assert folds == []
        small = points()
        session._content_fold(small)
        session._content_fold(small)
        assert len(folds) == 6
        planner.close()
