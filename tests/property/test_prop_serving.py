"""Hypothesis property tests for the concurrent serving layer.

The core serving invariant: any random mix of concurrent statements —
duplicates coalescing, statements of one (points, regions, filter) key
sharing an execution — returns results bit-identical, values and
channels, to executing each statement alone through the planner.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccurateRasterJoin,
    GPUDevice,
    PointDataset,
    Polygon,
    PolygonSet,
)
from repro.serve import ServeConfig, Server
from repro.sql.planner import QueryPlanner
from tests.conftest import random_star_polygon
from tests.serve.test_fused_scan import assert_same_answer, hard_points
from tests.serve.test_server import _Blocker

#: Two tables, three filter sets, both blends; the server is free to
#: coalesce duplicates and to share an execution per key.
STATEMENTS = [
    "SELECT COUNT(*) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "GROUP BY hoods.id",
    "SELECT SUM(fare) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "GROUP BY hoods.id",
    "SELECT AVG(fare) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "AND hour >= 12 GROUP BY hoods.id",
    "SELECT MAX(fare) FROM taxi, zones WHERE taxi.loc INSIDE zones.geometry "
    "GROUP BY zones.id",
    "SELECT COUNT(*) FROM taxi, zones WHERE taxi.loc INSIDE zones.geometry "
    "AND fare < 25 GROUP BY zones.id",
]

#: NaN / ±inf attributes are among the inputs on purpose, met on worker
#: threads no ``np.errstate`` of the test reaches.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_STATE: dict = {}


def _planner() -> tuple[QueryPlanner, dict[str, object]]:
    """One warm planner + solo reference results, built lazily.

    hypothesis re-runs the test body per example, so the expensive
    catalog construction and reference executions happen once and every
    example reuses them (the solo references double as session warmup,
    which the serving layer shares).
    """
    if not _STATE:
        rng = np.random.default_rng(20260808)
        n = 20_000
        points = PointDataset(
            rng.uniform(0.0, 100.0, n),
            rng.uniform(0.0, 100.0, n),
            attributes={
                "fare": rng.uniform(2.0, 60.0, n),
                "hour": rng.integers(0, 24, n).astype(float),
            },
        )
        anchor = Polygon(
            [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
        )
        hoods = PolygonSet([
            anchor,
            random_star_polygon(rng, center=(35.0, 40.0),
                                radius_range=(5.0, 20.0)),
            random_star_polygon(rng, center=(65.0, 60.0),
                                radius_range=(5.0, 20.0)),
        ])
        zones = PolygonSet([
            anchor,
            random_star_polygon(rng, center=(50.0, 30.0), vertices=14,
                                radius_range=(5.0, 20.0)),
        ])
        planner = QueryPlanner()
        planner.register_points("taxi", points)
        planner.register_regions("hoods", hoods)
        planner.register_regions("zones", zones)
        _STATE["planner"] = planner
        _STATE["solo"] = {q: planner.execute(q) for q in STATEMENTS}
    return _STATE["planner"], _STATE["solo"]


def _serve_behind_a_busy_pool(planner, picks):
    """Submit ``picks`` while every worker is held, so the drain finds
    them pending together; returns their results and the counters."""
    with Server(planner, ServeConfig(max_workers=2)) as server:
        blocker = _Blocker(server, workers=2)
        try:
            futures = [server.submit(q) for q in picks]
        finally:
            blocker.done()
        results = [future.result(60.0) for future in futures]
        return results, server.counters()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_random_concurrent_mix_matches_solo(data):
    planner, solo = _planner()
    picks = data.draw(
        st.lists(st.sampled_from(STATEMENTS), min_size=2, max_size=6),
        label="statements",
    )
    results, counters = _serve_behind_a_busy_pool(planner, picks)
    seen: set[str] = set()
    for statement, result in zip(picks, results):
        assert_same_answer(result, solo[statement])
        if statement in seen:
            # Duplicates submitted while the first was in flight
            # coalesced onto it and say so.
            assert result.stats.extra["coalesced"] is True
        seen.add(statement)
    assert counters["admitted"] == len(set(picks))
    assert counters["coalesced"] == len(picks) - len(set(picks))
    assert counters["rejected"] == 0
    assert counters["depth"] == 0


# ----------------------------------------------------------------------
# One key, every member: the shared channels are the solo bits
# ----------------------------------------------------------------------
SELECTS = ("COUNT(*)", "SUM(a)", "AVG(a)", "SUM(b)", "AVG(b)", "MIN(a)",
           "MAX(a)")
WHERES = ("", "AND hour >= 12", "AND hour < -1")
#: Tile count -> (device limit under the planner's 1024-pixel exact
#: canvas, the ε whose bounded canvas cuts into as many tiles under it).
TILE_LIMITS = {1: (1024, 2.2), 4: (512, 0.2), 16: (256, 0.17)}
PATHS = ("exact", "pyramid-warm", "bounded")

_GROUP_STATE: dict = {}


def _group_sql(select: str, where: str, path: str, tiles: int) -> str:
    within = f" WITHIN {TILE_LIMITS[tiles][1]}" if path == "bounded" else ""
    return (f"SELECT {select} FROM pts, zones WHERE pts.loc INSIDE "
            f"zones.geometry{within} {where} GROUP BY zones.id")


def _group_planner(tiles: int, path: str):
    """One planner per (tile count, pyramid or not), with its solo
    reference cache, over ``hard_points``: NaN / ±inf / -0.0 attributes,
    points on polygon outlines and on the exact canvas' 16-tile seams."""
    key = (tiles, path == "pyramid-warm")
    if key not in _GROUP_STATE:
        rng = np.random.default_rng(20261002)
        zones = PolygonSet([
            Polygon([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]),
            random_star_polygon(rng, center=(35.0, 40.0),
                                radius_range=(5.0, 20.0)),
            random_star_polygon(rng, center=(65.0, 60.0),
                                radius_range=(5.0, 20.0)),
        ])
        points = hard_points(
            rng, zones, [AccurateRasterJoin()._make_canvas(zones)]
        )
        planner = QueryPlanner(
            device=GPUDevice(max_resolution=TILE_LIMITS[tiles][0])
        )
        planner.register_points("pts", points)
        planner.register_regions("zones", zones)
        if path == "pyramid-warm":
            planner.prewarm("pts", "zones")
        _GROUP_STATE[key] = (planner, {})
    return _GROUP_STATE[key]


@settings(max_examples=25, deadline=None)
@given(
    tiles=st.sampled_from(sorted(TILE_LIMITS)),
    path=st.sampled_from(PATHS),
    where=st.sampled_from(WHERES),
    selects=st.lists(st.sampled_from(SELECTS), min_size=2, max_size=7),
)
def _check_group_members(tiles, path, where, selects):
    planner, solo = _group_planner(tiles, path)
    picks = [_group_sql(select, where, path, tiles) for select in selects]
    for statement in picks:
        if statement not in solo:
            solo[statement] = planner.execute(statement)
    results, counters = _serve_behind_a_busy_pool(planner, picks)
    additive = {q for q in picks if "MIN(" not in q and "MAX(" not in q}
    for statement, result in zip(picks, results):
        assert_same_answer(result, solo[statement])
        assert result.stats.extra["tiles"] == tiles
        if path == "pyramid-warm":
            assert result.stats.extra["pyramid"] == "hit"
        # Distinct additive members share the execution; Min / Max and
        # coalesced duplicates of them never report one.
        shares = statement in additive and len(additive) > 1
        assert result.stats.extra.get("fused_queries") == (
            len(additive) if shares else None
        )
    assert counters["fused_scans"] == (1 if len(additive) > 1 else 0)
    assert counters["fused_queries"] == (
        len(additive) if len(additive) > 1 else 0
    )
    assert counters["depth"] == 0


def test_group_members_equal_their_solo_bits():
    # The planners outlive one example but not the test: a multi-tile
    # session's routing holds shared-memory leases under the shm leg.
    try:
        _check_group_members()
    finally:
        for planner, _ in _GROUP_STATE.values():
            planner.close()
            planner.session.invalidate()
        _GROUP_STATE.clear()
