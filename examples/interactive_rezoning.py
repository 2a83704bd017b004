#!/usr/bin/env python3
"""Interactive urban planning (the paper's second motivating application).

Policy makers rezone the city and place resources, inspecting aggregate
coverage after every change:

1. start from a zoning partition (Voronoi-merge regions);
2. iteratively "redraw" one zone boundary — **move one vertex, re-query**
   — and re-aggregate incrementally: with a :class:`QuerySession` the
   edited set delta-derives from the warm artifact, so only the edited
   polygon re-triangulates and re-rasterizes (the per-iteration rebuild
   count is printed; see ``docs/incremental_edits.md``);
3. place service facilities and compute their coverage via a restricted
   Voronoi diagram, aggregating taxi demand per facility;
4. flip back and forth between competing proposals (the undo/redo loop)
   with a :class:`QuerySession`, so revisiting a zoning — or running a
   different aggregate over it — reuses its triangulations, grid index,
   boundary masks, and coverage instead of rebuilding them;
5. save the day's prepared state to an :class:`ArtifactStore`, "restart"
   the planning tool, and answer the first query of the next session
   disk-warm — no re-triangulation, bit-identical numbers; a
   single-vertex edit rebuilds one zone and persists, like any zoning,
   as a whole pair under its own key.

Run:  python examples/interactive_rezoning.py
"""

import tempfile
import time

import numpy as np

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    Count,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.data import generate_taxi, generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.geometry.bbox import BBox


def move_one_vertex(zones: PolygonSet, stroke: int) -> tuple[PolygonSet, int]:
    """One rezoning stroke: nudge one vertex of one interior zone.

    Interior zones keep the city extent (the *frame*) unchanged, which
    is what lets the session reuse every other zone's prepared state.
    """
    box = zones.bbox
    polys = list(zones)
    interior = [
        i for i, p in enumerate(polys)
        if p.bbox.xmin > box.xmin and p.bbox.xmax < box.xmax
        and p.bbox.ymin > box.ymin and p.bbox.ymax < box.ymax
    ]
    if not interior:
        raise ValueError(
            "zoning has no interior zone: every polygon touches the "
            "extent, so a vertex edit would change the frame and "
            "cold-rebuild instead of re-aggregating incrementally"
        )
    pid = interior[stroke % len(interior)]
    ring = polys[pid].exterior.copy()
    center = ring.mean(axis=0)
    vid = stroke % len(ring)
    ring[vid] = ring[vid] + (center - ring[vid]) * 0.3
    polys[pid] = Polygon(ring)
    return PolygonSet(polys, names=zones.names), pid


def rezoning_session(taxi, strokes: int = 4) -> None:
    """The incremental edit loop: move one vertex, re-query, repeat."""
    print("-- Rezoning session (one-vertex strokes, incremental) --")
    session = QuerySession()
    engine = BoundedRasterJoin(epsilon=25.0, session=session)
    zones = generate_voronoi_regions(18, NYC_REGION_EXTENT, seed=100)
    start = time.perf_counter()
    demand = engine.execute(taxi, zones, aggregate=Sum("fare"))
    elapsed = time.perf_counter() - start
    print(
        f"  initial zoning : total fares ${demand.values.sum():,.0f}  "
        f"[{elapsed:.3f}s, cold build of {len(zones)} zones]"
    )
    for stroke in range(strokes):
        zones, pid = move_one_vertex(zones, stroke)
        start = time.perf_counter()
        demand = engine.execute(taxi, zones, aggregate=Sum("fare"))
        elapsed = time.perf_counter() - start
        rebuilt = demand.stats.extra.get("polygons_rebuilt", len(zones))
        values = demand.values
        print(
            f"  stroke {stroke + 1} (zone #{pid}): total fares "
            f"${values.sum():,.0f}, hottest zone #{int(values.argmax())}  "
            f"[{elapsed:.3f}s, prepared={demand.stats.extra['prepared']}, "
            f"rebuilt {rebuilt}/{len(zones)} zones]"
        )
    print("\n  last stroke, in full (stats.summary()):")
    for line in demand.stats.summary().splitlines():
        print(f"    {line}")
    print(f"  => {session!r}")


def facility_coverage(taxi, n_facilities: int = 12) -> None:
    """Restricted Voronoi coverage: each facility serves its nearest-
    neighbor cell, clipped to the city extent (the paper computes coverage
    'using a restricted Voronoi diagram to associate each resource with a
    polygonal region')."""
    print("\n-- Facility placement coverage --")
    rng = np.random.default_rng(3)
    extent = NYC_REGION_EXTENT

    engine = BoundedRasterJoin(epsilon=25.0)
    for attempt in ("random", "demand-aware"):
        if attempt == "random":
            fx = rng.uniform(extent.xmin, extent.xmax, n_facilities)
            fy = rng.uniform(extent.ymin, extent.ymax, n_facilities)
        else:
            # Place facilities at random *pickup* locations: cheap
            # demand-proportional sampling.
            idx = rng.integers(0, len(taxi), n_facilities)
            fx = taxi.xs[idx]
            fy = taxi.ys[idx]
        cells = _voronoi_cells(fx, fy, extent)
        coverage = engine.execute(taxi, cells)
        values = coverage.values
        balance = values.std() / values.mean()
        print(
            f"  {attempt:<13}: demand per facility "
            f"min={int(values.min())}, median={int(np.median(values))}, "
            f"max={int(values.max())}  (imbalance cv={balance:.2f})"
        )
    print("  => demand-aware placement balances coverage far better.")


def _voronoi_cells(fx, fy, extent: BBox):
    """Restricted Voronoi cells of the facility sites."""
    from repro.data.regions import _clipped_voronoi_cells
    from repro.geometry.polygon import Polygon, PolygonSet

    sites = np.column_stack([fx, fy])
    cells = _clipped_voronoi_cells(sites, extent)
    return PolygonSet([Polygon(c) for c in cells])


def proposal_comparison(taxi) -> None:
    """The undo/redo loop: the planner keeps flipping between proposal A
    and proposal B, and also asks different questions about the same
    zoning.  With a QuerySession every revisit is a prepared-state hit —
    only the point rendering runs."""
    print("\n-- Proposal comparison with a QuerySession --")
    session = QuerySession()
    engine = AccurateRasterJoin(resolution=1024, session=session)
    proposals = {
        "A": generate_voronoi_regions(18, NYC_REGION_EXTENT, seed=100),
        "B": generate_voronoi_regions(18, NYC_REGION_EXTENT, seed=101),
    }
    schedule = [
        ("A", Sum("fare")), ("B", Sum("fare")),   # first look: cold
        ("A", Sum("fare")), ("B", Sum("fare")),   # revisit: warm
        ("A", Count()), ("B", Count()),           # new question, same zoning
    ]
    for name, aggregate in schedule:
        start = time.perf_counter()
        result = engine.execute(taxi, proposals[name], aggregate=aggregate)
        elapsed = time.perf_counter() - start
        state = "warm" if result.stats.prepared_hits else "cold"
        print(
            f"  proposal {name} / {aggregate.name:<5}: "
            f"{result.values.sum():>14,.0f} total  "
            f"[{elapsed:.3f}s, prepared state {state}]"
        )
    print(f"  => {session!r}")


def warm_restart(taxi) -> None:
    """End of day: the planner closes the tool; tomorrow the first query
    over yesterday's zoning should not pay the cold build again.  An
    ArtifactStore persists prepared state write-through, so a *new
    process* (simulated here by a brand-new session over the same
    directory) starts disk-warm."""
    print("\n-- Save / restart / warm query with an ArtifactStore --")
    zoning = generate_voronoi_regions(18, NYC_REGION_EXTENT, seed=100)
    with tempfile.TemporaryDirectory(prefix="rezoning-store-") as store_dir:
        # Today's session: the cold build is persisted as a side effect.
        today = QuerySession(store=ArtifactStore(store_dir))
        engine = AccurateRasterJoin(resolution=1024, session=today)
        start = time.perf_counter()
        before = engine.execute(taxi, zoning, aggregate=Sum("fare"))
        cold_s = time.perf_counter() - start
        print(f"  today    : cold build + write-through   [{cold_s:.3f}s, "
              f"{len(today.store)} artifact(s) on disk]")

        # "Restart": a fresh session + store handle, empty memory tier.
        tomorrow = QuerySession(store=ArtifactStore(store_dir))
        engine = AccurateRasterJoin(resolution=1024, session=tomorrow)
        start = time.perf_counter()
        after = engine.execute(taxi, zoning, aggregate=Sum("fare"))
        warm_s = time.perf_counter() - start
        state = "disk-warm" if after.stats.prepared_store_hits else "cold?!"
        identical = np.array_equal(before.values, after.values)
        print(f"  tomorrow : first query {state}          [{warm_s:.3f}s, "
              f"{cold_s / warm_s:.1f}x faster, bit-identical={identical}]")

        # One morning stroke: only the edited zone rebuilds; the edited
        # zoning is a new key and checkpoints as a whole pair of its own.
        edited, pid = move_one_vertex(zoning, 0)
        store = tomorrow.store
        disk_before, save_before = store.disk_bytes, store.save_s
        start = time.perf_counter()
        stroke = engine.execute(taxi, edited, aggregate=Sum("fare"))
        edit_s = time.perf_counter() - start
        print(
            f"  stroke   : zone #{pid} edited            [{edit_s:.3f}s, "
            f"prepared={stroke.stats.extra['prepared']}, rebuilt "
            f"{stroke.stats.extra.get('polygons_rebuilt', '?')}/"
            f"{len(edited)} zones; wrote a "
            f"{(store.disk_bytes - disk_before) / 1e6:.1f} MB pair in "
            f"{store.save_s - save_before:.3f}s, {len(store)} pairs on disk]"
        )
        print(f"  => {tomorrow!r}")


def main() -> None:
    print("Generating 500k taxi pickups...")
    taxi = generate_taxi(500_000, seed=9)
    rezoning_session(taxi)
    facility_coverage(taxi)
    proposal_comparison(taxi)
    warm_restart(taxi)


if __name__ == "__main__":
    main()
