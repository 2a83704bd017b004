"""Synthetic polygon datasets (the paper's region relations).

The paper evaluates on NYC neighborhoods (260 polygons) and US counties
(3945 polygons), and for the polygon-scaling study generates synthetic
polygons itself (§7.4): build a Voronoi diagram over random points inside
the extent, then repeatedly merge random adjacent cells so the final set
mixes convex, concave, and generally complex shapes of varying sizes.

We reuse that exact generator both for the scaling study and as the stand-
in for the real region files (which are not available offline): a 260-
region set over the NYC-like extent plays the neighborhoods, a 3945-region
set over the US-like extent plays the counties.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Voronoi

from repro.errors import GeometryError
from repro.geometry.bbox import BBox
from repro.geometry.clip import clip_polygon_to_rect, ring_area
from repro.geometry.polygon import Polygon, PolygonSet


def _clipped_voronoi_cells(points: np.ndarray, extent: BBox) -> list[np.ndarray]:
    """Voronoi cells of the points, clipped to the extent rectangle.

    scipy's Voronoi leaves boundary cells unbounded; mirroring the sites
    across all four extent edges closes every interior cell, after which a
    rectangle clip makes the cells partition the extent exactly — the
    "constrained Voronoi diagram" the paper's generator needs.
    """
    mirrored = [points]
    for axis, edge in ((0, extent.xmin), (0, extent.xmax),
                       (1, extent.ymin), (1, extent.ymax)):
        m = points.copy()
        m[:, axis] = 2.0 * edge - m[:, axis]
        mirrored.append(m)
    vor = Voronoi(np.concatenate(mirrored, axis=0))

    cells: list[np.ndarray] = []
    for site in range(len(points)):
        region = vor.regions[vor.point_region[site]]
        if -1 in region or len(region) < 3:
            raise GeometryError("mirroring failed to close a Voronoi cell")
        ring = vor.vertices[region]
        clipped = clip_polygon_to_rect(ring, extent)
        if len(clipped) < 3 or abs(ring_area(clipped)) <= 0:
            raise GeometryError("Voronoi cell degenerated under clipping")
        cells.append(clipped)
    return cells


def _cell_adjacency(cells: list[np.ndarray]) -> list[tuple[int, int]]:
    """Pairs of cells sharing at least one (quantized) edge."""

    def edge_keys(ring: np.ndarray):
        n = len(ring)
        for i in range(n):
            a = (round(ring[i, 0], 6), round(ring[i, 1], 6))
            b = (round(ring[(i + 1) % n, 0], 6), round(ring[(i + 1) % n, 1], 6))
            if a != b:
                yield (a, b) if a <= b else (b, a)

    seen: dict[tuple, int] = {}
    pairs: set[tuple[int, int]] = set()
    for idx, ring in enumerate(cells):
        for key in edge_keys(ring):
            other = seen.get(key)
            if other is not None and other != idx:
                pairs.add((other, idx) if other < idx else (idx, other))
            else:
                seen[key] = idx
    return sorted(pairs)


def _merge_cells(
    cells: list[np.ndarray], target: int, rng: np.random.Generator
) -> list[list[int]]:
    """Validated adjacent-cell merging down to ``target`` groups.

    Follows the paper's §7.4 procedure — "randomly chose two neighboring
    polygons and merged them into a single polygon, repeated until n
    polygons remained" — with one safeguard the paper leaves implicit: a
    merge whose union is not a simple polygon (it would pinch at a vertex
    or enclose a hole) is rejected and another pair is tried, so every
    region stays traceable.
    """
    pairs = _cell_adjacency(cells)
    parent = list(range(len(cells)))
    members: dict[int, list[int]] = {i: [i] for i in range(len(cells))}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    groups = len(cells)
    stagnant_sweeps = 0
    while groups > target and stagnant_sweeps < 4:
        order = rng.permutation(len(pairs))
        progressed = False
        for k in order:
            if groups <= target:
                break
            i, j = pairs[k]
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            union = members[ri] + members[rj]
            try:
                _trace_boundary(cells, union)
            except GeometryError:
                continue  # non-simple union: reject this merge
            parent[rj] = ri
            members[ri] = union
            del members[rj]
            groups -= 1
            progressed = True
        stagnant_sweeps = 0 if progressed else stagnant_sweeps + 1
    if groups > target:
        raise GeometryError(
            f"could not merge down to {target} regions (stuck at {groups})"
        )
    return list(members.values())


def _trace_boundary(cells: list[np.ndarray], group: list[int]) -> np.ndarray:
    """Outer boundary ring of a union of edge-adjacent cells.

    Boundary edges are those appearing in exactly one cell of the group
    (interior edges appear twice with opposite direction).  Chaining them
    end-to-end yields the outer ring; groups with holes are rare for
    Voronoi merges and rejected by the caller's validity check.
    """
    def key(pt: np.ndarray) -> tuple:
        return (round(float(pt[0]), 6), round(float(pt[1]), 6))

    edge_count: dict[tuple, int] = {}
    directed: dict[tuple, list[tuple]] = {}
    for idx in group:
        ring = cells[idx]
        n = len(ring)
        for i in range(n):
            a, b = key(ring[i]), key(ring[(i + 1) % n])
            if a == b:
                continue
            undirected = (a, b) if a <= b else (b, a)
            edge_count[undirected] = edge_count.get(undirected, 0) + 1
            directed.setdefault(a, []).append((a, b))

    boundary: dict[tuple, tuple] = {}
    for a, edges in directed.items():
        for (pa, pb) in edges:
            undirected = (pa, pb) if pa <= pb else (pb, pa)
            if edge_count[undirected] == 1:
                boundary[pa] = pb
    if not boundary:
        raise GeometryError("merged group has no boundary")
    start = next(iter(boundary))
    ring = [start]
    cur = boundary[start]
    guard = 0
    while cur != start:
        ring.append(cur)
        cur = boundary.get(cur)
        if cur is None:
            raise GeometryError("boundary chain broke (group with hole?)")
        guard += 1
        if guard > len(boundary) + 1:
            raise GeometryError("boundary chain did not close")
    if len(ring) != len(boundary):
        # Extra loops remain: the union has a hole or touches at a vertex.
        raise GeometryError("merged group is not simply connected")
    return np.asarray(ring, dtype=np.float64)


def generate_voronoi_regions(
    n: int,
    extent: BBox,
    seed: int = 0,
    cells_per_region: int = 4,
) -> PolygonSet:
    """The paper's §7.4 synthetic polygon generator.

    Generates ``cells_per_region * n`` random sites (the paper uses 4n),
    computes the constrained Voronoi diagram over the extent, then merges
    random adjacent cells until ``n`` regions remain.  Groups that merge
    into non-simply-connected unions are retried with fresh randomness.
    """
    if n < 1:
        raise GeometryError(f"need at least one region, got {n}")
    rng = np.random.default_rng(seed)
    # A small ``n`` gets stuck in a merge on about a third of its
    # attempts; all 64 failing is practically impossible.  A seed draws
    # the polygons of its first attempt that succeeds.
    for attempt in range(64):
        sites = np.column_stack(
            [
                rng.uniform(extent.xmin, extent.xmax, cells_per_region * n),
                rng.uniform(extent.ymin, extent.ymax, cells_per_region * n),
            ]
        )
        try:
            cells = _clipped_voronoi_cells(sites, extent)
            groups = _merge_cells(cells, n, rng)
            polygons = [Polygon(_trace_boundary(cells, g)) for g in groups]
            return PolygonSet(polygons)
        except GeometryError:
            continue
    raise GeometryError(f"failed to generate {n} regions after 64 attempts")


#: NYC-like extent in meters (a local planar frame ~45 km x 40 km, the
#: scale of the five boroughs).
NYC_REGION_EXTENT = BBox(0.0, 0.0, 45_000.0, 40_000.0)

#: Continental-US-like extent in meters (~4500 km x 2800 km).
USA_REGION_EXTENT = BBox(0.0, 0.0, 4_500_000.0, 2_800_000.0)


def generate_neighborhoods(seed: int = 0, n: int = 260) -> PolygonSet:
    """A 260-region stand-in for the NYC neighborhood polygons (Table 1)."""
    return generate_voronoi_regions(n, NYC_REGION_EXTENT, seed=seed)


def generate_counties(seed: int = 0, n: int = 3945) -> PolygonSet:
    """A 3945-region stand-in for the US county polygons (Table 1)."""
    return generate_voronoi_regions(n, USA_REGION_EXTENT, seed=seed)
