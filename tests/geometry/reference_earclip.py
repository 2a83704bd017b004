"""The scalar ear-clipping triangulator, frozen as a test oracle.

These are the bodies ``repro.geometry.triangulate`` shipped until the
cold path was rewritten over plain floats: one numpy scalar unpack per
coordinate, one ``point_in_triangle`` call per (ear, vertex), one
``(3, 2)`` array per triangle, one ``orientation`` call per sliver
check.  Nothing under ``src/`` imports this module; the property suite
(``tests/property/test_prop_triangulate.py``) requires the shipped
triangulator to return the *same triangles in the same order with the
same vertex order* — the contract that keeps coverage run order, and so
every float grouping downstream, where it was.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TriangulationError
from repro.geometry.predicates import orientation, point_in_triangle

Triangle = np.ndarray  # (3, 2) float64


def _is_convex(ax, ay, bx, by, cx, cy) -> bool:
    """Whether vertex b is convex for a CCW ring (strictly left turn)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0


def _ear_contains_vertex(ring: np.ndarray, indices: list[int], i_prev: int,
                         i_curr: int, i_next: int) -> bool:
    ax, ay = ring[i_prev]
    bx, by = ring[i_curr]
    cx, cy = ring[i_next]
    for k in indices:
        if k in (i_prev, i_curr, i_next):
            continue
        px, py = ring[k]
        # Reflex vertices are the only candidates that can block an ear,
        # but testing all remaining vertices is simpler and still O(n).
        if point_in_triangle(px, py, ax, ay, bx, by, cx, cy):
            # A vertex exactly coincident with an ear corner does not block.
            if (px, py) in ((ax, ay), (bx, by), (cx, cy)):
                continue
            return True
    return False


def triangulate_ring(ring: np.ndarray) -> list[Triangle]:
    """Triangulate one simple CCW ring by ear clipping.

    Returns ``n - 2`` triangles whose union is the ring's interior.  Raises
    :class:`TriangulationError` if no ear can be found, which indicates a
    self-intersecting or degenerate input ring.
    """
    ring = np.asarray(ring, dtype=np.float64)
    if orientation(ring) < 0:
        ring = ring[::-1].copy()
    n = len(ring)
    if n < 3:
        raise TriangulationError("ring has fewer than 3 vertices")
    if n == 3:
        return [ring.copy()]

    indices = list(range(n))
    triangles: list[Triangle] = []
    guard = 0
    # Each successful clip removes one vertex; the guard bounds the number
    # of failed sweeps so invalid input fails fast instead of spinning.
    max_guard = 2 * n * n
    while len(indices) > 3:
        m = len(indices)
        clipped = False
        for pos in range(m):
            i_prev = indices[pos - 1]
            i_curr = indices[pos]
            i_next = indices[(pos + 1) % m]
            ax, ay = ring[i_prev]
            bx, by = ring[i_curr]
            cx, cy = ring[i_next]
            if not _is_convex(ax, ay, bx, by, cx, cy):
                continue
            if _ear_contains_vertex(ring, indices, i_prev, i_curr, i_next):
                continue
            triangles.append(
                np.array([[ax, ay], [bx, by], [cx, cy]], dtype=np.float64)
            )
            indices.pop(pos)
            clipped = True
            break
        if not clipped:
            # Tolerate collinear runs: drop a vertex with zero turn.
            dropped = False
            for pos in range(m):
                i_prev = indices[pos - 1]
                i_curr = indices[pos]
                i_next = indices[(pos + 1) % m]
                ax, ay = ring[i_prev]
                bx, by = ring[i_curr]
                cx, cy = ring[i_next]
                turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if turn == 0:
                    indices.pop(pos)
                    dropped = True
                    break
            if not dropped:
                raise TriangulationError(
                    "no ear found: ring is likely self-intersecting"
                )
        guard += 1
        if guard > max_guard:
            raise TriangulationError("ear clipping did not terminate")
    i, j, k = indices
    triangles.append(np.array([ring[i], ring[j], ring[k]], dtype=np.float64))
    # Drop degenerate slivers produced by collinear input runs.
    return [t for t in triangles if abs(orientation(t)) > 0.0]


def triangulate_bridged(ring: np.ndarray) -> list[Triangle]:
    """What ``triangulate_polygon`` did with a (bridged) ring: clip, then
    reverse any triangle whose signed area came out negative."""
    out = []
    for tri in triangulate_ring(ring):
        if orientation(tri) < 0:
            tri = tri[::-1].copy()
        out.append(tri)
    return out
