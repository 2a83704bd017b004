"""Polygon triangulation by ear clipping, with hole bridging.

The paper triangulates query polygons with clip2tri (constrained Delaunay)
before handing triangles to the GPU rasterizer.  Any triangulation produces
identical raster coverage under the top-left fill rule — Delaunay only
improves triangle aspect ratios, which matters for GPU warp efficiency, not
for results — so this reproduction uses the simpler and dependency-free
ear-clipping algorithm.  Holes are eliminated first by cutting a bridge edge
from each hole to the exterior ring (the classic approach popularized by
Eberly and by the earcut family of libraries).  Every ring of a set is
clipped in one call of ``earclip.c`` (:mod:`repro.native`), or of
:func:`_clip_ears` where no compiler is.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro import native
from repro.errors import TriangulationError
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import orientation

Triangles = np.ndarray  # (t, 3, 2) float64


def _clip_ears(xs: list[float], ys: list[float]) -> list[tuple] | None:
    """Ear-clip a CCW ring given as Python-float coordinate lists.

    Returns the ``(prev, ear, next)`` vertex-index triples in clipping
    order, or None when a sweep finds neither an ear nor a zero-turn
    vertex (a self-intersecting ring).  Every clip takes the first ear
    at the lowest ring position — a strictly convex corner whose closed
    triangle holds no other remaining vertex, vertices coincident with a
    corner exempted — and when a sweep finds none, the first vertex with
    zero turn is dropped instead (collinear runs).  ``earclip.c`` is
    this function, term for term.

    ``status[v]`` remembers why vertex ``v`` was not an ear — reflex, or
    blocked by a vertex that is still in the ring — which stays true
    until one of ``v``'s neighbours leaves, so a sweep re-tests only
    what a clip could have changed.
    """
    n = len(xs)
    indices = list(range(n))
    alive = [True] * n
    unknown, reflex = -1, -2
    status = [unknown] * n
    ears: list[tuple[int, int, int]] = []
    # Every sweep removes a vertex or gives up, so the loop ends.
    while len(indices) > 3:
        m = len(indices)
        removed = -1
        for pos in range(m):
            i_curr = indices[pos]
            why = status[i_curr]
            if why == reflex or (why >= 0 and alive[why]):
                continue
            i_prev = indices[pos - 1]
            i_next = indices[pos + 1 - m]
            ax, ay = xs[i_prev], ys[i_prev]
            bx, by = xs[i_curr], ys[i_curr]
            cx, cy = xs[i_next], ys[i_next]
            abx, aby = bx - ax, by - ay
            if not abx * (cy - ay) - aby * (cx - ax) > 0:
                status[i_curr] = reflex
                continue
            bcx, bcy = cx - bx, cy - by
            cax, cay = ax - cx, ay - cy
            for k in indices:
                if k == i_prev or k == i_curr or k == i_next:
                    continue
                px, py = xs[k], ys[k]
                # Closed containment, any orientation: the arithmetic of
                # predicates.point_in_triangle.
                d1 = abx * (py - ay) - aby * (px - ax)
                d2 = bcx * (py - by) - bcy * (px - bx)
                d3 = cax * (py - cy) - cay * (px - cx)
                if (d1 < 0 or d2 < 0 or d3 < 0) and (d1 > 0 or d2 > 0 or d3 > 0):
                    continue
                # A vertex exactly coincident with an ear corner does
                # not block.
                if ((px == ax and py == ay) or (px == bx and py == by)
                        or (px == cx and py == cy)):
                    continue
                status[i_curr] = k
                break
            else:
                ears.append((i_prev, i_curr, i_next))
                removed = pos
                break
        if removed < 0:
            # Tolerate collinear runs: drop a vertex with zero turn.
            for pos in range(m):
                i_prev, i_curr, i_next = (
                    indices[pos - 1], indices[pos], indices[pos + 1 - m]
                )
                ax, ay = xs[i_prev], ys[i_prev]
                turn = (
                    (xs[i_curr] - ax) * (ys[i_next] - ay)
                    - (ys[i_curr] - ay) * (xs[i_next] - ax)
                )
                if turn == 0:
                    removed = pos
                    break
            else:
                return None
        alive[indices[removed]] = False
        status[indices[removed - 1]] = status[indices[removed + 1 - m]] = unknown
        indices.pop(removed)
    ears.append(tuple(indices))
    return ears


def _signed_areas(tris: np.ndarray) -> np.ndarray:
    """``predicates.orientation`` of every triangle in one pass: the
    three shoelace terms, summed in the order ``np.sum`` adds them."""
    x, y = tris[:, :, 0], tris[:, :, 1]
    return 0.5 * (
        (x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0])
        + (x[:, 1] * y[:, 2] - x[:, 2] * y[:, 1])
        + (x[:, 2] * y[:, 0] - x[:, 0] * y[:, 2])
    )


def _clip_ears_python(xs, ys, starts, rings, triples, counts, work) -> int:
    """The compiled kernel's contract (``earclip_rings`` in
    ``earclip.c``), one :func:`_clip_ears` call per ring: the path where
    no library could be built."""
    done = 0
    for r in range(rings):
        lo, hi = int(starts[r]), int(starts[r + 1])
        ears = _clip_ears(xs[lo:hi].tolist(), ys[lo:hi].tolist())
        if ears is None:
            return r
        triples[done:done + len(ears)] = np.asarray(ears) + lo
        counts[r] = len(ears)
        done += len(ears)
    return -1


_NATIVE = None if native.EARCLIP is None else native.EARCLIP.earclip_rings
if _NATIVE is not None:  # typed to the C prototype
    _f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    _i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    _out = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS, WRITEABLE")
    _NATIVE.argtypes = (_f64, _f64, _i64, ctypes.c_int64, _out, _out, _out)
    _NATIVE.restype = ctypes.c_int64
#: Which ear clipper runs: ``"native"`` or ``"python"``.
KERNEL = "native" if _NATIVE is not None else "python"
_kernel = _NATIVE or _clip_ears_python


#: Past this share of its terms' magnitude a ring's one-pass shoelace
#: sum has the sign ``np.sum``'s pairwise sum has: each order errs by at
#: most ``(n - 1) * 2**-53`` of that magnitude, and this is twice as
#: much for the two of them together, with room for the magnitude's own
#: rounding.  A sum under the least normal double is never sure:
#: ``orientation`` halves its sum, and half of a subnormal can be 0.
_SIGN_MARGIN = 2.0 ** -51
_LEAST_NORMAL = float(np.finfo(np.float64).tiny)


def _ring_table(rings: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every ring as float64, counter-clockwise, of 3 or more vertices,
    concatenated: ``(points, starts)``, ring ``r`` being
    ``points[starts[r]:starts[r + 1]]``.

    A ring runs reversed exactly when ``predicates.orientation`` of it
    is negative.  Every ring's shoelace terms come from one pass — they
    are ``orientation``'s terms, bit for bit — and are summed per ring;
    where that sum is too close to zero for its sign to be sure of
    (a degenerate ring), ``orientation`` itself decides.
    """
    lengths = np.fromiter(map(len, rings), np.int64, len(rings))
    if lengths.min(initial=3) < 3:
        raise TriangulationError("ring has fewer than 3 vertices")
    starts = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    points = np.concatenate([np.zeros((0, 2)), *rings]).astype(
        np.float64, copy=False
    )
    first, last = starts[:-1], starts[1:] - 1
    nxt = np.arange(1, len(points) + 1)
    nxt[last] = first
    x, y = points[:, 0], points[:, 1]
    terms = x * y[nxt] - x[nxt] * y
    with np.errstate(over="ignore", invalid="ignore"):  # then not sure
        sums = np.add.reduceat(terms, first)
        sure = np.abs(sums) > np.maximum(
            _SIGN_MARGIN * lengths * np.add.reduceat(np.abs(terms), first),
            _LEAST_NORMAL,
        )
    flip = sums < 0
    if not sure.all():
        for r in np.flatnonzero(~sure):  # NaN's too
            flip[r] = orientation(points[first[r]:last[r] + 1]) < 0
    if flip.any():
        ring_of = np.repeat(np.arange(len(rings)), lengths)
        at = np.arange(len(points))
        points = points[np.where(
            flip[ring_of], first[ring_of] + last[ring_of] - at, at
        )]
    return points, starts


def _clip(points: np.ndarray,
          starts: np.ndarray) -> tuple[Triangles, np.ndarray, np.ndarray]:
    """Every CCW ring's triangles (:func:`_ring_table`'s rings) from one
    kernel call, slivers dropped: ``(triangles, their signed areas,
    triangles per ring)``."""
    rings = len(starts) - 1
    lengths = starts[1:] - starts[:-1]
    triples = np.empty((len(points) - 2 * rings, 3), dtype=np.int64)
    counts = np.zeros(rings, dtype=np.int64)
    work = np.empty(3 * int(lengths.max(initial=0)), dtype=np.int64)
    failed = _kernel(
        np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1]),
        starts, rings, triples, counts, work,
    )
    if failed >= 0:
        raise TriangulationError("no ear found: ring is likely self-intersecting")
    tris = points[triples[:int(counts.sum())]]
    areas = _signed_areas(tris)
    ring_of = np.repeat(np.arange(rings), counts)
    # Drop degenerate slivers produced by collinear input runs; a
    # three-vertex ring is its own triangle, flat or not.
    keep = (np.abs(areas) > 0.0) | (lengths[ring_of] == 3)
    return (
        tris[keep], areas[keep],
        np.bincount(ring_of[keep], minlength=rings),
    )


def triangulate_ring(ring: np.ndarray) -> Triangles:
    """Triangulate one simple CCW ring by ear clipping.

    Returns the ``(t, 3, 2)`` triangles whose union is the ring's
    interior, in clipping order (``t == n - 2`` unless collinear runs
    produced slivers, which are dropped).  Raises
    :class:`TriangulationError` if no ear can be found, which indicates a
    self-intersecting or degenerate input ring.
    """
    return _clip(*_ring_table([ring]))[0]


def _corner_faces(a, b, c, x: float, y: float) -> bool:
    """Whether (x, y) lies in the interior wedge of CCW-ring corner a-b-c."""
    left_in = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) > 0
    left_out = (c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0]) > 0
    convex = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0
    return (left_in and left_out) if convex else (left_in or left_out)


def _bridge_hole(outer: np.ndarray, hole: np.ndarray) -> np.ndarray:
    """Merge a CW hole into a CCW outer ring via a bridge edge.

    Uses the standard rightmost-hole-vertex / visible-outer-vertex
    construction: find the hole vertex M with maximum x, shoot a ray towards
    +x to find the outer edge it first hits, then connect M to a visible
    reflex-free vertex of that edge's triangle.  The result is a single
    (degenerate but ear-clippable) CCW ring.
    """
    # Hole vertex with maximum x (ties broken by max y for determinism).
    hx = hole[:, 0]
    m_idx = int(np.lexsort((hole[:, 1], hx))[-1])
    mx, my = hole[m_idx]

    # Outer edges crossing the horizontal ray y = my going right from M,
    # upward ones only: in a CCW ring those have the interior — where M
    # is — on the ray's side, so of an earlier bridge's two coincident
    # edges only the one facing this hole can be hit.  The nearest hit
    # (lowest edge index among equal hits) is the edge.
    n = len(outer)
    ax, ay = outer[:, 0], outer[:, 1]
    bx, by = outer[np.arange(1, n + 1) % n].T
    spans = np.flatnonzero((ay <= my) & (my < by))
    t = (my - ay[spans]) / (by[spans] - ay[spans])
    x_hit = ax[spans] + t * (bx[spans] - ax[spans])
    x_hit = np.where(x_hit >= mx, x_hit, np.inf)
    if not (len(x_hit) and x_hit.min() < np.inf):
        raise TriangulationError("hole is not inside the outer ring")
    first = int(np.argmin(x_hit))
    best_edge = int(spans[first])
    hit_x = x_hit[first]

    # The visible vertex is the endpoint of the hit edge with larger x,
    # unless some reflex outer vertex lies inside triangle (M, hit, P) —
    # then the closest such reflex vertex (by angle) becomes the bridge.
    p_idx = best_edge if ax[best_edge] > bx[best_edge] else (best_edge + 1) % n
    px, py = outer[p_idx]

    # Closed containment of every outer vertex in (M, hit, P): the
    # arithmetic of predicates.point_in_triangle.  P and a copy of it —
    # an earlier bridge duplicated it — do not block: bridging to the
    # copy would cross that earlier bridge.
    d1 = (hit_x - mx) * (ay - my)  # the hit is level with M: no x term
    d2 = (px - hit_x) * (ay - my) - (py - my) * (ax - hit_x)
    d3 = (mx - px) * (ay - py) - (my - py) * (ax - px)
    has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    blocks = ~(has_neg & has_pos) & ~(ax < mx) & ~((ax == px) & (ay == py))
    candidates = np.flatnonzero(blocks)
    if len(candidates):
        # Pick the candidate minimizing the angle to the +x axis from M
        # (ties by distance, then by ring position), which guarantees
        # visibility.
        dx, dy = ax[candidates] - mx, ay[candidates] - my
        dist = np.hypot(dx, dy)
        angle = np.abs(dy) / (dist + 1e-300)
        p_idx = int(candidates[np.lexsort((dist, angle))[0]])
        # Earlier bridges leave coincident copies of a vertex, one per
        # side of the bridge; the copy to join is the one whose corner
        # opens towards M.
        for k in np.flatnonzero((ax == ax[p_idx]) & (ay == ay[p_idx]) & blocks):
            if _corner_faces(outer[k - 1], outer[k], outer[(k + 1) % n], mx, my):
                p_idx = int(k)
                break

    # Stitch: outer[..p_idx], hole[m_idx..] + hole[..m_idx], back to outer.
    hole_cycle = np.concatenate([hole[m_idx:], hole[:m_idx + 1]], axis=0)
    merged = np.concatenate(
        [
            outer[: p_idx + 1],
            hole_cycle,
            outer[p_idx:],
        ],
        axis=0,
    )
    return merged


def triangulate_set(polygons: Sequence[Polygon]) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate many polygons, holes included, in one ear-clipping call.

    Returns ``(triangles, ids)`` where ``triangles`` is (t, 3, 2) float64,
    each CCW, and ``ids[t]`` is the polygon id owning triangle t — the
    "same key as the polygon" assignment of the paper's Step II; a
    polygon's triangles are one run, in clipping order, whose areas sum
    to ``polygon.area`` (property-tested).  Raises the
    :class:`TriangulationError` of the first polygon that fails.
    """
    rings, failure = [], None
    for polygon in polygons:
        ring = polygon.exterior
        # Holes must be merged right-to-left so earlier bridges do not
        # cross later holes: process holes by descending max-x.
        holes = sorted(polygon.holes, key=lambda h: -float(np.max(h[:, 0])))
        try:
            for hole in holes:
                ring = _bridge_hole(ring, hole)
            if len(ring) < 3:
                raise TriangulationError("ring has fewer than 3 vertices")
        except TriangulationError as error:
            failure = error  # raised unless an earlier ring fails first
            break
        rings.append(ring)
    triangles, areas, counts = _clip(*_ring_table(rings))
    if failure is not None:
        raise failure
    # Normalize output to CCW so downstream edge functions can assume it.
    flip = areas < 0
    if flip.any():
        triangles[flip] = triangles[flip][:, ::-1]
    return triangles, np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def per_polygon(triangles: Triangles, ids: np.ndarray, count: int) -> list:
    """:func:`triangulate_set`'s triangles as one array per polygon (views
    of ``triangles``), ``count`` polygons."""
    if count == 0:
        return []
    return np.split(triangles, np.searchsorted(ids, np.arange(1, count)))


def triangulate_polygon(polygon: Polygon) -> Triangles:
    """Triangulate one polygon (holes included) into CCW triangles: a set
    of one."""
    return triangulate_set([polygon])[0]
