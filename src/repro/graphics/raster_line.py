"""Supercover line rasterization for polygon outlines.

The accurate raster join (§4.3) needs the set of *all* pixels a polygon
boundary passes through — a conservative outline.  On NVIDIA hardware the
paper uses ``GL_NV_conservative_raster``; the portable fallback it mentions
(a thicker outline with discard) is what grid traversal gives us exactly:
:func:`supercover_line` walks every pixel a segment touches, including
corner-touch cases, using an Amanatides–Woo style DDA.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graphics.viewport import Viewport


def supercover_line(
    ax: float, ay: float, bx: float, by: float,
    width: int, height: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All pixels of a ``width x height`` grid touched by segment a-b.

    Coordinates are continuous pixel coordinates (pixel (i, j) spans
    ``[i, i+1) x [j, j+1)``).  The traversal is clipped to the grid.  When
    the segment passes exactly through a lattice corner, all four incident
    pixels are reported — strictly conservative, never missing a touched
    pixel (the property the boundary mask requires; extras are harmless).
    """
    cols: list[int] = []
    rows: list[int] = []

    def emit(ix: int, iy: int) -> None:
        if 0 <= ix < width and 0 <= iy < height:
            cols.append(ix)
            rows.append(iy)

    dx = bx - ax
    dy = by - ay

    # Exact traversal: collect the parameter values where the segment
    # crosses vertical (x = k) and horizontal (y = k) lattice lines, plus
    # the endpoints.  Between two consecutive parameters the segment stays
    # inside one pixel — recovered from the interval midpoint — and at each
    # crossing parameter the (up to four) pixels incident to the crossing
    # point are all touched, which handles exact corner hits.
    ts: list[float] = [0.0, 1.0]
    if dx != 0.0:
        lo = int(np.ceil(min(ax, bx)))
        hi = int(np.floor(max(ax, bx)))
        for k in range(lo, hi + 1):
            t = (k - ax) / dx
            if 0.0 <= t <= 1.0:
                ts.append(t)
    if dy != 0.0:
        lo = int(np.ceil(min(ay, by)))
        hi = int(np.floor(max(ay, by)))
        for k in range(lo, hi + 1):
            t = (k - ay) / dy
            if 0.0 <= t <= 1.0:
                ts.append(t)
    ts.sort()

    eps = 1e-9 * max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
    for t in ts:
        x = ax + t * dx
        y = ay + t * dy
        for ix in {int(np.floor(x - eps)), int(np.floor(x + eps))}:
            for iy in {int(np.floor(y - eps)), int(np.floor(y + eps))}:
                emit(ix, iy)
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= 0.0:
            continue
        tm = 0.5 * (t0 + t1)
        emit(int(np.floor(ax + tm * dx)), int(np.floor(ay + tm * dy)))

    if not cols:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat = np.asarray(cols, dtype=np.int64) * height + np.asarray(rows, dtype=np.int64)
    flat = np.unique(flat)
    return flat // height, flat % height


def _ragged_crossings(
    a: np.ndarray, d: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge lattice-crossing parameters along one axis, flattened.

    For every edge with start ``a``, delta ``d`` (end ``b = a + d``),
    returns ``(edge_id, t)`` for each integer lattice line ``k`` in
    ``[ceil(min(a, b)), floor(max(a, b))]`` with ``t = (k - a) / d``
    clamped to the segment — exactly the values the scalar
    :func:`supercover_line` loop produces, computed for all edges at
    once via a ragged ``arange``.
    """
    moving = d != 0.0
    lo = np.ceil(np.minimum(a, b))
    hi = np.floor(np.maximum(a, b))
    counts = np.where(moving, np.maximum(hi - lo + 1, 0), 0).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    eid = np.repeat(np.arange(len(a), dtype=np.int64), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    k = lo[eid] + (np.arange(total, dtype=np.int64) - np.repeat(offsets, counts))
    t = (k - a[eid]) / d[eid]
    keep = (t >= 0.0) & (t <= 1.0)
    return eid[keep], t[keep]


def _edges_touched_pixels(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    owner: np.ndarray, width: int, height: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Supercover pixels of many segments in one vectorized pass.

    ``owner[e]`` tags edge ``e`` (e.g. with its polygon id); returns
    ``(owner_of_pixel, flat_code)`` candidate arrays — in-bounds but not
    deduplicated — where ``flat_code = ix * height + iy``, the same
    flattening the scalar path uniques over.  All arithmetic (crossing
    parameters, the ±eps corner probes, interval midpoints) is the exact
    IEEE float64 expression sequence of :func:`supercover_line`, applied
    elementwise, so the candidate *set* per edge is identical.
    """
    dx = bx - ax
    dy = by - ay
    eps = 1e-9 * np.maximum.reduce(
        [np.ones_like(ax), np.abs(ax), np.abs(ay), np.abs(bx), np.abs(by)]
    )

    xe, xt = _ragged_crossings(ax, dx, bx)
    ye, yt = _ragged_crossings(ay, dy, by)
    ends = np.arange(len(ax), dtype=np.int64)
    eid = np.concatenate([ends, ends, xe, ye])
    ts = np.concatenate([
        np.zeros(len(ax)), np.ones(len(ax)), xt, yt,
    ])

    # Crossing-point probes: the four pixels incident to each crossing.
    x = ax[eid] + ts * dx[eid]
    y = ay[eid] + ts * dy[eid]
    e = eps[eid]
    fx0 = np.floor(x - e)
    fx1 = np.floor(x + e)
    fy0 = np.floor(y - e)
    fy1 = np.floor(y + e)
    # Most probe points straddle at most one lattice line, so of the
    # four corner combinations usually only one or two are distinct;
    # dropping the duplicates up front (it changes nothing after the
    # final unique) halves the dedup sort's input.
    dx_differs = fx1 != fx0
    dy_differs = fy1 != fy0
    both = dx_differs & dy_differs
    cand_e = np.concatenate(
        [eid, eid[dy_differs], eid[dx_differs], eid[both]]
    )
    cand_x = np.concatenate(
        [fx0, fx0[dy_differs], fx1[dx_differs], fx1[both]]
    )
    cand_y = np.concatenate(
        [fy0, fy1[dy_differs], fy0[dx_differs], fy1[both]]
    )

    # Interval midpoints: sort parameters per edge; every consecutive
    # pair with positive spacing contributes its midpoint pixel.  The
    # sorted parameter multiset matches the scalar per-edge sort, and
    # zero-length intervals are skipped either way.  Edge-major and
    # ascending within an edge comes from two single-key sorts — one
    # float sort ranks every parameter, one integer sort of ``edge * n
    # + rank`` groups the ranks by edge — several times cheaper than a
    # two-key lexsort.  (Equal parameters may land in either order; the
    # sorted values cannot tell.)
    n = len(ts)
    by_t = np.argsort(ts)
    key = eid[by_t] * n + np.arange(n, dtype=np.int64)
    key.sort()
    eid_s = key // n
    ts_s = ts[by_t[key - eid_s * n]]
    pair = (eid_s[:-1] == eid_s[1:]) & (ts_s[1:] - ts_s[:-1] > 0.0)
    if pair.any():
        me = eid_s[:-1][pair]
        tm = 0.5 * (ts_s[:-1][pair] + ts_s[1:][pair])
        cand_e = np.concatenate([cand_e, me])
        cand_x = np.concatenate([cand_x, np.floor(ax[me] + tm * dx[me])])
        cand_y = np.concatenate([cand_y, np.floor(ay[me] + tm * dy[me])])

    inside = (
        (cand_x >= 0) & (cand_x < width) & (cand_y >= 0) & (cand_y < height)
    )
    ix = cand_x[inside].astype(np.int64)
    iy = cand_y[inside].astype(np.int64)
    return owner[cand_e[inside]], ix * height + iy


def _ring_edges(
    viewport: Viewport, rings: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All ring edges as flat (ax, ay, bx, by) screen-coordinate arrays."""
    axs: list[np.ndarray] = []
    ays: list[np.ndarray] = []
    bxs: list[np.ndarray] = []
    bys: list[np.ndarray] = []
    for ring in rings:
        sx, sy = viewport.to_screen(ring[:, 0], ring[:, 1])
        axs.append(sx)
        ays.append(sy)
        bxs.append(np.roll(sx, -1))
        bys.append(np.roll(sy, -1))
    if not axs:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty, empty, empty
    return (
        np.concatenate(axs), np.concatenate(ays),
        np.concatenate(bxs), np.concatenate(bys),
    )


def outline_pixels(
    viewport: Viewport,
    rings: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Conservative outline of a polygon: pixels touched by any ring edge.

    Returns deduplicated local (ix, iy) arrays.  This renders the paper's
    boundary FBO content for one polygon.  All edges are traversed in one
    vectorized pass (the flat-array convention of
    :mod:`repro.graphics.raster_batch`); the result is the same pixel set
    a per-edge :func:`supercover_line` loop produces, in the same sorted
    order (tested property).
    """
    ax, ay, bx, by = _ring_edges(viewport, rings)
    if not len(ax):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _, codes = _edges_touched_pixels(
        ax, ay, bx, by, np.zeros(len(ax), dtype=np.int64),
        viewport.width, viewport.height,
    )
    if not len(codes):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat = _sorted_unique(codes)
    return flat // viewport.height, flat % viewport.height


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values via an explicit sort + neighbor mask.

    Identical result to ``np.unique`` on 1-D integer input, but avoids
    its hash-based dedup path, which is far slower than one sort on the
    clustered (pid, pixel) key distributions the outline pass produces.
    """
    s = np.sort(keys)
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def outline_pixels_many(
    viewport: Viewport,
    rings_by_pid: Mapping[int, Sequence[np.ndarray]],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Outline pixels for many polygons from one vectorized edge pass.

    Returns ``pid -> (ix, iy)`` with an entry for every requested pid
    (empty arrays when the polygon touches no pixel), each identical to
    what :func:`outline_pixels` returns for that polygon alone: edges
    carry their owning polygon id through the flat candidate arrays and
    one sorted dedup over (pid, flat pixel) codes splits per polygon.
    """
    pids = sorted(rings_by_pid)
    empty = np.zeros(0, dtype=np.int64)
    out = {pid: (empty, empty) for pid in pids}
    if not pids:
        return out
    # Assemble every ring of every polygon into one flat vertex array,
    # project it with a single to_screen call, and close the rings with
    # a next-vertex permutation instead of per-ring rolls.
    ring_arrays: list[np.ndarray] = []
    ring_owner: list[int] = []
    for pid in pids:
        for ring in rings_by_pid[pid]:
            if len(ring):
                ring_arrays.append(np.asarray(ring, dtype=np.float64))
                ring_owner.append(pid)
    if not ring_arrays:
        return out
    lengths = np.asarray([len(r) for r in ring_arrays], dtype=np.int64)
    flat = np.concatenate(ring_arrays)
    sx, sy = viewport.to_screen(flat[:, 0], flat[:, 1])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    nxt = np.arange(len(flat), dtype=np.int64) + 1
    nxt[starts + lengths - 1] = starts
    owner = np.repeat(
        np.asarray(ring_owner, dtype=np.int64), lengths
    )
    owner_of, codes = _edges_touched_pixels(
        sx, sy, sx[nxt], sy[nxt],
        owner, viewport.width, viewport.height,
    )
    if not len(codes):
        return out
    span = viewport.width * viewport.height
    keyed = _sorted_unique(owner_of * span + codes)
    key_pid = keyed // span
    flat = keyed - key_pid * span
    starts = np.searchsorted(key_pid, np.asarray(pids, dtype=np.int64))
    stops = np.searchsorted(key_pid, np.asarray(pids, dtype=np.int64), "right")
    for pid, lo, hi in zip(pids, starts, stops):
        if hi > lo:
            part = flat[lo:hi]
            out[pid] = (part // viewport.height, part % viewport.height)
    return out
