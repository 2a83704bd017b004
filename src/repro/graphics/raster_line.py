"""Supercover line rasterization for polygon outlines.

The accurate raster join (§4.3) needs the set of *all* pixels a polygon
boundary passes through — a conservative outline.  On NVIDIA hardware the
paper uses ``GL_NV_conservative_raster``; the portable fallback it mentions
(a thicker outline with discard) is what grid traversal gives us exactly:
a supercover walk reports every pixel a segment touches, including
corner-touch cases.  :func:`outline_pixels_many` probes every edge of many
polygons in one call of ``supercover.c`` (:mod:`repro.native`), or of its
whole-array numpy form where no compiler is; the per-segment walk
(``supercover_line``) and the one-polygon outline it replaced are the
suites' oracles (``tests/graphics/reference_raster.py``).
"""

from __future__ import annotations

import ctypes
from typing import Mapping, Sequence

import numpy as np

from repro import native
from repro.graphics.viewport import Viewport


def _lattice_spans(
    a: np.ndarray, b: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ``(first, count)`` of the lattice lines one axis spans on
    a canvas ``size`` pixels long.

    An edge from ``a`` to ``b`` crosses the integer lines ``k`` in
    ``[ceil(min(a, b)), floor(max(a, b))]``, clamped to ``[0, size]``:
    a crossing of line ``k`` probes only pixels ``k - 1`` and ``k`` on
    the axis, so a line outside that range probes none in bounds and
    the clamp changes no key — it bounds the work by the canvas, not by
    the edge's length.  ``first`` is the lowest (a float) and ``count``
    how many, 0 when the edge does not move on the axis, an end is not
    finite (such an edge is probed at its ends only, and a NaN probe
    lands nowhere) or it spans no line of the canvas.  Both kernels
    probe exactly these crossings, and their output capacity is
    computed from the counts.
    """
    first = np.maximum(np.ceil(np.minimum(a, b)), 0.0)
    last = np.minimum(np.floor(np.maximum(a, b)), float(size))
    count = np.zeros(len(a), dtype=np.int64)
    live = (a != b) & np.isfinite(a) & np.isfinite(b)
    count[live] = np.maximum(last[live] - first[live] + 1, 0)
    return first, count


def _ragged_crossings(
    a: np.ndarray, d: np.ndarray, first: np.ndarray, count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(edge_id, t)`` for each lattice crossing of :func:`_lattice_spans`,
    flattened, with ``t = (k - a) / d`` clamped to the segment — exactly
    the values the scalar ``supercover_line`` loop produces, computed for
    all edges at once via a ragged ``arange``."""
    total = int(count.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    eid = np.repeat(np.arange(len(a), dtype=np.int64), count)
    offsets = np.concatenate([[0], np.cumsum(count)[:-1]])
    k = first[eid] + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, count)
    )
    t = (k - a[eid]) / d[eid]
    keep = (t >= 0.0) & (t <= 1.0)
    return eid[keep], t[keep]


@np.errstate(invalid="ignore")  # a non-finite end: NaN probes
def _supercover_numpy(n, ax, ay, bx, by, owner, xfirst, xcount, yfirst,
                      ycount, width, height, capacity, keys) -> int:
    """The compiled supercover's contract (``supercover_keys`` in
    ``supercover.c``) in whole-array passes: the path where no library
    could be built.

    Writes ``owner[e] * width * height + ix * height + iy`` for every
    in-bounds pixel probed on edge ``e`` (``a -> b``) — in-bounds but not
    deduplicated — and returns how many, or -1 when they would not fit
    in ``capacity``.  The crossing parameters and ±eps corner probes are
    ``supercover_line``'s float64 expressions, elementwise.  Its
    interval midpoints add no pixel: each lies in a cell within ``eps``
    of the interval's probed first point, an endpoint or a crossing
    (docs/rasterization.md, "Outlines").
    """
    dx = bx - ax
    dy = by - ay
    eps = 1e-9 * np.maximum.reduce(
        [np.ones_like(ax), np.abs(ax), np.abs(ay), np.abs(bx), np.abs(by)]
    )

    xe, xt = _ragged_crossings(ax, dx, xfirst, xcount)
    ye, yt = _ragged_crossings(ay, dy, yfirst, ycount)
    ends = np.arange(n, dtype=np.int64)
    eid = np.concatenate([ends, ends, xe, ye])
    ts = np.concatenate([np.zeros(n), np.ones(n), xt, yt])

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

    inside = (
        (cand_x >= 0) & (cand_x < width) & (cand_y >= 0) & (cand_y < height)
    )
    written = int(inside.sum())
    if written > capacity:
        return -1
    ix = cand_x[inside].astype(np.int64)
    iy = cand_y[inside].astype(np.int64)
    keys[:written] = (
        owner[cand_e[inside]] * (width * height) + ix * height + iy
    )
    return written


_NATIVE = None if native.SUPERCOVER is None else (
    native.SUPERCOVER.supercover_keys
)
if _NATIVE is not None:  # typed to the C prototype
    _f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    _i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    _out = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS, WRITEABLE")
    _NATIVE.argtypes = (
        ctypes.c_int64, _f64, _f64, _f64, _f64, _i64, _f64, _i64, _f64, _i64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _out,
    )
    _NATIVE.restype = ctypes.c_int64
#: Which supercover runs: ``"native"`` or ``"numpy"``.
KERNEL = "native" if _NATIVE is not None else "numpy"
_supercover = _NATIVE or _supercover_numpy


def _edge_keys(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    owner: np.ndarray, width: int, height: int, kernel=None,
) -> np.ndarray:
    """Supercover pixels of many segments in one kernel call.

    ``owner[e]`` tags edge ``e`` (e.g. with its polygon id); returns the
    ``owner * width * height + ix * height + iy`` keys of every pixel
    the edges touch — in-bounds, not deduplicated, in no set order.
    ``kernel`` (the compiled one, or :func:`_supercover_numpy`, where
    none could be built) is for the tests.
    """
    ax, ay, bx, by = map(np.ascontiguousarray, (ax, ay, bx, by))
    owner = np.ascontiguousarray(owner, dtype=np.int64)
    if not len(ax) == len(ay) == len(bx) == len(by) == len(owner):
        raise ValueError("every edge needs two ends and an owner")
    xfirst, xcount = _lattice_spans(ax, bx, width)
    yfirst, ycount = _lattice_spans(ay, by, height)
    # At most four pixels per probe: two ends and every crossing on the
    # canvas.
    capacity = 4 * (2 * len(ax) + int(xcount.sum()) + int(ycount.sum()))
    keys = np.empty(capacity, dtype=np.int64)
    written = (kernel or _supercover)(
        len(ax), ax, ay, bx, by, owner, xfirst, xcount, yfirst, ycount,
        width, height, capacity, keys,
    )
    if written < 0:
        raise RuntimeError("the supercover outgrew its probe capacity")
    return keys[:written]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values via an explicit sort + neighbor mask.

    Identical result to ``np.unique`` on 1-D integer input, but avoids
    its hash-based dedup path, which is far slower than one sort on the
    clustered pixel key distributions the outline and conservative
    passes produce.
    """
    s = np.sort(keys)
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def outline_pixels_many(
    viewport: Viewport,
    rings_by_pid: Mapping[int, Sequence[np.ndarray]],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Outline pixels for many polygons from one vectorized edge pass.

    Returns ``pid -> (ix, iy)`` with an entry for every requested pid
    (empty arrays when the polygon touches no pixel), each the sorted
    union of a per-edge supercover walk over its rings: edges carry
    their owning polygon id through the flat candidate arrays and one
    sorted dedup over (pid, flat pixel) codes splits per polygon.
    """
    pids = sorted(rings_by_pid)
    empty = np.zeros(0, dtype=np.int64)
    out = {pid: (empty, empty) for pid in pids}
    if not pids:
        return out
    # Assemble every ring of every polygon into one flat vertex array,
    # project it with a single to_screen call, and close the rings with
    # a next-vertex permutation instead of per-ring rolls.
    rings = [(pid, ring) for pid in pids for ring in rings_by_pid[pid]
             if len(ring)]
    if not rings:
        return out
    lengths = np.asarray([len(ring) for _, ring in rings], dtype=np.int64)
    flat = np.concatenate(
        [np.asarray(ring, dtype=np.float64) for _, ring in rings]
    )
    sx, sy = viewport.to_screen(flat[:, 0], flat[:, 1])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    nxt = np.arange(len(flat), dtype=np.int64) + 1
    nxt[starts + lengths - 1] = starts
    owner = np.repeat(np.asarray([pid for pid, _ in rings], np.int64), lengths)
    keys = _edge_keys(
        sx, sy, sx[nxt], sy[nxt], owner, viewport.width, viewport.height,
    )
    if not len(keys):
        return out
    span = viewport.width * viewport.height
    if pids[0] >= 0 and (pids[-1] + 1) * span < 2**31:
        # The narrower sort is cheaper, and every key fits.
        keys = keys.astype(np.int32)
    keyed = sorted_unique(keys).astype(np.int64, copy=False)
    key_pid = keyed // span
    flat = keyed - key_pid * span
    starts = np.searchsorted(key_pid, np.asarray(pids, dtype=np.int64))
    stops = np.searchsorted(key_pid, np.asarray(pids, dtype=np.int64), "right")
    for pid, lo, hi in zip(pids, starts, stops):
        if hi > lo:
            part = flat[lo:hi]
            out[pid] = (part // viewport.height, part % viewport.height)
    return out
