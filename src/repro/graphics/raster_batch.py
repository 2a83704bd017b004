"""Batched triangle rasterization over whole-set flat arrays.

The paper's performance rests on the GPU consuming *all* triangles of all
polygons as one stream.  This module is the software equivalent: instead
of looping a one-triangle rasterizer per triangle (``triangle_coverage_mask``,
the suites' oracle in ``tests/graphics/reference_raster.py``), the whole
polygon set's triangles are concatenated into flat ``(N, 3)``
snapped-vertex arrays, edge functions are set up for all
N triangles in a handful of vectorized passes, and coverage is evaluated
over flat candidate-fragment arrays — CuRast-style binning by triangle
id — with the results scattered back per triangle and per polygon.

Bit-identity with the scalar path is the contract, not an aspiration:

* vertices snap through the same :func:`snap_to_subpixels` (elementwise
  ``np.rint``), so the sub-pixel lattice is identical;
* clockwise triangles are normalized by swapping vertices 0 and 2 —
  exactly the ``fx[::-1]`` reversal the scalar path performs — so every
  directed edge, and therefore every fill-rule bias, matches;
* edge functions are the same int64 expressions with the same
  ``E + bias >= 0`` tie-break;
* covered rows are listed row-major within each triangle's clipped
  bounding box and expanded left to right, which is precisely the order
  ``np.nonzero(mask)`` reports, so per-triangle fragment arrays are
  byte-for-byte the scalar ``covered_pixels`` output.

A triangle → polygon id map rides along with the flat arrays, so
per-polygon :class:`~repro.cache.prepared.PolygonUnit` slices (outline
pixels, coverage runs) come out of one batched pass grouped by polygon
— an incremental edit still rebuilds exactly one polygon's slice.
Coverage leaves this module as *runs*, never as fragments: a polygon's
covered rows, sorted and merged where they abut, as ``[lo, hi)`` flat
pixel intervals that expand to exactly the scalar fragments' multiset.
"""

from __future__ import annotations

import ctypes
from typing import Mapping, Sequence

import numpy as np

from repro import native
from repro.graphics.raster_triangle import (
    _HALF,
    SUBPIXEL_SCALE,
    snap_to_subpixels,
)
from repro.graphics.viewport import Viewport


class TriangleSoup:
    """Concatenated triangle geometry for a set of polygons.

    ``verts`` is the flat ``(N, 3, 2)`` world-coordinate array of every
    triangle of every requested polygon, in ascending polygon id order
    with each polygon's triangulation order preserved; ``tri_pid[t]`` is
    the owning polygon id of triangle ``t`` — the scatter key that maps
    batch results back onto per-polygon units.
    """

    __slots__ = ("verts", "tri_pid", "pids")

    def __init__(self, verts: np.ndarray, tri_pid: np.ndarray,
                 pids: list[int]) -> None:
        self.verts = verts
        self.tri_pid = tri_pid
        self.pids = pids


def flatten_triangles(
    triangles_by_pid: Mapping[int, Sequence[np.ndarray]],
) -> TriangleSoup:
    """Concatenate per-polygon triangle lists into one flat soup."""
    pids = sorted(triangles_by_pid)
    tris = [
        np.asarray(triangles_by_pid[pid], dtype=np.float64).reshape(-1, 3, 2)
        for pid in pids
    ]
    verts = np.concatenate([np.zeros((0, 3, 2)), *tris])
    owner = np.repeat(
        np.asarray(pids, dtype=np.int64), [len(t) for t in tris]
    )
    return TriangleSoup(verts, owner, pids)


class BatchSetup:
    """Vectorized per-triangle rasterization setup (the "vertex stage").

    All arrays are length N (or ``(N, 3)`` per-edge).  ``fx``/``fy`` are
    the snapped sub-pixel vertex coordinates *after* CCW normalization;
    ``x0``/``y0``/``w``/``h`` the clipped pixel bounding boxes (``w``
    and ``h`` are zero for degenerate or fully clipped triangles); and
    ``dx``/``dy``/``bias`` the three directed edges' deltas and
    fill-rule biases, matching the scalar ``_fill_rule_bias`` exactly.
    """

    __slots__ = ("fx", "fy", "x0", "y0", "w", "h", "dx", "dy", "bias")

    def __init__(self, fx, fy, x0, y0, w, h, dx, dy, bias) -> None:
        self.fx = fx
        self.fy = fy
        self.x0 = x0
        self.y0 = y0
        self.w = w
        self.h = h
        self.dx = dx
        self.dy = dy
        self.bias = bias


def setup_triangles(viewport: Viewport, verts: np.ndarray) -> BatchSetup:
    """Snap, orient, clip, and edge-set-up N triangles in one pass."""
    verts = np.asarray(verts, dtype=np.float64).reshape(-1, 3, 2)
    sx, sy = viewport.to_screen(verts[:, :, 0], verts[:, :, 1])
    fx, fy = snap_to_subpixels(sx, sy)

    area2 = (
        (fx[:, 1] - fx[:, 0]) * (fy[:, 2] - fy[:, 0])
        - (fy[:, 1] - fy[:, 0]) * (fx[:, 2] - fx[:, 0])
    )
    cw = area2 < 0
    if cw.any():
        # The scalar path reverses the vertex array; swapping vertices 0
        # and 2 is the same permutation, so the directed edges (and their
        # fill-rule biases) come out identical.
        fx[cw] = fx[cw][:, ::-1]
        fy[cw] = fy[cw][:, ::-1]

    x0 = np.maximum(0, (fx.min(axis=1) - _HALF) // SUBPIXEL_SCALE)
    y0 = np.maximum(0, (fy.min(axis=1) - _HALF) // SUBPIXEL_SCALE)
    x1 = np.minimum(viewport.width - 1, fx.max(axis=1) // SUBPIXEL_SCALE)
    y1 = np.minimum(viewport.height - 1, fy.max(axis=1) // SUBPIXEL_SCALE)
    live = (area2 != 0) & (x1 >= x0) & (y1 >= y0)
    w = np.where(live, x1 - x0 + 1, 0)
    h = np.where(live, y1 - y0 + 1, 0)

    dx = np.roll(fx, -1, axis=1) - fx
    dy = np.roll(fy, -1, axis=1) - fy
    bias = np.where((dy < 0) | ((dy == 0) & (dx > 0)),
                    np.int64(0), np.int64(-1))
    return BatchSetup(fx, fy, x0, y0, w, h, dx, dy, bias)


class BatchFragments:
    """Covered rows of N triangles, and the fragments they expand to.

    The rasterizer's product is the *row table*: ``row_tri[r]``,
    ``row_first[r]``, ``row_len[r]`` say that triangle ``row_tri[r]``
    covers the ``row_len[r]`` pixels starting at flat index
    ``row_first[r]`` (``iy * width + ix``) — one entry per covered pixel
    row, triangle-major in input order and bottom-up within a triangle.
    ``counts[t]`` is triangle ``t``'s fragment count.  ``pixels`` (and
    ``ix`` / ``iy``) expand the table on request — every fragment's flat
    index, in the order ``covered_pixels`` emits; nothing the engines
    run asks for it.
    """

    __slots__ = ("row_tri", "row_first", "row_len", "counts", "width")

    def __init__(self, row_tri, row_first, row_len, counts, width) -> None:
        self.row_tri = row_tri
        self.row_first = row_first
        self.row_len = row_len
        self.counts = counts
        self.width = width

    @property
    def pixels(self) -> np.ndarray:
        # A fragment's flat index is its position in the output plus its
        # row's offset — the row's first pixel minus the number of
        # fragments before the row.
        before = np.cumsum(self.row_len) - self.row_len
        pixels = np.arange(int(self.row_len.sum()), dtype=np.int64)
        pixels += np.repeat(self.row_first - before, self.row_len)
        return pixels

    @property
    def ix(self) -> np.ndarray:
        return self.pixels % self.width

    @property
    def iy(self) -> np.ndarray:
        return self.pixels // self.width


def _scan_numpy(n, fx, fy, x0, y0, w, h, dx, dy, bias, width, capacity,
                row_tri, row_first, row_len, counts) -> int:
    """The compiled scan's contract (``scan_triangles`` in
    ``triangle_scan.c``) in whole-array passes: the path where no library
    could be built."""
    # One entry per pixel row of every live triangle's clipped bbox.
    num_rows = int(h.sum())
    tri = np.repeat(np.arange(n, dtype=np.int64), h)
    row_ly = np.arange(num_rows, dtype=np.int64) - np.repeat(
        np.cumsum(h) - h, h
    )

    # E + bias at the bbox-origin pixel center, and its per-pixel steps.
    ccx0 = x0 * SUBPIXEL_SCALE + _HALF
    ccy0 = y0 * SUBPIXEL_SCALE + _HALF
    lo = np.zeros(num_rows, dtype=np.int64)
    hi = np.repeat(w, h) - 1
    for e in range(3):
        e0b = (
            dx[:, e] * (ccy0 - fy[:, e]) - dy[:, e] * (ccx0 - fx[:, e])
            + bias[:, e]
        )
        # Value of E + bias at column 0 of each row; stepping one pixel
        # right subtracts dy * SUBPIXEL_SCALE.
        a = e0b[tri] + (dx[:, e] * SUBPIXEL_SCALE)[tri] * row_ly
        b = (dy[:, e] * SUBPIXEL_SCALE)[tri]
        pos = b > 0
        neg = b < 0
        # b > 0: a - b*lx >= 0  <=>  lx <= floor(a / b).
        hi = np.where(pos, np.minimum(hi, a // np.where(pos, b, 1)), hi)
        # b < 0: lx >= ceil(a / b) = -floor(a / -b).
        lo = np.where(neg, np.maximum(lo, -(a // np.where(neg, -b, 1))), lo)
        # b == 0: the whole row passes or fails on the sign of a.
        hi = np.where(~pos & ~neg & (a < 0), np.int64(-1), hi)
    seg = np.maximum(hi - lo + 1, 0)
    counts[:] = np.bincount(tri, weights=seg, minlength=n)

    keep = seg > 0
    rows = int(keep.sum())
    if rows > capacity:
        return -1
    row_tri[:rows] = tri[keep]
    row_first[:rows] = (
        (y0[tri[keep]] + row_ly[keep]) * width + x0[tri[keep]] + lo[keep]
    )
    row_len[:rows] = seg[keep]
    return rows


_NATIVE = None if native.TRIANGLE_SCAN is None else (
    native.TRIANGLE_SCAN.scan_triangles
)
if _NATIVE is not None:  # typed to the C prototype
    _i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    _out = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS, WRITEABLE")
    _NATIVE.argtypes = (
        ctypes.c_int64, *[_i64] * 9, ctypes.c_int64, ctypes.c_int64,
        *[_out] * 4,
    )
    _NATIVE.restype = ctypes.c_int64
#: Which row scan runs: ``"native"`` or ``"numpy"``.
KERNEL = "native" if _NATIVE is not None else "numpy"
_scan = _NATIVE or _scan_numpy


def rasterize_triangles(viewport: Viewport, verts: np.ndarray) -> BatchFragments:
    """Rasterize N triangles with one scanline pass over the set.

    Each biased edge function ``E(px, py) + bias`` is linear in ``px``,
    so on a fixed pixel row the half-plane test ``E + bias >= 0``
    constrains the covered columns to a half-line (or to everything /
    nothing when the edge is vertical in ``x``), and the row's covered
    set is the *intersection interval* ``[lo, hi]`` of the three.  The
    interval endpoints come from exact int64 floor/ceil division of the
    same edge-function values the dense per-pixel test evaluates, so the
    emitted fragments are bit-identical to ``covered_pixels`` —
    triangle-major, row-major within a triangle, ascending column within
    a row — while the work drops from O(sum of bbox areas) to
    O(rows + covered pixels).  The scan is one call of
    ``triangle_scan.c`` (:mod:`repro.native`), or of its whole-array
    numpy form where no compiler is; the set-up is numpy either way.
    """
    setup = setup_triangles(viewport, verts)
    n = len(setup.x0)
    capacity = int(setup.h.sum())
    row_tri, row_first, row_len = np.empty((3, capacity), dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    rows = _scan(
        n, *map(np.ascontiguousarray, (
            setup.fx, setup.fy, setup.x0, setup.y0, setup.w, setup.h,
            setup.dx, setup.dy, setup.bias,
        )),
        viewport.width, capacity, row_tri, row_first, row_len, counts,
    )
    if rows < 0:
        raise RuntimeError("the row scan outgrew its bounding-box rows")
    return BatchFragments(
        row_tri[:rows], row_first[:rows], row_len[:rows], counts,
        viewport.width,
    )


def coverage_by_polygon(
    viewport: Viewport,
    triangles_by_pid: Mapping[int, Sequence[np.ndarray]],
) -> dict[int, np.ndarray]:
    """Per-polygon coverage runs from one batched pass.

    Returns ``pid -> runs``: a ``(k, 2)`` int64 array of ``[lo, hi)``
    flat ``iy * width + ix`` intervals, ascending by ``lo``.  They are
    the polygon's covered rows sorted by first pixel and merged where one
    ends exactly where the next begins (a row reaching the right edge
    abuts the next row's left edge) — only abutment, never overlap, so
    the runs expand to exactly the multiset of fragments looping
    ``covered_pixels`` over its triangles yields, sorted.  Every
    requested pid gets an entry (empty when it covers no pixel).
    Callers apply their own viewport gates (e.g. the polygon-bbox/tile
    intersection test) by choosing which pids to request.
    """
    soup = flatten_triangles(triangles_by_pid)
    frags = rasterize_triangles(viewport, soup.verts)
    owner = soup.tri_pid[frags.row_tri]
    first = frags.row_first
    # Rows by (polygon, first pixel): one sort on a combined key.
    order = np.argsort(owner * viewport.num_pixels + first, kind="stable")
    owner, first = owner[order], first[order]
    end = first + frags.row_len[order]
    head = np.ones(len(first), dtype=bool)
    head[1:] = (owner[1:] != owner[:-1]) | (first[1:] != end[:-1])
    heads = np.flatnonzero(head)
    runs = np.stack(
        [first[heads], end[np.append(heads, len(end))[1:] - 1]], axis=1
    )
    bounds = np.searchsorted(owner[heads], soup.pids + [np.inf])
    return {
        pid: runs[lo:hi]
        for pid, lo, hi in zip(soup.pids, bounds[:-1], bounds[1:])
    }


def bin_polygons_to_tile(
    tile: Viewport, mbr_arrays: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Vectorized polygon → tile bin pass over columnar MBRs.

    One boolean per polygon: does its bounding box intersect the tile's
    world window?  This replicates the scalar builders' per-polygon
    ``polygon.bbox.intersects(tile.bbox)`` gate (inclusive edges) in a
    single vectorized comparison, so batched builds select exactly the
    polygons the per-polygon loops would have rasterized.
    """
    xmin, xmax, ymin, ymax = mbr_arrays
    box = tile.bbox
    return (
        (xmax >= box.xmin) & (xmin <= box.xmax)
        & (ymax >= box.ymin) & (ymin <= box.ymax)
    )
