"""Point routing: project a point source onto a canvas once, then look it up.

Which tile a point lands on, and which pixel of that tile, is a function
of the point source and the canvas frame alone — not of the polygons,
the aggregate or the filter.  :func:`route_chunk` computes it once as a
:class:`Routing` record — the stable tile-sorted row order, each tile's
``[start, end)`` range in it, and per routed row its tile-local flat
pixel ``iy * width + ix`` — which the session caches per (point source,
canvas) whatever the tile count, so a T-tile query costs one lookup,
not T projections, and a one-tile query no projection at all.

Bit-equality with a tile that scans the whole input by itself (what a
tile of a streamed query does, :func:`scan_tile`) is by construction,
not by luck:

1. **Membership is the tile's own decision.**  The global projection
   only *nominates* tiles.  It and a tile-local projection compute the
   same quantity through differently-rounded float64 expressions; their
   screen coordinates agree to within a few ulps of the canvas size
   (~1e-11 pixels for an 8192-wide canvas), so their floors can disagree
   only for points exactly on a pixel boundary, and then only by one
   pixel.  Every row is therefore nominated for the tile of its
   (clamped) global pixel *and* for the neighboring tile whenever that
   pixel touches a tile seam, and each nomination is then decided —
   once, here — by the tile's own ``Viewport.pixel_of``, the very
   expression a self-scanning tile evaluates.  A rejected seam
   nomination is dropped; a row no tile takes (off the canvas, or
   non-finite — outside by ``pixel_of``'s rule) stays with its nearest
   tile flagged ``inside=False``, since it still went through the vertex
   stage and the filter counters see it; a row two adjacent tile
   transforms both take is routed to both, as both would have taken it
   scanning alone.
2. **Stable order.**  Rows are grouped by tile with a stable sort, so
   within a tile they keep the source order: the scatters
   (``np.bincount`` / ``ufunc.at``) visit pixels in the same sequence as
   the full scan and the boundary-PIP path sees the same point order —
   identical rounding everywhere.
3. **Batch-plan alignment.**  The accurate engine's boundary-PIP path
   folds partial sums per device batch, so batch *grouping* is part of
   the bit pattern.  :meth:`Routing.per_tile` cuts a tile's rows at the
   row boundaries of the exact batch plan the tile's self-scan would
   have used (same columns, device budget and per-tile framebuffer
   reservation); the cut is a ``searchsorted`` per query, so the cached
   record depends on none of those.

Which of the two a query runs follows its input, not a switch: a point
source is routed once (and cached in a session); a chunk stream is read
once per tile by :func:`scan_tile`, one chunk alive at a time, so a
stream larger than memory stays O(chunk) — the paper's own answer to a
canvas larger than the framebuffer.

A *prewarmed* routing (``Routing.prewarmed``) holds nothing more: a
statement over it reads its point framebuffers from the session's cache
instead of scattering them, and reads only the rows on its polygon
set's boundary pixels, found by one gather of the boundary mask at the
batch's pixels — or replayed from the artifact's record of the
pairing's boundary join (``docs/aggregate_pyramid.md`` has the
bit-equality argument).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.device.batching import plan_batches
from repro.device.memory import ResidentPointSet
from repro.exec import shm


def routing_token(canvas, max_resolution: int) -> tuple:
    """What a :class:`Routing` depends on besides the points: the canvas
    frame and its tile layout — never the polygons, the query's columns
    or the device's batch plan, so an edit loop and a whole dashboard
    share one entry."""
    ext = canvas.extent
    return (
        (ext.xmin, ext.ymin, ext.xmax, ext.ymax),
        canvas.width, canvas.height, max_resolution,
    )


class Routing:
    """One point source routed over one canvas's tile layout.

    ``order`` is the stable tile-sorted row order (``None`` when that is
    the source order itself — always so on a one-tile canvas, which then
    needs no second copy of any column); tile ``t`` owns routed positions
    ``[bounds[t], bounds[t + 1])``; ``pix`` holds each position's
    tile-local flat pixel in the narrowest integer that fits the tile,
    and ``inside`` is ``False`` where the position's tile did not take
    the row (``None`` when every row is on its tile; such a row's pixel
    is 0 and must be masked).  ``duplicates`` counts the seam nominations
    routing examined; ``resident`` says the source is device memory
    already (each tile's rows are one zero-transfer batch, no upload
    plan to align with).  ``prewarmed`` says a caller asked for the
    pairing's statements to read cached channels (``prewarm``).
    """

    def __init__(self, order, bounds, pix, inside, duplicates: int,
                 resident: bool) -> None:
        self.order = order
        self.bounds = bounds
        self.pix = pix
        self.inside = inside
        self.duplicates = duplicates
        self.resident = resident
        self._columns: dict[str, np.ndarray] = {}
        #: Shared-memory exports by column name (``None``: the one of
        #: ``pix`` / ``inside``); each owns its segment's lease and gives
        #: it back when the routing is dropped.
        self._exports: dict[str | None, shm.ShmChunk] = {}
        self._copied = 0
        self.prewarmed = False
        self._lock = threading.Lock()  # concurrent queries share a routing

    @property
    def nbytes(self) -> int:
        """Bytes this record holds beyond the source's own columns."""
        return self._copied + sum(
            arr.nbytes for arr in (self.order, self.bounds, self.pix,
                                   self.inside) if arr is not None
        )

    def ensure_columns(self, source, columns, shared: bool = False) -> None:
        """Make ``columns`` of ``source`` readable in routed order.

        A column is gathered at most once however many statements (and
        column *sets*) read it.  With ``shared`` it — and the pixels —
        moves into a shared-memory segment of its own, which
        resident workers map zero-copy; once shared, always shared.
        """
        with self._lock:
            shared = shared or None in self._exports
            for name in columns:
                if name not in self._columns:
                    arr = source.column(name)
                    if self.order is not None:
                        arr = arr.take(self.order)
                        self._copied += arr.nbytes
                    self._columns[name] = arr
                if shared and name not in self._exports:
                    if self.order is None:
                        self._copied += self._columns[name].nbytes
                    self._columns[name] = self._export(
                        name, {name: self._columns[name]}
                    )[name]
            if shared and None not in self._exports:
                arrays = {"pix": self.pix}
                if self.inside is not None:
                    arrays["inside"] = self.inside
                views = self._export(None, arrays)
                self.pix, self.inside = views["pix"], views.get("inside")

    def _export(self, key, arrays: dict) -> dict:
        chunk = self._exports[key] = shm.export_arrays(arrays)
        return {name: chunk.column(name) for name in arrays}

    def per_tile(self, source, columns, device, fbo_bytes,
                 shared: bool = False) -> list[list["RoutedChunk"]]:
        """Every tile's rows as this query's device batches, in row order.

        A tile's rows are cut where the batch plan of ``source`` under
        the query's columns and that tile's framebuffer reservation
        (``fbo_bytes[tile]``) cuts (module docstring, property 3);
        device-resident rows are one batch whatever their number.
        Called before tile tasks are dispatched, so they only ever read.
        """
        self.ensure_columns(source, columns, shared)
        out = []
        for idx, reserved in enumerate(fbo_bytes):
            edges = self._batch_edges(idx, source, columns, device, reserved)
            out.append([
                self._batch(slice(a, b), columns)
                for a, b in zip(edges, edges[1:]) if a < b
            ])
        return out

    def _batch_edges(self, idx: int, source, columns, device,
                     reserved: int) -> list[int]:
        """Tile ``idx``'s routed range and every position inside it where
        this query's device batches cut (module docstring, property 3)."""
        n = len(source)
        edges = [int(self.bounds[idx]), int(self.bounds[idx + 1])]
        if not self.resident and edges[0] < edges[1]:
            per_batch = plan_batches(
                source, columns, device, reserved
            ).rows_per_batch
            if per_batch < n:
                rows = (
                    np.arange(*edges) if self.order is None
                    else self.order[slice(*edges)]
                )
                edges[1:1] = (edges[0] + np.searchsorted(
                    rows, np.arange(per_batch, n, per_batch)
                )).tolist()
        return edges

    def _batch(self, cut: slice, columns) -> "RoutedChunk":
        shared, exports = None, self._exports
        if all(key in exports for key in (None, *columns)):
            routed = exports[None].refs
            shared = shm.ShmChunk(
                {c: exports[c].refs[c][cut] for c in columns},
                cut.stop - cut.start,
                (routed["pix"][cut],
                 routed["inside"][cut] if "inside" in routed else None),
            )
        return RoutedChunk(
            self, {name: self._columns[name][cut] for name in columns},
            self.pix[cut], None if self.inside is None else self.inside[cut],
            self.resident or shared is not None, shared,
        )


@dataclass(frozen=True)
class RoutedChunk:
    """One device batch of one tile, as the tile task consumes it: the
    rows' columns in row order, their flat pixels, which of them the
    tile took (``None``: all) and whether they need no upload (resident
    at the source, or in shared memory).  ``shared`` is the same batch
    as shared-memory descriptors (:class:`~repro.exec.shm.ShmChunk`, the
    same shape across a process boundary) when the routing is exported;
    ``owner`` keeps the routing — and its segment leases — alive."""

    owner: Routing
    columns: dict
    pix: np.ndarray
    inside: np.ndarray | None
    resident: bool
    shared: shm.ShmChunk | None = None

    def __len__(self) -> int:
        return len(self.pix)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _tile_pixels(tile, xs: np.ndarray, ys: np.ndarray):
    """``(pix, inside)`` of points under the tile's own transform — the
    deciding expression, shared by routed and self-scanning tiles."""
    ix, iy, inside = tile.pixel_of(xs, ys)
    pix = iy * tile.width + ix
    pix[~inside] = 0
    return pix.astype(np.min_scalar_type(tile.num_pixels - 1)), inside


def _nominate(xs, ys, canvas, max_resolution: int):
    """Every row's candidate tiles from one global projection.

    Returns ``(rows, tids, base, duplicates)`` grouped by tile, rows
    ascending inside a tile: ``base`` marks a row's own (clamped) tile,
    the rest are the seam nominations — a point whose global pixel is
    the first or last row/column of a tile may belong to the neighbor
    per that tile's own transform (module docstring, property 1).
    """
    sx, sy = canvas.full_viewport().to_screen(xs, ys)
    nx = -(-canvas.width // max_resolution)
    ny = -(-canvas.height // max_resolution)
    # Clamped, so a row off the canvas still has a nearest tile; NaN
    # (which clip passes through) goes to the first.
    gx, gy = (
        np.nan_to_num(np.clip(np.floor(s), 0, size - 1)).astype(np.int64)
        for s, size in ((sx, canvas.width), (sy, canvas.height))
    )
    tx, ty = gx // max_resolution, gy // max_resolution
    rx, ry = gx - tx * max_resolution, gy - ty * max_resolution
    base_tids = ty * nx + tx
    x_near = {
        -1: (rx == 0) & (tx > 0),
        1: (rx == max_resolution - 1) & (tx < nx - 1),
    }
    y_near = {
        -1: (ry == 0) & (ty > 0),
        1: (ry == max_resolution - 1) & (ty < ny - 1),
    }
    tid_parts, row_parts = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            mask = x_near[dx] if dx else None
            if dy:
                mask = y_near[dy] if mask is None else mask & y_near[dy]
            where = np.flatnonzero(mask)
            if len(where):
                tid_parts.append((ty[where] + dy) * nx + (tx[where] + dx))
                row_parts.append(where)
    # Stable sorts of narrow integer keys are radix sorts.
    narrow = np.min_scalar_type(nx * ny)
    if not tid_parts:
        rows = np.argsort(base_tids.astype(narrow), kind="stable")
        return rows, base_tids[rows], None, 0
    n = len(base_tids)
    tids = np.concatenate([base_tids, *tid_parts])
    rows = np.concatenate([np.arange(n, dtype=np.int64), *row_parts])
    # By row (a few ascending runs: near-linear), then stably by tile.
    order = np.argsort(rows, kind="stable")
    order = order[np.argsort(tids[order].astype(narrow), kind="stable")]
    return rows[order], tids[order], order < n, len(rows) - n


def route_chunk(chunk, canvas, tiles, max_resolution: int) -> Routing:
    """Route one point chunk over ``tiles`` (see the module docstring).

    ``canvas`` and ``max_resolution`` only nominate tiles on a
    multi-tile layout; a single tile — a one-tile canvas, or one tile
    scanning for itself — takes every row in source order.
    """
    xs, ys = chunk.column("x"), chunk.column("y")
    n = len(chunk)
    resident = isinstance(chunk, ResidentPointSet)
    if len(tiles) == 1:
        pix, inside = _tile_pixels(tiles[0], xs, ys)
        return Routing(
            None, np.array([0, n]), pix,
            None if inside.all() else inside, 0, resident,
        )
    rows, tids, base, duplicates = _nominate(xs, ys, canvas, max_resolution)
    bounds = np.searchsorted(tids, np.arange(len(tiles) + 1))
    dtype = np.min_scalar_type(max(t.num_pixels for t in tiles) - 1)
    pix = np.zeros(len(rows), dtype=dtype)
    inside = np.zeros(len(rows), dtype=bool)
    for idx, tile in enumerate(tiles):
        cut = slice(bounds[idx], bounds[idx + 1])
        if cut.start < cut.stop:
            pix[cut], inside[cut] = _tile_pixels(
                tile, xs[rows[cut]], ys[rows[cut]]
            )
    if base is not None:
        # Drop the seam nominations the neighbor rejected, and a row's
        # own nomination when only the neighbor took it.
        taken = np.zeros(n, dtype=bool)
        taken[rows[inside]] = True
        keep = inside | (base & ~taken[rows])
        rows, tids, pix, inside = (
            arr[keep] for arr in (rows, tids, pix, inside)
        )
        bounds = np.searchsorted(tids, np.arange(len(tiles) + 1))
    return Routing(
        rows, bounds, pix, None if inside.all() else inside, duplicates,
        resident,
    )


def partition_chunk(chunk, canvas, tiles, max_resolution: int,
                    columns: tuple[str, ...], device, tile_fbo_bytes):
    """Route one chunk and cut it into per-tile device batches.

    Returns ``(per_tile, duplicates)``: ``per_tile[i]`` lists the
    batches destined for ``tiles[i]`` — what a tile task consumes — and
    ``duplicates`` counts the seam nominations routing examined.
    """
    routing = route_chunk(chunk, canvas, tiles, max_resolution)
    return routing.per_tile(
        chunk, columns, device, tile_fbo_bytes
    ), routing.duplicates


def scan_tile(chunks, tile, columns: tuple[str, ...], device,
              fbo_bytes: int):
    """A tile of a streamed query routes each chunk itself, as it arrives.

    The same per-tile routing, the same batches, nothing shared with the
    other tiles and nothing cached: one pass over the stream per tile,
    one chunk alive at a time.  A chunk with no rows still yields one
    (empty) batch, so the tile reports having seen it.
    """
    for chunk in chunks:
        routing = route_chunk(chunk, None, (tile,), 0)
        (batches,) = routing.per_tile(chunk, columns, device, [fbo_bytes])
        yield from batches or [routing._batch(slice(0, 0), columns)]
