"""Flat edge table banded by row: the boundary PIP's geometry.

The JoinPoint procedure tests (point, polygon) candidate pairs.  Calling
:meth:`~repro.geometry.polygon.Polygon.contains_points` once per polygon
walks every edge of that polygon in Python; this table makes the same
test one data-parallel pass over *all* pairs of *all* polygons (CuRast's
"batch everything": concatenated geometry plus an owner map).

Every non-horizontal edge of every ring of every polygon sits in four
flat endpoint arrays, directed ``a -> b`` exactly as
:func:`~repro.geometry.predicates.points_in_ring` walks them (``a`` is
the ring's previous vertex), so the crossing arithmetic sees the same
operands.  Horizontal edges are dropped: under the half-open span rule
they never count.  A CSR maps *(polygon, row)* to the edges whose
y-span meets that row, the rows being the table's own frame: ``rows``
equal bands over the y-range of the polygons' MBRs
(:meth:`EdgeTable.row_of`).  ``row_of`` is monotone in ``y``, so the
edge list of a point's row is a superset of the edges whose span
contains the point's ``y`` — testing only that band is the *identical*
even-odd predicate (holes included, they are just more rings), at a
fraction of the crossings, whatever ``rows`` is.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.geometry.polygon import Polygon, PolygonSet
from repro.index.grid import ragged_positions

#: Upper bound on (pair, edge) crossings materialized per block.  Blocks
#: split on pair boundaries and parity is per pair, so the answer never
#: depends on it.
DEFAULT_CROSSING_BUDGET = 1 << 20

#: Row bands when the caller names no count.
DEFAULT_ROWS = 1024


class EdgeTable:
    """Concatenated polygon edges with a (polygon, row) -> edges CSR.

    ``ax/ay/bx/by`` are the directed edge endpoints, polygon ``p``'s
    being ``edge_start[p]:edge_start[p + 1]``; ``mbrs`` the polygons'
    ``(xmin, xmax, ymin, ymax)`` columns (the ``contains_points`` gate —
    the prepared artifact's own, shared not copied); ``rows`` bands of
    height ``row_height`` start at ``ymin``; polygon ``p`` owns the
    ``row_count[p]`` consecutive bands starting at ``band_base[p]`` for
    rows ``row_lo[p]...``, and band ``k`` lists
    ``band_edges[band_start[k]:band_start[k + 1]]``.  Every array is a
    concatenation of per-polygon blocks in polygon order, each a
    function of its polygon and the frame alone — what lets
    :meth:`splice` replace a few polygons' blocks bit-identically.
    """

    __slots__ = ("ax", "ay", "bx", "by", "mbrs", "rows", "ymin",
                 "row_height", "edge_start", "row_lo", "row_count",
                 "band_base", "band_start", "band_edges")

    def __init__(
        self,
        polygons: PolygonSet | Sequence[Polygon],
        mbrs: tuple[np.ndarray, ...],
        rows: int = DEFAULT_ROWS,
    ) -> None:
        if rows < 1:
            raise QueryError(f"edge table rows must be >= 1, got {rows}")
        self._frame(mbrs, rows)
        ends, counts, self.row_lo, self.row_count, band_sizes, \
            self.band_edges = self._blocks(list(polygons))
        self.ax, self.ay, self.bx, self.by = ends
        self._index(counts, band_sizes)

    def _frame(self, mbrs: tuple[np.ndarray, ...], rows: int) -> None:
        """``rows`` equal bands over the y-range of ``mbrs``."""
        self.mbrs = mbrs
        self.rows = rows
        self.ymin = float(mbrs[2].min())
        # A set of zero height has one band whatever its y.
        self.row_height = (float(mbrs[3].max()) - self.ymin) / rows or 1.0

    def _blocks(self, polys: list) -> tuple:
        """The per-polygon blocks of ``polys`` in this table's frame:
        endpoints, edges per polygon, ``row_lo`` / ``row_count``, edges
        per band and the bands' edge lists (edge ids from 0)."""
        rings = [ring for poly in polys for ring in poly.rings]
        lens = np.fromiter((len(r) for r in rings), np.int64, len(rings))
        ring_pid = np.repeat(
            np.arange(len(polys), dtype=np.int64),
            [1 + len(poly.holes) for poly in polys],
        )
        b = np.concatenate(rings)
        # a = the previous vertex within the same (implicitly closed) ring.
        prev = np.arange(len(b), dtype=np.int64) - 1
        ring_first = np.cumsum(lens) - lens
        prev[ring_first] = ring_first + lens - 1
        a = b[prev]
        sloped = a[:, 1] != b[:, 1]
        ends = (a[sloped, 0], a[sloped, 1], b[sloped, 0], b[sloped, 1])
        owner = np.repeat(ring_pid, lens)[sloped]

        edge_lo = self.row_of(np.minimum(ends[1], ends[3]))
        edge_hi = self.row_of(np.maximum(ends[1], ends[3]))
        row_lo = np.full(len(polys), self.rows, dtype=np.int64)
        row_hi = np.full(len(polys), -1, dtype=np.int64)
        np.minimum.at(row_lo, owner, edge_lo)
        np.maximum.at(row_hi, owner, edge_hi)
        row_count = np.maximum(row_hi - row_lo + 1, 0)
        band_base = np.cumsum(row_count) - row_count

        # Register each edge in every band its span meets, then group by
        # band (stable: a band lists its edges in table order).
        spans = edge_hi - edge_lo + 1
        edge = np.repeat(np.arange(len(owner), dtype=np.int64), spans)
        band = (band_base - row_lo)[owner[edge]] + ragged_positions(
            edge_lo, spans
        )
        return (
            ends, np.bincount(owner, minlength=len(polys)), row_lo,
            row_count, np.bincount(band, minlength=int(row_count.sum())),
            edge[np.argsort(band, kind="stable")],
        )

    def _index(self, counts: np.ndarray, band_sizes: np.ndarray) -> None:
        """The offsets over the blocks: edges, bands and band lists."""
        self.edge_start = np.concatenate([[0], np.cumsum(counts)])
        self.band_base = np.cumsum(self.row_count) - self.row_count
        self.band_start = np.concatenate([[0], np.cumsum(
            band_sizes, dtype=np.int64,
        )])

    def splice(
        self,
        polygons: PolygonSet | Sequence[Polygon],
        mbrs: tuple[np.ndarray, ...],
        rows: int,
        replaced: Sequence[int],
    ) -> "EdgeTable":
        """The table of ``polygons`` — this table's set with the
        polygons at ``replaced`` (ascending ids) swapped — built by
        splicing their fresh blocks into this table's.  The same frame
        gives the same blocks, so the result is a rebuild's bits; a
        frame that moved, or another row count, rebuilds."""
        table = EdgeTable.__new__(EdgeTable)
        table._frame(mbrs, rows)
        if (rows, table.ymin, table.row_height) != (
            self.rows, self.ymin, self.row_height
        ) or len(mbrs[0]) != len(self.row_lo):
            return EdgeTable(polygons, mbrs, rows)
        polys = list(polygons)
        ends, counts, row_lo, row_count, band_sizes, band_edges = (
            table._blocks([polys[pid] for pid in replaced])
        )
        fresh_start = np.concatenate([[0], np.cumsum(counts)])
        fresh_base = np.concatenate([[0], np.cumsum(row_count)])
        fresh_lists = np.concatenate([[0], np.cumsum(band_sizes)])
        counts_all = np.diff(self.edge_start)
        counts_all[replaced] = counts
        table.row_lo = self.row_lo.copy()
        table.row_lo[replaced] = row_lo
        table.row_count = self.row_count.copy()
        table.row_count[replaced] = row_count
        edge_start = np.concatenate([[0], np.cumsum(counts_all)])
        base = np.append(self.band_base, self.band_start.size - 1)
        sizes = np.diff(self.band_start)
        # Alternate the kept runs of polygons and the replaced ones.
        pieces: list[tuple] = []
        prev = 0
        for k, pid in enumerate(list(replaced) + [len(polys)]):
            e0, e1 = self.edge_start[prev], self.edge_start[pid]
            pieces.append((
                [arr[e0:e1] for arr in (self.ax, self.ay, self.bx, self.by)],
                sizes[base[prev]:base[pid]],
                self.band_edges[self.band_start[base[prev]]:
                                self.band_start[base[pid]]]
                + (edge_start[prev] - e0),
            ))
            if pid == len(polys):
                break
            f0, f1 = fresh_start[k], fresh_start[k + 1]
            b0, b1 = fresh_base[k], fresh_base[k + 1]
            pieces.append((
                [arr[f0:f1] for arr in ends],
                band_sizes[b0:b1],
                band_edges[fresh_lists[b0]:fresh_lists[b1]]
                + (edge_start[pid] - f0),
            ))
            prev = pid + 1
        table.ax, table.ay, table.bx, table.by = (
            np.concatenate([piece[0][i] for piece in pieces])
            for i in range(4)
        )
        table.band_edges = np.concatenate([piece[2] for piece in pieces])
        table._index(counts_all, np.concatenate([piece[1] for piece in pieces]))
        return table

    def row_of(self, ys: np.ndarray) -> np.ndarray:
        """Band per ``y`` inside the frame (the top edge is the last
        band's), monotone non-decreasing in ``y``."""
        return np.minimum(
            np.floor((ys - self.ymin) / self.row_height).astype(np.int64),
            self.rows - 1,
        )

    @property
    def nbytes(self) -> int:
        """Bytes the table owns (``mbrs`` belong to the artifact)."""
        return sum(
            getattr(self, name).nbytes for name in self.__slots__
            if name not in ("mbrs", "rows", "ymin", "row_height")
        )

    def contains_pairs(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        pids: np.ndarray,
        budget: int = DEFAULT_CROSSING_BUDGET,
    ) -> np.ndarray:
        """Even-odd PIP of pair ``k``: is ``(xs[k], ys[k])`` inside
        polygon ``pids[k]``?

        Bit-for-bit :meth:`Polygon.contains_points` per pair: the same
        MBR gate, the same half-open span rule, the same crossing
        expression over the same directed edges, only the point's own
        row band of them.  A pair whose row lies outside its polygon's
        bands, or whose band is empty, crosses nothing and never becomes
        a segment of the parity count.
        """
        inside = np.zeros(len(pids), dtype=bool)
        xmin, xmax, ymin, ymax = self.mbrs
        # Past the gate a y is finite and inside the frame.
        live = np.flatnonzero(
            (xs >= xmin[pids]) & (xs <= xmax[pids])
            & (ys >= ymin[pids]) & (ys <= ymax[pids])
        )
        owners = pids[live]
        rel = self.row_of(ys[live]) - self.row_lo[owners]
        banded = (rel >= 0) & (rel < self.row_count[owners])
        live, rel = live[banded], rel[banded]
        band = self.band_base[owners[banded]] + rel
        first = self.band_start[band]
        counts = self.band_start[band + 1] - first
        px, py = xs[live], ys[live]
        cum = np.concatenate([[0], np.cumsum(counts)])
        start = 0
        while start < len(live):
            end = int(np.searchsorted(cum, cum[start] + budget, "right")) - 1
            end = min(max(end, start + 1), len(live))
            n = counts[start:end]
            pair = np.repeat(np.arange(end - start, dtype=np.int64), n)
            edge = self.band_edges[ragged_positions(first[start:end], n)]
            x, y = px[start:end][pair], py[start:end][pair]
            ax, ay = self.ax[edge], self.ay[edge]
            bx, by = self.bx[edge], self.by[edge]
            # Unspanned edges may overflow the crossing expression; they
            # are masked out by the span test.
            with np.errstate(over="ignore", invalid="ignore"):
                crosses = (
                    (((ay <= y) & (y < by)) | ((by <= y) & (y < ay)))
                    & (ax + (y - ay) / (by - ay) * (bx - ax) > x)
                )
            odd = np.bincount(pair[crosses], minlength=end - start) & 1
            inside[live[start:end]] = odd.astype(bool)
            start = end
        return inside
