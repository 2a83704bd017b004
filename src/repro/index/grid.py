"""Uniform grid index over polygons (the paper's §6.1 index).

The grid stores, for every cell, the ids of the polygons that may contain
points falling in that cell.  The paper builds it on the GPU in two passes
(count, then fill, into one contiguous allocation because the GPU has no
dynamic memory); we reproduce the same CSR-style two-pass build.

Two assignment modes exist, mirroring the paper:

* ``mbr`` — a polygon is registered in every cell its bounding box
  intersects (the GPU build).
* ``exact`` — a polygon is registered only in cells its actual geometry
  touches (the optimized CPU-baseline build of §7.1, which "assigns a
  polygon only to those grid cells that the actual geometry intersects").
  Exact assignment reuses the conservative rasterizer: the cells a polygon
  touches are precisely its conservative raster on the grid viewport.

Probing is O(1): a point maps to one cell and scans that cell's list.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon, PolygonSet
from repro.geometry.triangulate import triangulate_polygon
from repro.graphics.conservative import conservative_polygon_pixels
from repro.graphics.viewport import Viewport


def ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] + k`` for every ``k < counts[i]``, concatenated in
    order: the flat positions of a CSR gather."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


class GridIndex:
    """CSR-encoded uniform grid over a polygon set."""

    def __init__(
        self,
        polygons: PolygonSet | Sequence[Polygon],
        resolution: int = 1024,
        assignment: str = "mbr",
        extent: BBox | None = None,
    ) -> None:
        polys = list(polygons)
        if extent is None:
            extent = self.default_extent(polys)
        self._frame(polys, resolution, assignment, extent)
        # Two-pass CSR build, like the GPU implementation: one histogram
        # pass counts entries per cell (a single ``bincount`` over the
        # concatenated cell lists), one pass scatters polygon ids in
        # ascending pid order — so each cell's candidate list is
        # deterministic.
        start = time.perf_counter()
        cells_per_poly = [self._cells_of(p) for p in polys]
        all_cells = (
            np.concatenate(cells_per_poly) if cells_per_poly
            else np.zeros(0, dtype=np.int64)
        )
        counts = np.bincount(all_cells, minlength=resolution * resolution)
        self.cell_start = np.concatenate(
            [[0], np.cumsum(counts, dtype=np.int64)]
        )
        self.entries = np.zeros(len(all_cells), dtype=np.int64)
        cursor = self.cell_start[:-1].copy()
        for pid, cells in enumerate(cells_per_poly):
            self.entries[cursor[cells]] = pid
            cursor[cells] += 1
        self.build_seconds = time.perf_counter() - start

    def _frame(self, polygons, resolution: int, assignment: str,
               extent: BBox) -> "GridIndex":
        """Validate and set what every way of making an index shares."""
        if assignment not in ("mbr", "exact"):
            raise GeometryError(f"unknown assignment mode {assignment!r}")
        if resolution < 1:
            raise GeometryError(f"grid resolution must be >= 1, got {resolution}")
        self.extent = extent
        self.resolution = resolution
        self.assignment = assignment
        self.polygons = list(polygons)
        self.cell_w = extent.width / resolution
        self.cell_h = extent.height / resolution
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def default_extent(polygons: PolygonSet | Sequence[Polygon]) -> BBox:
        """The extent the constructor derives when none is given.

        The union of all polygon boxes, padded so boundary points on
        the max edges still map to a cell.
        """
        polys = list(polygons)
        extent = polys[0].bbox
        for p in polys[1:]:
            extent = extent.union(p.bbox)
        pad = 1e-9 + 1e-9 * max(abs(extent.xmax), abs(extent.ymax))
        return BBox(extent.xmin, extent.ymin,
                    extent.xmax + pad, extent.ymax + pad)

    @classmethod
    def cells_for_polygon(
        cls,
        polygon: Polygon,
        extent: BBox,
        resolution: int,
        assignment: str,
    ) -> np.ndarray:
        """One polygon's flat cell ids under a fixed frame.

        A pure function of (polygon geometry, extent, resolution,
        assignment), identical to what a full build computes for that
        polygon — what :meth:`splice` takes as a change.
        """
        return cls.__new__(cls)._frame(
            (), resolution, assignment, extent
        )._cells_of(polygon)

    @classmethod
    def from_arrays(
        cls,
        polygons: PolygonSet | Sequence[Polygon],
        resolution: int,
        assignment: str,
        extent: BBox,
        cell_start: np.ndarray,
        entries: np.ndarray,
    ) -> "GridIndex":
        """An index over given CSR arrays, skipping the build (what
        :meth:`splice` returns).  ``build_seconds`` is zero — nothing
        was rebuilt."""
        self = cls.__new__(cls)._frame(polygons, resolution, assignment, extent)
        self.cell_start = np.asarray(cell_start, dtype=np.int64)
        self.entries = np.asarray(entries, dtype=np.int64)
        self.build_seconds = 0.0
        return self

    def splice(
        self,
        polygons: PolygonSet | Sequence[Polygon],
        changes: dict[int, tuple[np.ndarray, np.ndarray]],
    ) -> "GridIndex":
        """A new index with a few polygons' cell lists replaced in place.

        ``changes`` maps polygon id -> (old cells, new cells), where the
        old list is what the polygon contributed to *this* index and the
        new list is what the edited geometry contributes.  Instead of
        re-running the full two-pass compose over every polygon's cells
        (O(total entries + cells) however small the edit), the edited
        pids' entries are deleted from the CSR arrays and the new ones
        inserted at their sorted positions — O(touched slices) plus one
        ``cell_start`` shift.

        No engine calls this any more: the accurate join dropped its
        grid (its PIP candidates are read off the canvas) and the index
        join rebuilds per polygon set.  It stays for the perf ledger's
        splice probe and ``tests/index/test_grid.py``
        alone, and goes when the ledger drops that metric (ROADMAP).

        Bit-identity with the constructor over the updated geometry
        follows from the build's invariant that each cell's entry list
        is ascending by pid: deletions keep the survivors' relative
        order, and each inserted pid lands before the first larger pid
        in its cell (ties across inserted pids resolve ascending), which
        is exactly where the ascending-pid scatter would have put it.
        Per-polygon cell lists are unique per cell in both assignment
        modes (MBR boxes and conservative rasters never repeat a cell),
        which the entry-matching below relies on.
        """
        start_time = time.perf_counter()
        num_cells = self.resolution * self.resolution
        entries = self.entries
        cell_start = self.cell_start

        # Deletions: locate every edited pid's entries across its old
        # cells by a ragged gather over only those cells' slices.
        hit_list: list[np.ndarray] = []
        hit_cell_list: list[np.ndarray] = []
        for pid in sorted(changes):
            old, _ = changes[pid]
            old = np.asarray(old, dtype=np.int64)
            if not len(old):
                continue
            starts = cell_start[old]
            spans = cell_start[old + 1] - starts
            total = int(spans.sum())
            if total == 0:
                continue
            offsets = np.concatenate([[0], np.cumsum(spans)[:-1]])
            idx = np.repeat(starts, spans) + (
                np.arange(total, dtype=np.int64) - np.repeat(offsets, spans)
            )
            match = entries[idx] == pid
            hit_list.append(idx[match])
            hit_cell_list.append(np.repeat(old, spans)[match])
        if hit_list:
            hits = np.sort(np.concatenate(hit_list))
            hit_cells = np.concatenate(hit_cell_list)
        else:
            hits = np.zeros(0, dtype=np.int64)
            hit_cells = np.zeros(0, dtype=np.int64)
        entries_d = np.delete(entries, hits)

        # Insertions: each new entry goes before the first larger pid in
        # its (post-deletion) cell slice.  Post-deletion slice bounds
        # come from the sorted hit positions (deletions in cells < c are
        # exactly the hits below cell_start[c]); the smaller-entry counts
        # from a ragged gather over only the target cells — no pass over
        # the full entry array.
        ins_pos: list[np.ndarray] = []
        ins_val: list[np.ndarray] = []
        ins_cell: list[np.ndarray] = []
        for pid in sorted(changes):
            _, new = changes[pid]
            new = np.asarray(new, dtype=np.int64)
            if not len(new):
                continue
            starts_d = cell_start[new] - np.searchsorted(
                hits, cell_start[new]
            )
            ends_d = cell_start[new + 1] - np.searchsorted(
                hits, cell_start[new + 1]
            )
            spans = ends_d - starts_d
            total = int(spans.sum())
            if total:
                offsets = np.concatenate([[0], np.cumsum(spans)[:-1]])
                idx = np.repeat(starts_d, spans) + (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(offsets, spans)
                )
                prefix = np.concatenate(
                    [[0], np.cumsum(entries_d[idx] < pid, dtype=np.int64)]
                )
                less = prefix[np.cumsum(spans)] - prefix[offsets]
            else:
                less = np.zeros(len(new), dtype=np.int64)
            ins_pos.append(starts_d + less)
            ins_val.append(np.full(len(new), pid, dtype=np.int64))
            ins_cell.append(new)
        if ins_pos:
            pos = np.concatenate(ins_pos)
            val = np.concatenate(ins_val)
            ins_cells = np.concatenate(ins_cell)
            # Sort by (position, cell, pid): np.insert keeps the given
            # order for equal positions.  An insert at the *end* of cell
            # c and one at the *start* of cell c+1 share the same flat
            # position, so the cell key must break that tie before pid
            # order settles adjacent inserts within one cell.
            order = np.lexsort((val, ins_cells, pos))
            entries_new = np.insert(entries_d, pos[order], val[order])
        else:
            ins_cells = np.zeros(0, dtype=np.int64)
            entries_new = entries_d

        # Final cell starts: the net size delta is nonzero only at the
        # touched cells, so the boundary shift is a sparse step function
        # — cumulate the per-cell deltas and expand by run lengths
        # instead of a full O(num_cells) prefix sum.
        touched = np.concatenate([hit_cells, ins_cells])
        if len(touched):
            deltas = np.concatenate([
                np.full(len(hit_cells), -1, dtype=np.int64),
                np.ones(len(ins_cells), dtype=np.int64),
            ])
            order_t = np.argsort(touched, kind="stable")
            tc = touched[order_t]
            seg = np.empty(len(tc), dtype=bool)
            seg[0] = True
            np.not_equal(tc[1:], tc[:-1], out=seg[1:])
            cells_u = tc[seg]
            shift_vals = np.cumsum(deltas[order_t])[
                np.concatenate([np.nonzero(seg)[0][1:] - 1, [len(tc) - 1]])
            ]
            reps = np.diff(
                np.concatenate([[0], cells_u + 1, [num_cells + 1]])
            )
            cell_start_new = cell_start + np.repeat(
                np.concatenate([[0], shift_vals]), reps
            )
        else:
            cell_start_new = cell_start.copy()

        out = GridIndex.from_arrays(
            polygons, self.resolution, self.assignment, self.extent,
            cell_start_new, entries_new,
        )
        out.build_seconds = time.perf_counter() - start_time
        return out

    def _cells_of(self, polygon: Polygon) -> np.ndarray:
        """Flat cell ids a polygon is assigned to, per the assignment mode."""
        r = self.resolution
        if self.assignment == "mbr":
            box = polygon.bbox
            x0 = self._clamp(int((box.xmin - self.extent.xmin) / self.cell_w))
            x1 = self._clamp(int((box.xmax - self.extent.xmin) / self.cell_w))
            y0 = self._clamp(int((box.ymin - self.extent.ymin) / self.cell_h))
            y1 = self._clamp(int((box.ymax - self.extent.ymin) / self.cell_h))
            gx, gy = np.meshgrid(
                np.arange(x0, x1 + 1, dtype=np.int64),
                np.arange(y0, y1 + 1, dtype=np.int64),
            )
            return (gy * r + gx).ravel()
        # Exact: cells overlapped by the geometry = conservative raster of
        # the polygon's triangles over the grid-as-viewport.
        viewport = Viewport(self.extent, r, r)
        tris = triangulate_polygon(polygon)
        ix, iy = conservative_polygon_pixels(viewport, tris)
        return iy * r + ix

    def _clamp(self, c: int) -> int:
        return min(max(c, 0), self.resolution - 1)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def row_of(self, ys: np.ndarray) -> np.ndarray:
        """Grid row per y, unclamped (negative or >= resolution outside
        the extent).  Monotone non-decreasing in ``y`` — what lets the
        edge table band edges by the very rows points probe."""
        return np.floor((ys - self.extent.ymin) / self.cell_h).astype(np.int64)

    def cell_of_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Flat cell id per point; -1 for points outside the extent —
        NaN and ±inf coordinates among them, by rule: membership is
        decided on the float cell coordinates, never on what the
        platform's integer cast makes of a non-finite value."""
        fx = (np.asarray(xs, dtype=np.float64) - self.extent.xmin) / self.cell_w
        fy = (np.asarray(ys, dtype=np.float64) - self.extent.ymin) / self.cell_h
        inside = (
            (fx >= 0) & (fx < self.resolution)
            & (fy >= 0) & (fy < self.resolution)
        )
        with np.errstate(invalid="ignore"):
            out = (
                np.floor(fy).astype(np.int64) * self.resolution
                + np.floor(fx).astype(np.int64)
            )
        out[~inside] = -1
        return out

    def candidates_of_cell(self, cell: int) -> np.ndarray:
        """Polygon ids registered in one cell."""
        if cell < 0:
            return np.zeros(0, dtype=np.int64)
        return self.entries[self.cell_start[cell]:self.cell_start[cell + 1]]

    def candidates_of_point(self, x: float, y: float) -> np.ndarray:
        cell = self.cell_of_points(np.asarray([x]), np.asarray([y]))[0]
        return self.candidates_of_cell(int(cell))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def memory_bytes(self) -> int:
        return self.cell_start.nbytes + self.entries.nbytes

    def cell_occupancy(self) -> np.ndarray:
        """Entries per cell — used by the grid-resolution ablation."""
        return np.diff(self.cell_start)

    def __repr__(self) -> str:
        return (
            f"GridIndex({self.resolution}^2 cells, {len(self.polygons)} polygons, "
            f"{self.num_entries} entries, assignment={self.assignment!r})"
        )
