"""GeoBlocks-style aggregate pyramid for warm overlapping queries.

Every dashboard pan/zoom re-aggregates points inside polygons that
overlap the previous frame's polygons, so even a fully warm query is
still O(points).  Following GeoBlocks (PAPERS.md), an
:class:`AggregatePyramid` precomputes per-grid-cell channel partials
once per (point source, grid frame) pair:

* **level 0** holds one partial per grid cell — point count, per-column
  sums, and per-cell min/max partials, built in one vectorized pass over
  a cell-sorted point permutation (the same CSR layout the tile-local
  partition uses);
* **coarser levels** are 2×2 reductions of the level below, down to a
  single root cell, so a big polygon's interior is answered by a handful
  of block lookups instead of thousands of cell reads.

The accurate engine consumes it through the interior/boundary cell
split (:func:`ensure_polygon_blocks`): grid cells the polygon boundary
cannot touch (its conservative outline raster at grid resolution misses
them) are uniformly inside or outside, so one center PIP test per cell
classifies them; interior cells are answered from cached blocks with
**zero point reads**, and only points in boundary cells fall through to
the existing exact :func:`~repro.core.engine.grid_pip_aggregate` pass —
O(boundary cells) instead of O(points).

Exactness contract (see ``docs/aggregate_pyramid.md``):

* **Count** — bit-identical to the exact path: both count each inside
  point exactly once with exact float64 integer additions.
* **Sum** — the same value whenever the additions are exact (integer
  -valued attributes, the common dashboard case) and deterministic
  always; with rounding, block partials associate the same float64
  additions differently than the pixel pass, so the result is exact
  -sum-equivalent, not bit-equal.
* **Min/Max** — exact: the combine is order-free, NaN poisons partials
  exactly as it does ``np.min``/``np.minimum.at`` in the pixel path.
* **Average** — finalized from the Count and Sum channels, so it
  inherits their guarantees.

The pyramid depends only on the points and the grid frame — never the
polygons — so PR 5's delta polygon edits keep it byte-for-byte.  Point
content is validated by the session's content hash on every lookup, so
mutated point arrays can never replay stale partials.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.aggregates import Aggregate
from repro.geometry.polygon import PolygonSet
from repro.graphics.raster_line import outline_pixels
from repro.graphics.viewport import Viewport
from repro.index.grid import GridIndex, ragged_positions
from repro.obs import metrics, trace

#: Per-channel identity values by partial kind (count/sum fold from 0).
_IDENTITY = {"count": 0.0, "sum": 0.0, "min": np.inf, "max": -np.inf}


def channel_kinds(aggregate: Aggregate) -> dict[str, tuple[str, str | None]] | None:
    """Map each channel to its pyramid partial ``(kind, column)``.

    Additive blends decompose into ``count`` (constant-1 channels) and
    ``sum`` partials — this covers Count, Sum, Average, and any additive
    :class:`~repro.core.multi.MultiAggregate`.  Min/max blends map to
    per-cell order-statistic partials.  ``None`` means the aggregate has
    a shape the pyramid cannot serve (the engine falls back to the
    exact path).
    """
    kinds: dict[str, tuple[str, str | None]] = {}
    for ch, col in aggregate.channels.items():
        if aggregate.blend == "add":
            kinds[ch] = ("count", None) if col is None else ("sum", col)
        elif aggregate.blend in ("min", "max"):
            if col is None:
                return None
            kinds[ch] = (aggregate.blend, col)
        else:
            return None
    return kinds


def pyramid_levels(resolution: int) -> int:
    """How many levels a pyramid over ``resolution``² cells has (down to
    the 1×1 root)."""
    levels = 1
    side = resolution
    while side > 1:
        side = (side + 1) // 2
        levels += 1
    return levels


def _reduce2x2(level: np.ndarray, op, identity: float) -> np.ndarray:
    """One 2×2 reduction step, padding odd edges with the identity."""
    h, w = level.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    if h % 2 or w % 2:
        padded = np.full((h2 * 2, w2 * 2), identity, dtype=np.float64)
        padded[:h, :w] = level
        level = padded
    top = op(level[0::2, 0::2], level[0::2, 1::2])
    bottom = op(level[1::2, 0::2], level[1::2, 1::2])
    return op(top, bottom)


class AggregatePyramid:
    """Per-grid-cell channel partials with 2×2 reduction levels.

    Built once per (point source, grid frame); channels are added
    lazily, one vectorized pass each, the first time a query needs
    them.  ``point_order``/``cell_start`` form a CSR over the grid's
    cells (in-extent points only, ascending original index within each
    cell) so the boundary fallback can gather exactly the points of the
    boundary cells without rescanning the source.
    """

    __slots__ = ("extent", "resolution", "num_points", "point_order",
                 "cell_start", "channels", "version", "build_s", "uses")

    def __init__(
        self,
        extent: tuple[float, float, float, float],
        resolution: int,
        num_points: int,
        point_order: np.ndarray,
        cell_start: np.ndarray,
    ) -> None:
        self.extent = tuple(extent)
        self.resolution = int(resolution)
        self.num_points = int(num_points)
        self.point_order = point_order
        self.cell_start = cell_start
        #: (kind, column) -> [level 0 (res×res), level 1, ..., 1×1 root]
        self.channels: dict[tuple[str, str | None], list[np.ndarray]] = {}
        #: bumped whenever a channel is added; the session persists the
        #: pyramid when this exceeds the last persisted version.
        self.version = 0
        self.build_s = 0.0
        self.uses = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, points, grid: GridIndex) -> "AggregatePyramid":
        """One vectorized pass: sort points into the grid's cell CSR."""
        start = time.perf_counter()
        xs = np.asarray(points.column("x"), dtype=np.float64)
        ys = np.asarray(points.column("y"), dtype=np.float64)
        cells = grid.cell_of_points(xs, ys)
        inside = np.flatnonzero(cells >= 0)
        in_cells = cells[inside]
        # Stable sort: ascending original index within each cell, so
        # per-cell sum partials fold values in input order (the same
        # sequential order np.add.at applies within one pixel).
        order = np.argsort(in_cells, kind="stable")
        point_order = inside[order].astype(np.int64, copy=False)
        num_cells = grid.resolution * grid.resolution
        counts = np.bincount(in_cells, minlength=num_cells)
        cell_start = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=cell_start[1:])
        ext = grid.extent
        pyramid = cls(
            (ext.xmin, ext.ymin, ext.xmax, ext.ymax),
            grid.resolution, len(xs), point_order, cell_start,
        )
        pyramid.build_s = time.perf_counter() - start
        metrics.counter("pyramid_builds")
        metrics.observe("pyramid_build_seconds", pyramid.build_s)
        return pyramid

    def _sorted_cells(self) -> np.ndarray:
        """Cell id of each point in ``point_order`` (recomputed from the
        CSR rather than stored — one np.repeat per channel build)."""
        num_cells = self.resolution * self.resolution
        return np.repeat(
            np.arange(num_cells, dtype=np.int64), np.diff(self.cell_start)
        )

    def ensure_channel(self, kind: str, column: str | None, points) -> None:
        """Build the (kind, column) partial stack if not yet present."""
        key = (kind, column)
        if key in self.channels:
            return
        start = time.perf_counter()
        num_cells = self.resolution * self.resolution
        if kind == "count":
            level0 = np.diff(self.cell_start).astype(np.float64)
        else:
            vals = np.asarray(
                points.column(column), dtype=np.float64
            )[self.point_order]
            sorted_cells = self._sorted_cells()
            if kind == "sum":
                level0 = np.bincount(
                    sorted_cells, weights=vals, minlength=num_cells
                )
            else:
                level0 = np.full(num_cells, _IDENTITY[kind], dtype=np.float64)
                if kind == "min":
                    np.minimum.at(level0, sorted_cells, vals)
                else:
                    np.maximum.at(level0, sorted_cells, vals)
        self.install_channel(kind, column, level0.reshape(
            self.resolution, self.resolution
        ))
        elapsed = time.perf_counter() - start
        self.build_s += elapsed
        metrics.counter("pyramid_channel_builds", kind=kind)
        metrics.observe("pyramid_build_seconds", elapsed)

    def install_channel(
        self, kind: str, column: str | None, level0: np.ndarray
    ) -> None:
        """Adopt a level-0 array (fresh build or store load) and derive
        the coarser levels — upper levels are always recomputed, never
        persisted."""
        op = {"count": np.add, "sum": np.add,
              "min": np.minimum, "max": np.maximum}[kind]
        identity = _IDENTITY[kind]
        levels = [np.asarray(level0, dtype=np.float64)]
        while levels[-1].shape != (1, 1):
            levels.append(_reduce2x2(levels[-1], op, identity))
        self.channels[(kind, column)] = levels
        self.version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def block_reduce(
        self, kind: str, column: str | None, blocks: list
    ) -> float:
        """Fold one polygon's interior blocks into a single partial.

        ``blocks`` is a :func:`decompose_blocks` list of ``(level, flat
        ids)`` pairs, ascending by level with sorted ids, so additive
        folds always visit the same values in the same order —
        deterministic across runs and identical to a rebuilt pyramid.
        """
        levels = self.channels[(kind, column)]
        if kind in ("count", "sum"):
            total = 0.0
            for level, ids in blocks:
                total += float(np.sum(
                    levels[level].ravel()[ids], dtype=np.float64
                ))
            return total
        best = _IDENTITY[kind]
        combine = np.minimum if kind == "min" else np.maximum
        fold = np.min if kind == "min" else np.max
        for level, ids in blocks:
            best = float(combine(best, fold(levels[level].ravel()[ids])))
        return best

    def gather_indices(self, cells: np.ndarray) -> np.ndarray:
        """Original point indices of every point in the given cells.

        CSR expansion over ``cell_start`` — the boundary fallback reads
        only these points, which is the whole speedup.
        """
        cells = np.asarray(cells, dtype=np.int64)
        starts = self.cell_start[cells]
        return self.point_order[
            ragged_positions(starts, self.cell_start[cells + 1] - starts)
        ]

    # ------------------------------------------------------------------
    # Introspection / persistence support
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        total = self.point_order.nbytes + self.cell_start.nbytes
        for levels in self.channels.values():
            for level in levels:
                total += level.nbytes
        return total

    def level_zero(self) -> dict[tuple[str, str | None], np.ndarray]:
        """The per-channel level-0 arrays (what persistence stores;
        upper levels rebuild in :meth:`install_channel`)."""
        return {key: levels[0] for key, levels in self.channels.items()}

    def __repr__(self) -> str:
        chans = ", ".join(
            f"{kind}({col})" if col else kind
            for kind, col in self.channels
        )
        return (
            f"AggregatePyramid({self.resolution}x{self.resolution}, "
            f"{self.num_points} points, channels=[{chans}], "
            f"~{self.nbytes / 1e6:.1f} MB)"
        )


# ----------------------------------------------------------------------
# Polygon-side classification
# ----------------------------------------------------------------------
def classify_cells(
    polygon, cells: np.ndarray, grid: GridIndex, viewport: Viewport
) -> tuple[np.ndarray, np.ndarray]:
    """Split a polygon's candidate cells into (interior, boundary).

    ``pip`` cells are the conservative supercover of the polygon's
    outline at grid resolution — every cell the boundary could touch
    (the same :func:`outline_pixels` raster the accurate engine trusts
    for its per-tile boundary masks).  Any other candidate cell is
    entirely on one side of the boundary, so a single center PIP test
    classifies the whole cell; center-inside cells are ``interior``
    (every point in them is inside the polygon), center-outside cells
    are dropped (no point in them can be inside).
    """
    res = grid.resolution
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    ix, iy = outline_pixels(viewport, polygon.rings)
    pip = np.unique(
        np.asarray(iy, dtype=np.int64) * res + np.asarray(ix, dtype=np.int64)
    )
    candidates = np.setdiff1d(cells, pip, assume_unique=True)
    if len(candidates) == 0:
        return candidates, pip
    cy, cx = np.divmod(candidates, res)
    xs = grid.extent.xmin + (cx + 0.5) * grid.cell_w
    ys = grid.extent.ymin + (cy + 0.5) * grid.cell_h
    inside = polygon.contains_points(xs, ys)
    return candidates[inside], pip


def decompose_blocks(
    cells: np.ndarray, resolution: int, num_levels: int
) -> list[tuple[int, np.ndarray]]:
    """Greedy bottom-up block decomposition of an interior cell set.

    Promotes a parent cell whenever *all* of its in-range children are
    present — the promoted parent's pyramid value equals the reduction
    of exactly those children, so answering from the parent reads the
    same partials.  Returns ``[(level, sorted flat ids), ...]``
    ascending by level; a big convex interior collapses to O(log)
    blocks per side instead of O(area) cells.
    """
    blocks: list[tuple[int, np.ndarray]] = []
    ids = np.sort(np.asarray(cells, dtype=np.int64))
    width = height = resolution
    level = 0
    while len(ids) and level < num_levels - 1:
        pw = (width + 1) // 2
        cy, cx = np.divmod(ids, width)
        parents = (cy >> 1) * pw + (cx >> 1)
        uniq, counts = np.unique(parents, return_counts=True)
        py, px = np.divmod(uniq, pw)
        expected = (
            np.where(2 * px + 1 < width, 2, 1)
            * np.where(2 * py + 1 < height, 2, 1)
        )
        full = counts == expected
        promoted = uniq[full]
        if len(promoted):
            keep = ~np.isin(parents, promoted)
            if keep.any():
                blocks.append((level, ids[keep]))
            ids = promoted
        else:
            blocks.append((level, ids))
            ids = ids[:0]
        width = pw
        height = (height + 1) // 2
        level += 1
    if len(ids):
        blocks.append((level, ids))
    return blocks


def ensure_polygon_blocks(
    prepared, polygons: PolygonSet, grid: GridIndex
) -> GridIndex:
    """Classify every unit's cells and compose the boundary-only grid.

    Lazily fills each :class:`~repro.cache.prepared.PolygonUnit`'s
    ``interior_cells``/``pip_cells``/``blocks`` (after a delta edit,
    only the rebuilt polygons' units are missing them) and keeps
    ``prepared.pip_grid`` — a CSR grid over *boundary cells only*, so
    the fallback PIP pass never re-tests a point whose cell a polygon
    covers entirely (the cached block already counted it).  Returns the
    composed grid.
    """
    units = prepared.units
    viewport = Viewport(grid.extent, grid.resolution, grid.resolution)
    num_levels = pyramid_levels(grid.resolution)
    dirty = False
    with trace.span("pyramid-classify", polygons=len(units)):
        for pid, unit in enumerate(units):
            if unit.blocks is not None and unit.pip_cells is not None:
                continue
            cells = unit.cells
            if cells is None:
                cells = GridIndex.cells_for_polygon(
                    polygons[pid], grid.extent, grid.resolution,
                    grid.assignment
                )
                unit.cells = cells
            interior, pip = classify_cells(
                polygons[pid], cells, grid, viewport
            )
            unit.interior_cells = interior
            unit.pip_cells = pip
            unit.blocks = decompose_blocks(
                interior, grid.resolution, num_levels
            )
            dirty = True
    if prepared.pip_grid is None or dirty:
        prepared.pip_grid = GridIndex.from_cells(
            polygons,
            [unit.pip_cells for unit in units],
            resolution=grid.resolution,
            assignment=grid.assignment,
            extent=grid.extent,
        )
        prepared.version += 1
    return prepared.pip_grid
