"""One tile task, one tile loop: the raster join's only per-tile pipeline.

The paper's raster join is one fixed per-tile sequence — draw the polygon
boundaries, draw the points (a PIP test only for points landing on a
boundary pixel), draw the polygons — and this module holds its only
implementation, as plain functions over plain data:

* the **tile task** (:func:`run_tile`): the tile's record of polygon
  views (:class:`~repro.cache.prepared.TileViews`) → point pass →
  polygon pass → one :class:`~repro.exec.backend.TilePartial`.  It
  never projects: a batch arrives *routed* — each row with its flat
  pixel in this tile (:mod:`repro.exec.partition`) — and every batch
  takes one flow (:func:`_point_pass`): the window's cut (a delta's),
  the upload, one flat gather of the boundary mask, the filter mask
  (never a copy), a PIP test for the ~1% of rows on the mask and one
  flat scatter for the rest.  A tile runs one query (its
  :class:`TileMember`); statements that share work share it as
  channels of one aggregate (:class:`~repro.core.multi.MultiAggregate`),
  not as a list of queries.  The boundary join always pairs every row
  the tile took on a boundary pixel and masks the matches by the
  filter, so which rows pair with which polygons, and which pairs match,
  depends on the points, the artifact and the tile alone: the artifact
  records it per point source, one :class:`_Record` per tile, and a
  later statement over the pairing replays it — its filter masks the
  recorded matches and its aggregate folds them, with no pairing and no
  PIP test.  A tile holds its boundary matches until its last batch and
  folds them once (:func:`_merge_batches`).  On a prewarmed pairing the
  same pass runs without the upload and the scatter: its framebuffers
  are the session's cached channels and the filter reads the boundary
  rows alone; the polygon pass reads the same run table either way,
  which never covers a boundary pixel (``docs/aggregate_pyramid.md``).
* the **tile loop** (:func:`run_tiles`): look a point source's routing
  up or compute it (a chunk stream is scanned by each tile instead) →
  dispatch the tile tasks over the execution backend → merge the
  partials in tile-index order, as many tiles at once as the
  statement's device footprint allows (:func:`statement_footprint`,
  which the planning and costing probes read too).
* the **engine** (:class:`RasterJoinEngine`): the one raster join —
  padded canvas, prepared artifact, execution — that the accurate and
  bounded joins subclass with a kernel each.

The task's inputs are picklable data — the tile index, a small frozen
:class:`TileKernel` naming what differs between the engines, the member
(prepared artifact, polygons, aggregate, filters), the chunk descriptors
and a few flags — so in-process dispatch and the resident worker pool's
:class:`~repro.exec.resident.TileTaskSpec` dispatch run the same function;
the latter merely pickles its arguments.

Determinism: every task folds its accumulators from the blend identity
— its interior rows in row order, its boundary matches once — and the
loop merges partials in tile order, so every backend, worker count,
dispatch mode and batch cut produces the same bits
(``docs/parallel_execution.md``).
The scalar raster kernels in :mod:`repro.graphics` are not called from
here; they are the oracle the batched builders are tested against
(``docs/rasterization.md``).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.cache.prepared import (
    PreparedPolygons,
    TileCandidates,
    TileCoverage,
    TileViews,
)
from repro.core.aggregates import Aggregate, Count
from repro.core.engine import (
    SpatialAggregationEngine,
    by_pid,
    match_values,
    new_accumulators,
    pip_fold,
    pip_match,
)
from repro.core.filters import FilterSet, filter_key
from repro.core.multi import MultiAggregate
from repro.data.dataset import PointDataset
from repro.device.batching import tile_parallelism
from repro.device.memory import (
    DEFAULT_MAX_RESOLUTION,
    GPUDevice,
    ResidentPointSet,
)
from repro.errors import QueryError
from repro.exec import shm
from repro.exec.backend import ExecutionBackend, ProcessBackend, TilePartial
from repro.exec.partition import route_chunk, routing_token, scan_tile
from repro.exec.resident import TileTaskSpec
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet
from repro.graphics.fbo import FrameBuffer
from repro.graphics.raster_batch import (
    bin_polygons_to_tile,
    coverage_by_polygon,
)
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Canvas, Viewport
from repro.index.grid import ragged_positions
from repro.obs import metrics, trace
from repro.types import AggregationResult, ExecutionStats


# ----------------------------------------------------------------------
# The task's data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileKernel:
    """What differs between the engines that run the tile task.

    ``exact`` selects the accurate join's boundary stage (outline mask,
    PIP for points on it, which therefore never reach the framebuffer);
    without it every point rasterizes — the bounded join.  The polygon
    pass is the same either way.  ``device`` plans and times the point
    uploads.
    """

    engine: str
    exact: bool
    fbo_dtype: type
    device: GPUDevice | None = None

    @property
    def max_resolution(self) -> int:
        """Largest framebuffer side the device supports (the tile size)."""
        if self.device is not None:
            return self.device.max_resolution
        return DEFAULT_MAX_RESOLUTION

    def pixel_bytes(self, aggregate: Aggregate) -> int:
        """Framebuffer bytes per pixel: one value per channel."""
        return len(aggregate.channels) * np.dtype(self.fbo_dtype).itemsize


@dataclass
class TileMember:
    """One query readied for the tile loop: everything but its points."""

    prepared: PreparedPolygons
    polygons: PolygonSet
    aggregate: Aggregate
    filters: FilterSet


class TileRun(NamedTuple):
    """What the tile loop hands back."""

    #: Merged per-polygon channel arrays.
    accumulators: dict[str, np.ndarray]
    #: Per tile, the ``(run table, framebuffer)`` the polygon pass read —
    #: only under ``keep_fbo`` (the bounded engine's §5 result intervals).
    payloads: list
    #: Whether the input produced any chunk (a stream must yield one).
    saw_chunk: bool


class Footprint(NamedTuple):
    """What one statement holds on the device per tile task."""

    #: Per tile, the bytes of the statement's framebuffer: the ``nbytes``
    #: of the one the tile task builds, which its batch size reserves.
    fbo_bytes: list[int]
    #: How many tile tasks may run at once.
    parallelism: int


def statement_footprint(
    kernel: TileKernel,
    workers: int,
    tiles: list[Viewport],
    aggregate: Aggregate,
    columns: tuple[str, ...],
    points,
) -> Footprint:
    """The device footprint of one statement over ``tiles``: the tile
    loop runs by it, and the planning and costing probes read it.

    Batch sizes never depend on the worker count, so the device budget
    is enforced the other way around: the cap limits how many tiles may
    hold a full batch plus their framebuffer at once.
    Resident columns are shared, not re-uploaded, so they cap nothing; a
    stream (``points`` of ``None``: unknown chunk sizes) runs one tile at
    a time under a device.
    """
    cell = kernel.pixel_bytes(aggregate)
    fbo_bytes = [cell * tile.width * tile.height for tile in tiles]
    device = kernel.device
    if device is None or isinstance(points, ResidentPointSet):
        return Footprint(fbo_bytes, workers)
    return Footprint(fbo_bytes, tile_parallelism(
        device, max(fbo_bytes, default=0), points, columns, workers
    ))


# ----------------------------------------------------------------------
# The tile task
# ----------------------------------------------------------------------
def run_tile(
    tile_idx: int,
    kernel: TileKernel,
    member: TileMember,
    columns: tuple[str, ...],
    chunks,
    *,
    retain: bool,
    tracing: bool,
    keep_fbo: bool = False,
    reuse: dict | None = None,
    channels: dict | None = None,
    pairs: dict | None = None,
) -> TilePartial:
    """One whole tile: boundary, point pass, polygon pass.

    The unit every dispatch mode runs — inline, in a thread, in a forked
    child, or in a resident spawned worker.  Nothing is read from an
    engine and shared prepared state is never mutated: the task builds
    what the artifact's per-polygon units lack, and under ``retain`` the
    fresh pieces — the composed views and the per-polygon outlines —
    travel home in the partial, as does the tile's trace subtree.

    ``reuse`` is a delta's base's slots of this tile under this
    statement's key (:func:`run_tiles`).  When the tile was patched —
    its ``near`` known — the tile re-aggregates only that window
    (:class:`_Window`): the base's slots stand for every other polygon,
    and a tile the edit's window missed runs no pass at all.
    ``channels`` (a prewarmed tile's cached point framebuffers) and
    ``pairs`` (the artifact's record of the boundary join) are the
    point pass's (:func:`_point_pass`).
    """
    tile = member.prepared.tiles[tile_idx]
    with trace.tile_scope(tracing, tile=tile_idx) as tile_span:
        metrics.counter("engine_tile_tasks", engine=kernel.engine)
        partial = TilePartial(
            tile_idx,
            new_accumulators(member.polygons, member.aggregate),
            ExecutionStats(engine=kernel.engine, batches=0, passes=1),
        )
        views, near = _tile_views(
            tile_idx, tile, kernel.exact, member, partial, retain
        )
        window = None
        if reuse is not None and near is not None:
            window = _Window.of(tile, member, near)
            partial.accumulators = window.slots(reuse, member.aggregate)
        if window is None or window.box:
            with trace.span("point-pass"):
                fbo = None if channels is not None else _tile_framebuffer(
                    tile, member.aggregate, kernel.fbo_dtype, window
                )
                partial.saw_points = _point_pass(
                    kernel, member, columns, chunks, views, fbo, partial,
                    window, pairs,
                )
            with trace.span("polygon-pass"):
                _polygon_pass(
                    views.coverage if window is None
                    else window.table(views.coverage),
                    member, channels or {
                        ch: fbo.channel(ch).ravel()
                        for ch in member.aggregate.channels
                    },
                    partial,
                )
        if keep_fbo:
            partial.payload = (views.coverage, fbo)
        partial.span = tile_span
    return partial


# -- stage 1: draw the boundaries ---------------------------------------
def _tile_views(
    tile_idx: int,
    tile: Viewport,
    exact: bool,
    member: TileMember,
    partial: TilePartial,
    retain: bool,
) -> tuple[TileViews, np.ndarray | None]:
    """This tile's record — cached, or built — and, on a delta's patched
    tile, the polygons the edit can change there (``near``; ``None``
    elsewhere).

    The exact kernel's build rasterizes outlines in one vectorized edge
    pass over the polygons whose unit lacks this tile (those whose box
    meets it — one vectorized bin pass over the columnar MBRs); the
    coverage raster runs here too, for the bounded kernel alike, and the
    record is composed whole from every polygon's slices
    (:meth:`~repro.cache.prepared.PreparedPolygons.compose_views`).  A
    delta with stable ids patches its base's record instead, inside the
    edit's window (:meth:`~repro.cache.prepared.PreparedPolygons.
    patch_tile`).  Under ``retain`` what this call built goes home in
    ``partial``.
    """
    prepared = member.prepared
    delta = prepared.delta
    near = delta.near.get(tile_idx) if delta is not None else None
    views = prepared.views.get(tile_idx)
    if views is None:
        with trace.span("boundary"):
            start = time.perf_counter()
            built = {}
            outlines = None
            if exact:
                outlines = prepared.unit_slices("boundary", tile_idx)
                pids = [
                    pid for pid in range(len(prepared.units))
                    if pid not in outlines
                ]
                hit = bin_polygons_to_tile(tile, prepared.mbr_arrays)
                empty = np.zeros(0, dtype=np.int64)
                built["unit_boundary"] = {pid: (empty, empty) for pid in pids}
                built["unit_boundary"].update(outline_pixels_many(tile, {
                    pid: member.polygons[pid].rings for pid in pids if hit[pid]
                }))
                outlines.update(built["unit_boundary"])
            runs, built["unit_coverage"] = _unit_runs(tile_idx, tile, member)
            patched = prepared.patch_tile(tile, tile_idx, runs, outlines)
            if patched is None:
                views = prepared.compose_views(tile, runs, outlines)
            else:
                views, near = patched
                built["near"] = near
            if retain:
                if patched is not None and views is delta.base.views[tile_idx]:
                    # The window missed the tile: its record is the base's
                    # object, which the parent installs from its own base,
                    # not from a copy a process sends home.
                    built["base_views"] = True
                else:
                    built["views"] = views
                partial.built = built
            partial.stats.processing_s += time.perf_counter() - start
    if exact:
        # Assigned, never accumulated: the tile's boundary population.
        partial.stats.extra["boundary_pixels"] = len(views.candidates.pixels)
    return views, near


class _Window(NamedTuple):
    """What a delta's tile re-aggregates: ``near`` (the polygons the
    edit can change there, ascending; ``inner`` marks them by pid) and
    ``box``, the ``(x0, y0, x1, y1)`` pixel box (inclusive) of their
    pixels — the union of their pixel boxes (:meth:`~repro.cache.
    prepared.PreparedPolygons.pixel_boxes`), on the tile; ``()`` when
    empty.

    Every pixel a ``near`` polygon reads — its runs, its candidate
    pixels — is in the box, so only the rows on it are scanned: within
    each device batch of the statement, in row order, as the full pass
    meets them.  Their framebuffer covers the box alone, row after row
    (:meth:`place`); a run stays consecutive there, since one that
    wraps into the next row makes the box span the tile's width.  Each
    ``near`` slot is then the same reductions over the same values in
    the same order as a full pass, and every other slot is the base's.
    """

    near: np.ndarray
    inner: np.ndarray
    box: tuple
    width: int

    @classmethod
    def of(cls, tile: Viewport, member: TileMember,
           near: np.ndarray) -> "_Window":
        inner = np.zeros(len(member.polygons), dtype=bool)
        inner[near] = True
        box = ()
        if len(near):
            bx0, by0, bx1, by1 = member.prepared.pixel_boxes(tile, near)
            x0, y0 = max(int(bx0.min()), 0), max(int(by0.min()), 0)
            x1 = min(int(bx1.max()), tile.width - 1)
            y1 = min(int(by1.max()), tile.height - 1)
            if x0 <= x1 and y0 <= y1:
                box = (x0, y0, x1, y1)
        return cls(near, inner, box, tile.width)

    @property
    def shape(self) -> tuple[int, int]:
        """The framebuffer's ``(width, height)``: the box's."""
        x0, y0, x1, y1 = self.box
        return x1 - x0 + 1, y1 - y0 + 1

    def place(self, pix: np.ndarray) -> np.ndarray:
        """Where the tile's flat pixels ``pix`` (all in the box) are in
        the window's framebuffer."""
        x0, y0 = self.box[:2]
        iy, ix = np.divmod(pix, self.width)
        return (iy - y0) * self.shape[0] + (ix - x0)

    def slots(self, reuse: dict, aggregate: Aggregate) -> dict:
        """The tile's accumulators to start from: the base's slots
        (``reuse``, never written), ``near``'s back at the identity."""
        if not len(self.near):
            return reuse
        out = {}
        for ch, base in reuse.items():
            out[ch] = base.copy()
            out[ch][self.near] = aggregate.identity()
        return out

    def rows(self, pix: np.ndarray) -> np.ndarray:
        """Positions of the rows whose pixel is in the box, ascending."""
        x0, y0, x1, y1 = self.box
        band = np.flatnonzero(
            (pix >= y0 * self.width) & (pix < (y1 + 1) * self.width)
        )
        column = pix.take(band) % self.width
        return band[(column >= x0) & (column <= x1)]

    def table(self, coverage: TileCoverage) -> TileCoverage:
        """``near``'s segments of the run table, over the framebuffer."""
        segment = np.flatnonzero(self.inner[coverage.pids])
        count = np.diff(coverage.starts, append=len(coverage.runs))[segment]
        lo, hi = coverage.runs.take(
            ragged_positions(coverage.starts[segment], count), axis=0
        ).T
        first = self.place(lo)
        width, height = self.shape
        return TileCoverage.build(
            np.column_stack([first, first + (hi - lo)]),
            coverage.pids[segment], np.cumsum(count) - count, width * height,
        )


# -- stage 2: draw the points -------------------------------------------
def _tile_framebuffer(tile: Viewport, aggregate: Aggregate, dtype,
                      window: _Window | None = None) -> FrameBuffer:
    """A tile's render target — under a ``window`` its box alone —
    cleared to the blend identity."""
    width, height = tile.width, tile.height
    if window is not None:
        width, height = window.shape
    fbo = FrameBuffer(width, height, channels=aggregate.channels, dtype=dtype)
    if aggregate.blend != "add":
        for name in aggregate.channels:
            fbo.channel(name).fill(aggregate.identity())
    return fbo


def _point_pass(
    kernel: TileKernel,
    member: TileMember,
    columns: tuple[str, ...],
    chunks,
    views: TileViews | None,
    fbo: FrameBuffer | None,
    partial: TilePartial,
    window: _Window | None = None,
    pairs: dict | None = None,
) -> bool:
    """Upload, mask and route each routed batch of this tile.

    ``chunks`` are this tile's device batches, each row already carrying
    its flat pixel (:class:`~repro.exec.partition.RoutedChunk`, or its
    shared-memory twin) — whether the routing came from the session,
    from this query's own routing pass, or from the tile scanning a
    stream itself.  Every batch takes one flow: under a ``window`` it is
    cut to the rows in the box, in order; it is uploaded; the rows the
    tile took on a boundary pixel are found (or read off the record);
    the vertex-stage filter runs once, as a boolean mask in row order;
    the boundary rows join exactly (:func:`_boundary_join`) and the kept
    interior rows scatter into ``fbo`` (a ``window``'s box of it) in row
    order.  Without an ``fbo`` the tile was prewarmed: its framebuffers
    are cached, so the batch is neither uploaded nor scattered and the
    filter reads the boundary rows alone.  Without a mask (the bounded
    join) every kept row scatters.  Values are cast to the FBO's dtype
    by the blend, as 32-bit GL channels would.  The tile holds its
    boundary matches from batch to batch and folds them once, after its
    last batch (:func:`_merge_batches`), so the batch cut reaches no bit.

    ``pairs`` (:meth:`~repro.cache.prepared.AnswerBook.pairs`; ``None``:
    none is kept) holds the pairing's boundary joins, one
    :class:`_Record` per tile: this tile's is replayed — each batch
    slices its rows off at its offset — or built here and shipped home
    in ``partial.pairs``.  Returns whether any chunk arrived.
    """
    stats, filters, aggregate = partial.stats, member.filters, member.aggregate
    boundary = None if views is None else views.boundary
    if boundary is not None:
        boundary = boundary.reshape(-1)
    record = None if pairs is None else pairs.get(partial.tile_idx)
    built = [] if pairs is not None and record is None else None
    held = []  # the tile's boundary matches, batch by batch, until its fold
    offset = 0  # where the next batch starts among the tile's rows
    saw_points = False
    for chunk in chunks:
        saw_points = True
        first, offset = offset, offset + len(chunk)
        if len(chunk) == 0:
            continue
        pix, inside = chunk.pix, chunk.inside
        cols = {name: chunk.column(name) for name in columns}
        replay = None if record is None else record.batch(first, len(chunk))
        # A scattering tile counts every batch it is handed, a prewarmed
        # one each batch it reads a boundary row of (below).
        stats.batches += fbo is not None
        if window is not None:
            cut = window.rows(pix)
            if len(cut) == 0:
                continue
            pix = pix.take(cut)
            inside = None if inside is None else inside.take(cut)
            cols = {name: col.take(cut) for name, col in cols.items()}
        buffers = {}
        if fbo is not None:
            pix = pix.astype(np.intp, copy=False)
            if kernel.device is not None and not chunk.resident:
                buffers, seconds = kernel.device.upload_columns(cols)
                stats.transfer_s += seconds
                stats.bytes_transferred += sum(
                    b.nbytes for b in buffers.values()
                )
                cols = {name: b.array for name, b in buffers.items()}
        try:
            start = time.perf_counter()
            rows = None  # the boundary rows; None: the kernel has no mask
            if replay is not None:
                rows = replay.rows
            elif boundary is not None:
                edge = boundary.take(pix)
                rows = np.flatnonzero(edge if inside is None else edge & inside)
            # The filter reads every row the pass reads: the batch, or on
            # a prewarmed tile its boundary rows alone.  ``keep`` of None
            # keeps them all.
            keep = None
            n = len(pix) if fbo is not None else len(rows)
            if filters and n:
                keep = filters.mask(
                    cols.__getitem__ if fbo is not None
                    else lambda name: cols[name].take(rows), n,
                )
                dropped = n - int(np.count_nonzero(keep))
                stats.points_filtered_out += dropped
                if dropped == 0:
                    keep = None
            stats.points_processed += n
            if fbo is None:
                stats.batches += n > 0
            if rows is not None:
                kept = keep
                if keep is not None and fbo is not None:
                    kept = keep.take(rows)
                match = _boundary_join(
                    views.candidates, pix, cols, rows, kept, member, partial,
                    window, replay, held,
                )
                if built is not None:
                    built.append((first, match))
            if fbo is not None:
                # Rows on no tile ride along for the counters only.
                if inside is not None:
                    if keep is None:
                        keep = inside
                    else:
                        keep &= inside
                scattered = None  # None: the batch as it is
                if rows is not None and len(rows):
                    interior = (np.ones(n, dtype=bool) if keep is None
                                else keep.copy())
                    interior[rows] = False
                    scattered = np.flatnonzero(interior)
                elif keep is not None:
                    scattered = np.flatnonzero(keep)
                if scattered is not None:
                    pix = pix.take(scattered)
                if window is not None:
                    pix = window.place(pix)
                fbo.scatter(pix, {
                    ch: 1.0 if col is None else cols[col]
                    if scattered is None else cols[col].take(scattered)
                    for ch, col in aggregate.channels.items()
                }, aggregate.blend)
            stats.processing_s += time.perf_counter() - start
        finally:
            for buffer in buffers.values():
                buffer.free()
    start = time.perf_counter()
    if held:  # the tile's one boundary fold
        values = _merge_batches(held)
        pip_fold(values.pop("owner"), values, aggregate,
                 partial.accumulators)
    stats.processing_s += time.perf_counter() - start
    if built is not None:
        partial.pairs = _Record.from_batches(built)
    return saw_points


class _Record(NamedTuple):
    """A tile's boundary join, as an artifact records it: the positions
    among the tile's rows (its batches end to end) that it took on a
    boundary pixel, ascending (``rows``), and :func:`~repro.core.engine.
    pip_match`'s output over them — ``matched`` indexing ``rows``,
    grouped by polygon (stable by pid, row order within a pid), and
    ``owner``, each match's pid.  A batch's join is the same over the
    batch's own rows."""

    rows: np.ndarray
    matched: np.ndarray
    owner: np.ndarray

    def batch(self, first: int, length: int) -> "_Record":
        """The join of the batch of the tile's rows ``first`` to ``first
        + length``: its rows sliced off, and their matches in order."""
        if first == 0 and (not len(self.rows) or self.rows[-1] < length):
            return self  # the tile's one batch
        lo, hi = np.searchsorted(self.rows, (first, first + length))
        inside = (self.matched >= lo) & (self.matched < hi)
        return _Record(self.rows[lo:hi] - first, self.matched[inside] - lo,
                       self.owner[inside])

    @classmethod
    def from_batches(cls, batches: list) -> "_Record":
        """A tile's join from its batches' ``(first row, join)``."""
        empty = np.zeros(0, dtype=np.intp)
        shift = np.cumsum([0] + [len(join.rows) for _, join in batches])
        one = _merge_batches([{"owner": empty, "matched": empty}] + [
            {"owner": join.owner, "matched": join.matched + by}
            for (_, join), by in zip(batches, shift)
        ])
        rows = [join.rows + first for first, join in batches]
        return cls(np.concatenate([empty, *rows]), **one)


def _merge_batches(batches: list[dict]) -> dict:
    """A tile's batches' matches (each batch's arrays per match by name,
    grouped by polygon, pids first as ``owner``) as one batch of all its
    rows groups them: merged stable by pid, batch order then row order
    within a polygon.  So any cut folds the bits, and records the join,
    of one batch."""
    if len(batches) == 1:
        return batches[0]
    names = list(batches[0])
    return dict(zip(names, by_pid(*(
        np.concatenate([batch[name] for batch in batches]) for name in names
    ))))


def _boundary_join(
    candidates: TileCandidates,
    pix: np.ndarray,
    cols: dict[str, np.ndarray],
    rows: np.ndarray,
    kept: np.ndarray | None,
    member: TileMember,
    partial: TilePartial,
    window: _Window | None,
    replay: _Record | None,
    held: list,
) -> _Record:
    """Join the batch rows ``rows`` — every row the tile took on a
    boundary pixel, whatever the filter — exactly; the matches of those
    ``kept`` marks (the filter over ``rows``; ``None``: all) join
    ``held``, the tile's matches until its fold.  So the pairs tested
    (``stats.pip_tests``) depend on the pairing alone, never on the
    filter or on whether a record is kept.  Returns the batch's join.

    The *match*: a row's flat pixel ranks it among the candidates'
    sorted pixels, it pairs with that pixel's polygons (a ``window``'s
    ``near`` alone) and the pairs take the engines' one PIP test
    (:func:`~repro.core.engine.pip_match`) — unless ``replay``, the
    recorded join of the same rows, stands for it.  The filter masks
    the matches, which keeps their order, so each polygon's matches are
    the same values in the same order as a match of the kept rows alone
    — same bits — and only the matched rows gather the aggregate's
    columns: ``held`` takes each match's pid (``owner``) and values.
    """
    partial.stats.boundary_points += (
        len(rows) if kept is None else int(np.count_nonzero(kept))
    )
    if len(rows) == 0:
        return replay or _Record(rows, rows, rows)
    with trace.span("boundary-pip", points=len(rows),
                    recorded=replay is not None):
        if replay is None:
            rank = np.searchsorted(candidates.pixels, pix.take(rows))
            first = candidates.starts[rank]
            counts = candidates.starts[rank + 1] - first
            point_idx = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
            pids = candidates.pids[ragged_positions(first, counts)]
            if window is not None:
                pair = window.inner[pids]
                point_idx, pids = point_idx[pair], pids[pair]
            replay = _Record(rows, *pip_match(
                cols["x"].take(rows), cols["y"].take(rows), point_idx, pids,
                member.prepared.edge_table, partial.stats,
            ))
        matched, owner = replay.matched, replay.owner
        if kept is not None:
            keep = kept.take(matched)
            matched, owner = matched[keep], owner[keep]
        held.append({"owner": owner, **match_values(
            cols, rows.take(matched), member.aggregate
        )})
    return replay


# -- stage 3: draw the polygons -----------------------------------------
def _unit_runs(
    tile_idx: int, tile: Viewport, member: TileMember
) -> tuple[dict, dict]:
    """Every polygon's coverage runs on this tile (``{pid: runs}``), and
    the part of them this call rasterized: the polygons whose unit lacks
    the tile, in one batched pass over those whose box meets it."""
    prepared = member.prepared
    runs = prepared.unit_slices("coverage", tile_idx)
    pids = [pid for pid in range(len(prepared.units)) if pid not in runs]
    built = dict.fromkeys(pids, np.zeros((0, 2), dtype=np.int64))
    hit = bin_polygons_to_tile(tile, prepared.mbr_arrays)
    built.update(coverage_by_polygon(
        tile, {pid: prepared.triangles[pid] for pid in pids if hit[pid]}
    ))
    runs.update(built)
    return runs, built


def _polygon_pass(
    coverage: TileCoverage,
    member: TileMember,
    channels: dict[str, np.ndarray],
    partial: TilePartial,
) -> None:
    """Reduce each polygon's coverage runs into its result slot.

    What depends on the polygons alone — the runs' ``lo`` order, the
    pieces each ``reduceat`` reads, the way back to polygon order — is
    the plan the run table was composed with
    (:class:`~repro.cache.prepared.TileCoverage`); a statement only runs
    it (:meth:`~repro.core.aggregates.Aggregate.reduce_coverage`): per
    channel one ``reduceat`` per piece, one per polygon segment and one
    combine — no sort, no gather, no loop over polygons.  The exact
    kernel's runs stop short of every boundary pixel, so a scattered
    framebuffer and a cached channel — which holds every row, boundary
    pixels included — are read alike.  A delta's windowed statement
    passes the window's own table (:meth:`_Window.table`): each run is
    the same reduction over the same values, wherever they sit.
    """
    start = time.perf_counter()
    aggregate = member.aggregate
    for ch, values in aggregate.reduce_coverage(channels, coverage).items():
        slots = partial.accumulators[ch]
        slots[coverage.pids] = aggregate.combine(slots[coverage.pids], values)
    elapsed = time.perf_counter() - start
    partial.stats.processing_s += elapsed
    partial.stats.polygon_pass_s += elapsed


# ----------------------------------------------------------------------
# The tile loop
# ----------------------------------------------------------------------
def run_tiles(
    kernel: TileKernel,
    backend: ExecutionBackend,
    session,
    member: TileMember,
    points: PointDataset | ResidentPointSet | Callable[[], Iterator],
    columns: tuple[str, ...],
    stats: ExecutionStats,
    *,
    keep_fbo: bool = False,
) -> TileRun:
    """Route → dispatch → ordered merge, for one query.

    How the tiles get their points follows the input.  A point source (a
    dataset, or a device-resident set) is routed once — looked up in and
    stored to the session — and every tile reads only its own rows.  A
    stream (a zero-argument callable returning an iterator of chunks) is
    scanned by every tile for itself: one pass over the source per tile,
    one chunk alive at a time, nothing held beyond it but the tile's
    boundary matches until its fold — ``stats.extra["partition"]`` reads
    ``scan``.  ``stats`` is the query's: merged tile work, the routing
    cost and how the dispatch ran are recorded into it.  Prepared pieces
    the tasks built are installed into the member's artifact here, on the
    caller's side of any process boundary, so a session warms under
    every backend.
    """
    tiles = member.prepared.tiles
    retain = session is not None
    # Captured before dispatch: worker threads and processes have no
    # ambient tracer, so each tile task records into its own (shipped
    # home in the partial).
    tracing = trace.active() is not None
    stream = callable(points)
    fbo_bytes, parallelism = statement_footprint(
        kernel, backend.workers, tiles, member.aggregate, columns,
        None if stream else points,
    )
    per_tile = guard = channels = None
    if stream:
        stats.extra["partition"] = "scan"
    else:
        # A routing the resident pool could be fed from lives in shared
        # memory; the backend says when that is (never for one tile).
        shared = isinstance(backend, ProcessBackend) and (
            backend.resident_capable(len(tiles), parallelism)
        )
        per_tile, guard, channels = _partition(
            kernel, shared, session, member, points, columns, fbo_bytes,
            stats,
        )
    # Whether the tiles read cached channels: all of them, or none.
    cached = channels is not None
    key = _answer_key(member, guard)
    reuse = pairs = None
    if key is not None and not keep_fbo and not cached:
        reuse = member.prepared.base_answers(key)
    if guard is not None and kernel.exact and reuse is None:
        # The boundary join's record: a delta's windowed rows bypass it.
        pairs = member.prepared.answers.pairs(guard[0], guard[1])

    def task(tile_idx: int) -> TilePartial:
        chunks = per_tile[tile_idx] if per_tile is not None else scan_tile(
            points(), tiles[tile_idx], columns, kernel.device,
            fbo_bytes[tile_idx],
        )
        return run_tile(
            tile_idx, kernel, member, columns, chunks,
            retain=retain, tracing=tracing, keep_fbo=keep_fbo,
            reuse=None if reuse is None else reuse[tile_idx],
            channels=None if channels is None else channels[tile_idx],
            pairs=pairs,
        )

    # ``concurrent`` marks that child (tile) spans may overlap in wall
    # time, so their durations can legitimately sum past the parent's.
    with trace.span("tiles", concurrent=backend.workers > 1):
        partials = None
        try:
            # (Resident workers cannot see the parent's cached channels.)
            if per_tile is not None and not keep_fbo and not cached:
                partials = _resident_dispatch(
                    kernel, backend, member, columns, per_tile, retain,
                    tracing, parallelism, reuse, pairs,
                )
            if partials is None:
                partials = backend.run_tasks(
                    [(lambda idx=idx: task(idx))
                     for idx in range(len(tiles))],
                    parallelism=parallelism,
                )
        finally:
            # A raised error's traceback holds this frame: it must not
            # hold the routed batches, and with them the routing's
            # shared-memory leases, for as long as the error lives.
            per_tile = None
        if backend.last_pool_event is not None:
            stats.extra["pool"] = backend.last_pool_event
        accumulators = new_accumulators(member.polygons, member.aggregate)
        # Tile-index order whatever order the tasks finished in — with
        # identity-started partials, the determinism anchor.
        for partial in partials:
            _merge_partial(partial, member, accumulators, stats, pairs)
    if key is not None:
        member.prepared.answers.record(
            key, guard[1], [partial.accumulators for partial in partials]
        )
    if reuse is not None:
        stats.extra["polygons_recomputed"] = (
            _recomputed(member), len(member.polygons)
        )
    if pairs is not None:
        built = any(partial.pairs is not None for partial in partials)
        stats.extra["pairs"] = "built" if built else "recorded"
    stats.extra["pyramid"] = "hit" if cached else "cold"
    if cached:
        # Every row a cached statement reads is a boundary-pixel row.
        stats.extra["pyramid_fallback_points"] = stats.points_processed
    return TileRun(
        accumulators, [partial.payload for partial in partials],
        not stream or any(partial.saw_points for partial in partials),
    )


def _answer_key(member: TileMember, guard: tuple | None) -> tuple | None:
    """What a tile's result slots depend on besides the artifact (which
    names the engine, its kernel and tile size): the points (the
    session's content guard, ``guard[0]``), the filter, the aggregate's
    blend and channels — not the device's batch cut, which reaches no
    bit.  ``None`` — nothing recorded, nothing reused — without a
    session's guard (a stream, a session-less engine) and for a fused
    group's :class:`~repro.core.multi.MultiAggregate`."""
    aggregate = member.aggregate
    if guard is None or isinstance(aggregate, MultiAggregate):
        return None
    return (
        guard[0], filter_key(member.filters), type(aggregate).__name__,
        aggregate.blend, tuple(aggregate.channels.items()),
    )


def _recomputed(member: TileMember) -> int:
    """How many polygons a windowed statement recomputed on some tile:
    the union of the tiles' ``near``, every polygon for a tile that
    ran in full (one that was not patched)."""
    near = member.prepared.delta.near
    tiles = range(len(member.prepared.tiles))
    if any(near.get(idx) is None for idx in tiles):
        return len(member.polygons)
    return len(np.unique(np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [near[idx] for idx in tiles]
    )))


def route_points(session, points, canvas, tiles, max_resolution: int):
    """``points`` routed over ``canvas``'s tiles: the session's entry, or
    a fresh routing pass.  Returns ``(routing, token, hit)`` — ``token``
    keys the session's entry (``None`` without a session)."""
    routing = token = None
    if session is not None:
        token = routing_token(canvas, max_resolution)
        routing = session.partition_lookup(points, token)
    if routing is not None:
        return routing, token, True
    routing = route_chunk(points, canvas, tiles, max_resolution)
    metrics.counter("partition_chunks")
    metrics.counter("partition_points", len(points))
    if routing.duplicates:
        metrics.counter("partition_seam_duplicates", routing.duplicates)
    return routing, token, False


def _partition(
    kernel: TileKernel,
    shared: bool,
    session,
    member: TileMember,
    points,
    columns: tuple[str, ...],
    fbo_bytes: list[int],
    stats: ExecutionStats,
) -> tuple[list, tuple | None, list | None]:
    """What each tile task of this query consumes, routed once, the
    session's content guard of ``points`` (``None`` without a session)
    and, over a prewarmed routing, each tile's cached channels.

    The point source's routing — tile and flat pixel per row
    (:mod:`repro.exec.partition` has the bit-equality argument) — is
    looked up or computed, then cut into this query's device batches, so
    tile tasks start at the filter mask instead of re-projecting the
    input once per tile and per query.  With a session the routing is
    cached by point source and canvas frame — never the polygons, the
    columns or the batch size, so a rezoning edit loop and every
    statement of a dashboard keep hitting one entry — and, when
    ``shared`` (a dispatch the resident pool could take), its columns
    live in shared memory, the form resident dispatch consumes.  A
    routing that was prewarmed hands an exact statement its point
    framebuffers too (:func:`_cached_channels`).
    """
    tiles = member.prepared.tiles
    with trace.span("partition", tiles=len(tiles)):
        start = time.perf_counter()
        routing, token, hit = route_points(
            session, points, member.prepared.canvas, tiles,
            kernel.max_resolution,
        )
        channels = None
        if kernel.exact and hit and routing.prewarmed:
            channels = _cached_channels(
                session, points, token, routing, kernel, member, columns
            )
        # Shared with the session's entry only: this very query already
        # reads the segments (and is eligible for resident dispatch),
        # and every later hit reuses them across the process boundary
        # zero-copy.  The leases go with the entry (cache eviction,
        # invalidate, session GC).
        per_tile = routing.per_tile(
            points, columns, kernel.device, fbo_bytes,
            shared and session is not None and channels is None,
        )
        guard = None
        if session is not None:
            # After the cut, hit or miss: the cap sees this query's copies.
            guard = session.partition_store(points, token, routing)
        elapsed = time.perf_counter() - start
    stats.extra["partition"] = "cached" if hit else "on"
    stats.extra["partition_duplicates"] = routing.duplicates
    stats.partition_s += elapsed
    return per_tile, guard, channels


def _cached_channels(
    session,
    points,
    token: tuple,
    routing,
    kernel: TileKernel,
    member: TileMember,
    columns: tuple[str, ...],
) -> list[dict] | None:
    """Every tile's point framebuffers of a statement over a prewarmed
    routing, read from the session's cache — or ``None`` when the
    session cannot hold them and the statement scatters as usual.

    A channel — one flat float64 array over the canvas, tile after tile
    — is keyed by what a point framebuffer depends on beyond the routing:
    the blend, the column and the filter.  What the session lacks is
    built here, parent-side (tile tasks only read), by the point pass
    itself with no boundary stage and no batch cuts, so per pixel it
    holds the same additions in the same row order as a framebuffer
    scattered for any polygon set — whose boundary pixels the polygon
    pass never reads.
    """
    aggregate, tiles = member.aggregate, member.prepared.tiles
    keys = {
        ch: (aggregate.blend, col, filter_key(member.filters))
        for ch, col in aggregate.channels.items()
    }
    offsets = np.cumsum([0] + [tile.num_pixels for tile in tiles])

    def scatter() -> dict[str, np.ndarray]:
        plain = TileKernel(kernel.engine, exact=False, fbo_dtype=np.float64)
        fbos = [_tile_framebuffer(tile, aggregate, np.float64)
                for tile in tiles]
        for fbo, chunks in zip(fbos, routing.per_tile(
            points, columns, None, [0] * len(tiles)
        )):
            _point_pass(
                plain, member, columns, chunks, None, fbo, TilePartial(0)
            )
        return {
            ch: np.concatenate([fbo.channel(ch).ravel() for fbo in fbos])
            for ch in keys
        }

    flat = session.channels(points, token, keys, int(offsets[-1]) * 8, scatter)
    if flat is None:
        return None
    return [
        {ch: arr[lo:hi] for ch, arr in flat.items()}
        for lo, hi in zip(offsets, offsets[1:])
    ]


def _resident_dispatch(
    kernel: TileKernel,
    backend: ExecutionBackend,
    member: TileMember,
    columns: tuple[str, ...],
    per_tile: list[list],
    retain: bool,
    tracing: bool,
    parallelism: int | None,
    reuse: list | None,
    pairs: dict | None,
) -> list[TilePartial] | None:
    """Fan a query's routed tiles across the resident pool.

    The same tile task, named instead of closed over: the kernel, the
    artifact and the polygons travel once as a pickled state blob in
    shared memory (cached worker-side by content generation), the routed
    batches as shared-memory descriptors, a delta's base slots
    (``reuse``) and each tile's entry of the boundary join's record
    (``pairs``; a blob's artifact holds an empty book) by value, and the
    accumulators come back through a shared result buffer — a record a
    worker built, in its partial.  ``None`` when this dispatch
    cannot take that path — not a resident-enabled process backend, or a
    batch that is not shm-backed (pickling host chunks is the cost
    this path exists to remove) — and the caller dispatches closures
    instead, bit-identically.
    """
    if not isinstance(backend, ProcessBackend):
        return None
    num_tiles = len(per_tile)
    if not backend.resident_capable(num_tiles, parallelism):
        return None
    per_tile = [[chunk.shared for chunk in chunks] for chunks in per_tile]
    if any(chunk is None for chunks in per_tile for chunk in chunks):
        return None
    prepared, polygons = member.prepared, member.polygons
    channel_names = tuple(member.aggregate.channels)
    shape = (num_tiles, len(channel_names), len(polygons))
    # Content-generation token: prepared.version bumps on every artifact
    # mutation (including the parent-side installs of worker-built
    # pieces), so warming or editing rolls the blob — and with it the
    # state_key workers cache by.  The anchor tuple keeps both objects
    # alive while the entry is cached, so the id()s cannot be recycled.
    # The blob ships the kernel's device, which the artifact does not
    # name: by its planning inputs, as an id() could be reused after GC.
    device = kernel.device
    token = (
        "resident-state", id(prepared), prepared.version, id(polygons),
        None if device is None
        else (device.capacity_bytes, device.max_resolution),
    )

    def build_blob() -> bytes:
        return pickle.dumps(
            (kernel, prepared, polygons), protocol=pickle.HIGHEST_PROTOCOL
        )

    # One guard across blob/buffer/dispatch/read-back: a concurrent query
    # on the same shared backend serializes here instead of swapping the
    # result buffer out from under this one.
    with backend.resident_guard():
        state_key, state_ref = backend.resident_state(
            token, (prepared, polygons), build_blob
        )
        result_ref = backend.resident_result(shape)
        partials = backend.run_specs(
            [
                TileTaskSpec(
                    index=idx, state_key=state_key, state_ref=state_ref,
                    tile_idx=idx, aggregate=member.aggregate,
                    filters=member.filters, columns=columns,
                    chunks=tuple(per_tile[idx]), retain=retain,
                    tracing=tracing, result_ref=result_ref, slot=idx,
                    channel_names=channel_names,
                    reuse=None if reuse is None else reuse[idx],
                    pairs=None if pairs is None else (
                        {} if pairs.get(idx) is None else {idx: pairs[idx]}
                    ),
                )
                for idx in range(num_tiles)
            ],
            parallelism,
        )
        result = shm.view(result_ref)
        for partial in partials:
            # Copy out: the buffer is reused by the next dispatch.
            partial.accumulators = {
                ch: np.array(result[partial.tile_idx, ci])
                for ci, ch in enumerate(channel_names)
            }
    return partials


def _merge_partial(
    partial: TilePartial,
    member: TileMember,
    accumulators: dict[str, np.ndarray],
    stats: ExecutionStats,
    pairs: dict | None,
) -> None:
    """Fold one tile partial into the query's result and artifact — and
    the boundary join it built into the artifact's record, ``pairs``."""
    aggregate, prepared = member.aggregate, member.prepared
    for name, arr in partial.accumulators.items():
        accumulators[name] = aggregate.combine(accumulators[name], arr)
    # stats.merge sums numeric extras (boundary_pixels et al.) across
    # tiles by the type-based rules in ExecutionStats.
    stats.merge(partial.stats)
    # Counter/histogram increments a worker process made come home as a
    # delta dict; folding them here keeps the parent registry identical
    # to what an in-process backend would have recorded directly.
    if partial.metrics:
        metrics.REGISTRY.apply_delta(partial.metrics)
    # Shipped tile subtrees re-parent in tile-index order, so the trace
    # tree is deterministic across backends.
    trace.attach(partial.span)
    prepared.mark_composed(partial.tile_idx, **partial.built)
    if partial.pairs is not None:
        pairs.setdefault(partial.tile_idx, partial.pairs)


# ----------------------------------------------------------------------
# The engines that run it
# ----------------------------------------------------------------------
class RasterJoinEngine(SpatialAggregationEngine):
    """The accurate and bounded joins: one pipeline, two kernels.

    The padded canvas, the prepared artifact, the tile loop and its
    device footprint are shared.  A subclass supplies :attr:`kernel`
    (how its tile task behaves), ``prepared_spec``, ``_canvas`` (its
    canvas rule, unpadded) and what is its alone: a ``_prepare`` adding
    to this one's, the accurate join's prewarm, the bounded join's §5
    intervals.
    """

    #: Set by the subclass constructor.
    kernel: TileKernel
    #: Whether a statement also derives §5 result intervals (the bounded
    #: join's option; the tile loop then keeps the point framebuffers).
    compute_bounds = False

    @property
    def max_resolution(self) -> int:
        """Largest framebuffer side the device supports (the tile size)."""
        return self.kernel.max_resolution

    def _canvas(self, extent: BBox) -> Canvas:
        """The canvas this engine renders over ``extent``, unpadded."""
        raise NotImplementedError

    def _make_canvas(self, polygons: PolygonSet) -> Canvas:
        """Canvas over the polygon-set extent, padded by one pixel so
        points sitting exactly on the extent's max edges still land on
        the canvas instead of being clipped."""
        extent = polygons.bbox
        probe = self._canvas(extent)
        return self._canvas(
            extent.expanded(max(probe.pixel_width, probe.pixel_height))
        )

    def _prepare(
        self, polygons: PolygonSet, stats: ExecutionStats
    ) -> PreparedPolygons:
        """The prepared artifact for ``polygons`` — canvas, tile layout,
        triangulations, MBRs — built once, reused through the session."""
        prepared = self._prepared_state(polygons, self.prepared_spec(), stats)
        if prepared.canvas is None:
            prepared.canvas = self._make_canvas(polygons)
            prepared.tiles = list(prepared.canvas.tiles(self.max_resolution))
        prepared.ensure_triangles(polygons, stats)
        # Columnar MBRs feed the batched builders' vectorized per-tile
        # bin pass; built in the parent so tile tasks only read them.
        prepared.ensure_mbr_arrays(polygons)
        stats.extra["canvas"] = (prepared.canvas.width, prepared.canvas.height)
        return prepared

    def routing_warmth(self, points, polygons: PolygonSet) -> tuple:
        """Costing probe: ``(routed, prewarmed, recorded)`` — does the
        session hold ``points`` routed over the canvas these polygons
        derive, would a statement read cached channels through that
        routing, and would it replay a recorded boundary join?  (The
        last two are the exact kernel's alone.)

        Identity-keyed and hash-free (EXPLAIN calls it before the
        statement it explains runs); optimistic the same way the session's
        :meth:`~repro.cache.session.QuerySession.partition_warm` is.
        """
        if self.session is None:
            return False, False, False
        routed, prewarmed, recorded = self.session.partition_warm(
            points,
            routing_token(self._make_canvas(polygons), self.max_resolution),
            polygons, self.prepared_spec(),
        )
        exact = self.kernel.exact
        return routed, prewarmed and exact, recorded and exact

    def footprint(
        self, points, polygons: PolygonSet, aggregate: Aggregate,
        filters: FilterSet,
    ) -> Footprint:
        """The device footprint a statement over ``polygons`` runs by
        (:func:`statement_footprint`), as the probes see it."""
        return statement_footprint(
            self.kernel, self.backend.workers,
            list(self._make_canvas(polygons).tiles(self.max_resolution)),
            aggregate, self.required_columns(aggregate, filters), points,
        )

    def member(
        self,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> TileMember:
        """One query readied for the tile loop: its polygons prepared
        (cache outcome and build times recorded in ``stats``)."""
        with trace.span("prepare", polygons=len(polygons)):
            prepared = self._prepare(polygons, stats)
        return TileMember(prepared, polygons, aggregate, filters)

    def run_member(
        self,
        member: TileMember,
        points: PointDataset | ResidentPointSet | Callable[[], Iterator],
        stats: ExecutionStats,
        keep_fbo: bool = False,
    ) -> TileRun:
        """Run one readied query over ``points`` — a point source or a
        chunk stream (:func:`run_tiles`) — through the tile loop under
        this engine's kernel, backend and session."""
        self._record_execution_env(stats, len(member.prepared.tiles))
        return run_tiles(
            self.kernel, self.backend, self.session, member, points,
            self.required_columns(member.aggregate, member.filters), stats,
            keep_fbo=keep_fbo,
        )

    def _run(self, points, polygons, aggregate, filters, stats):
        member = self.member(polygons, aggregate, filters, stats)
        run = self.run_member(
            member, points, stats, keep_fbo=self.compute_bounds
        )
        values = aggregate.finalize(run.accumulators)
        intervals = None
        if self.compute_bounds:
            intervals = self._intervals(member, run, values, stats)
        return values, run.accumulators, intervals

    def execute_stream(self, chunk_source, polygons, aggregate=None,
                       filters=None) -> AggregationResult:
        """Streamed execution sharing the polygon-side work across chunks.

        Boundary masks, candidate lists and the polygon pass run once per
        tile; only the point pass runs per chunk (each chunk still flows
        through the device-batching path), and the boundary fold once per
        tile, after its last chunk — the paper's disk-resident structure,
        with the monolithic bits.  Every tile scans the stream for itself:
        ``chunk_source`` is invoked once per tile, at most one chunk of
        each pass is alive at a time, and nothing of the stream is routed
        ahead or cached (``stats.extra["partition"]`` reads ``scan``).
        Under a parallel backend tile workers may invoke (and iterate) it
        concurrently — each call must return an independent iterator (see
        :meth:`SpatialAggregationEngine.execute_stream`).
        """
        aggregate = aggregate or Count()
        filter_set = FilterSet.coerce(filters)
        stats = ExecutionStats(engine=self.name, batches=0, passes=0)
        with trace.query_scope(self.name) as root:
            member = self.member(polygons, aggregate, filter_set, stats)
            run = self.run_member(member, chunk_source, stats)
            if not run.saw_chunk:
                raise QueryError("chunk source produced no chunks")
            if stats.batches == 0:
                stats.batches = 1
            if root is not None:
                root.attrs.update(stats.as_span_attrs())
        self._checkpoint_session()
        return AggregationResult(
            values=aggregate.finalize(run.accumulators),
            channels=run.accumulators,
            stats=stats,
            trace=root,
        )
