"""The reusable prepared-state artifact behind a :class:`QuerySession`.

A :class:`PreparedPolygons` bundles every piece of engine state that is a
pure function of (polygon geometry, render configuration):

* the triangulations of every polygon (Table 1's preprocessing cost);
* the canvas layout and its device-sized viewport tiles;
* per-tile conservative boundary masks (the accurate engine's Boundary
  FBO) and, over the same pixels, the boundary PIP's candidate lists
  (:class:`TileCandidates`: which polygons may contain a point that
  landed on an outline pixel — read off the canvas, no second raster);
* per-tile, per-polygon coverage runs — ``[lo, hi)`` flat pixel
  intervals (the polygon-pass raster, the GeoBlocks-style cached
  aggregation footprint);
* the row-banded edge table the boundary PIP tests against;
* for the index-join baseline alone, the paper's polygon grid index.

The artifact is **composed from per-polygon units**
(:class:`PolygonUnit`): each polygon carries its own content
fingerprint, triangulation, per-tile outline pixels and per-tile
coverage runs, and what the engines consume of a tile is one record,
:class:`TileViews` — the boundary mask, the run table trimmed at that
mask and the candidate lists — a cheap deterministic *composition* of
those units (:meth:`PreparedPolygons.compose_views`, which the tile
task and the store's decode both call).  An artifact holds a tile's
record whole or not at all.  The split into units is what makes
single-polygon edits incremental: an edited set reuses every unchanged
polygon's unit verbatim and re-rasterizes only the changed ones (see
``docs/incremental_edits.md``), while the composed records stay
bit-identical to a from-scratch build by construction — composition
lays the per-polygon slices out in the same polygon order a direct
build emits them in.

An edit with stable polygon ids goes one step further: its tile views
are the base's, patched inside the edit's *window* ``W`` — the pixel
box of the pixels that enter or leave the edited polygons' outlines and
runs (:meth:`PreparedPolygons.patch_tile`).  Only the edited polygons and
those whose box meets ``W`` are recomposed, by the same three kernels,
and spliced back in polygon order.  That is exact: a polygon whose box misses ``W``
has no pixel whose mask bit changed, so its trimmed runs, and every
candidate row outside ``W``, are what a from-scratch compose gives.  A
tile ``W`` misses keeps the base's record; the edge table splices
the edited polygons' blocks into the base's
(:meth:`~repro.index.edge_table.EdgeTable.splice`).

Artifacts are populated lazily: an engine fills in exactly the fields its
algorithm needs, on first use, and later executions with the same polygon
set and configuration skip the rebuild.  All fields are derived
deterministically from the polygon content, so an artifact built by one
engine instance is valid for any other instance with the same spec.
There is one artifact shape: a session-less execution builds the same
unit-backed artifact and simply drops it afterwards.  Identities are the
polygons' own: a unit carries its polygon's ``fingerprint`` and the
session keys an artifact by its set's (:class:`~repro.geometry.polygon.
PolygonSet`), both computed once, when the frozen geometry was built.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro.geometry.polygon import Polygon, PolygonSet
from repro.geometry.triangulate import triangulate_polygon
from repro.index.edge_table import DEFAULT_ROWS, EdgeTable
from repro.index.grid import GridIndex, ragged_positions
from repro.obs import trace


#: A run starting more than this many values past every earlier run's
#: end begins a new piece of a run table's plan: four rows of a 1024²
#: canvas, so the uncovered canvas between pieces is never read.  Every
#: span from 1024 to 65536 cuts the ledger's prewarmed frames into the
#: same three pieces (two corner anchors and the window between them); a
#: span under one row's gap would pay a call per row.
_SPLIT_SPAN = 4096

#: A run starting in a new block of this many values begins a new piece
#: too: ``reduceat`` casts all of what it is handed, so a float32 channel
#: summed in float64 casts a few MB in cache, not the whole canvas into a
#: fresh array.  A cut between two runs never changes a run's bits, so
#: a float64 channel pays only a call per block more: one set of cuts
#: serves every channel.
_CAST_BLOCK = 1 << 18


class TileCoverage(NamedTuple):
    """One tile's coverage as the polygon pass reads it: a run table and
    the plan that reduces it.

    ``runs`` are ``[lo, hi)`` flat ``iy * width + ix`` intervals in
    polygon order (each polygon's ascending by ``lo``); ``pids`` are the
    polygons that own at least one run and ``starts[k]`` is where
    ``pids[k]``'s runs begin — so no segment is ever empty.  Two
    polygons that cover a pixel both list it (it counts for both).

    The plan is a pure function of the runs and the framebuffer's length
    ``n`` (:meth:`build`); a statement only runs it
    (:meth:`~repro.core.aggregates.Aggregate.reduce_coverage`):

    * ``bounds`` — the runs in stable ``lo`` order, relative to their
      piece's first start, so a piece's rows ``ravel()`` to the bounds
      its ``reduceat`` reads; a run ending at ``n`` (a bound
      ``reduceat`` rejects) is collapsed to its start;
    * ``pieces`` — ``(stop, read start, read stop)`` per piece: the
      rows up to ``stop`` over the values from the piece's first start
      to one past its furthest end (cut by :data:`_SPLIT_SPAN` and
      :data:`_CAST_BLOCK`);
    * ``last`` — ``(position in lo order, start)`` of each run ending at
      ``n``, reduced on its own;
    * ``rank`` — each run's position in ``lo`` order: the per-run
      results ``.take(rank)`` are in polygon order.

    Derived, never persisted or counted: composed with the tile's record
    and dropped with it.  The exact kernel's table is trimmed at the
    tile's boundary pixels (their points join through PIP, so no path
    ever reads them); the bounded kernel's is the units' runs as they
    are.
    """

    runs: np.ndarray
    pids: np.ndarray
    starts: np.ndarray
    bounds: np.ndarray
    pieces: np.ndarray
    last: np.ndarray
    rank: np.ndarray

    @classmethod
    def build(cls, runs: np.ndarray, pids: np.ndarray, starts: np.ndarray,
              n: int) -> "TileCoverage":
        """The table over a framebuffer of ``n`` values, with its plan:
        one stable sort of the runs by ``lo``, the rest linear."""
        order = np.argsort(runs[:, 0], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        bounds = runs.take(order, axis=0)
        lo, hi = bounds[:, 0], bounds[:, 1]
        cut = np.zeros(len(lo), dtype=bool)
        if len(lo):
            # A gap wider than the span past the previous run's end is a
            # cut when it is that wide past every earlier end, too; so is
            # the first run past each block boundary the starts cross.
            gaps = np.flatnonzero(lo[1:] - hi[:-1] > _SPLIT_SPAN) + 1
            reach = np.maximum.accumulate(
                np.maximum.reduceat(hi, np.append(0, gaps))
            )
            cut[gaps[lo[gaps] > reach[:-1] + _SPLIT_SPAN]] = True
            cut[np.searchsorted(lo, _CAST_BLOCK * np.arange(
                1, lo[-1] // _CAST_BLOCK + 1
            ))] = cut[0] = True
        first = np.flatnonzero(cut)
        stop = np.append(first, len(lo))[1:]
        read = lo[first]
        pieces = np.stack([
            stop, read, np.minimum(np.maximum.reduceat(hi, first) + 1, n)
        ], axis=1)
        last = np.flatnonzero(hi == n)
        last = np.stack([last, lo[last]], axis=1)
        hi[last[:, 0]] = last[:, 1]
        offset = np.repeat(read, stop - first)
        lo -= offset
        hi -= offset
        return cls(runs, pids, starts, bounds, pieces, last, rank)


class TileCandidates(NamedTuple):
    """One tile's boundary-PIP candidates: a CSR over boundary pixels.

    ``pixels`` are the tile's boundary-mask pixels as ascending flat
    indices; the polygons that may contain a point on ``pixels[r]`` are
    ``pids[starts[r]:starts[r + 1]]``, ascending and without repeats (a
    repeated pair would aggregate twice): those with an outline pixel or
    a coverage fragment there.  No other polygon can — a pixel its
    outline crosses is in the conservative outline raster, a pixel
    wholly inside it has its centre inside, so the top-left-rule raster
    lists it (``docs/rasterization.md``).
    """

    pixels: np.ndarray
    starts: np.ndarray
    pids: np.ndarray


class TileViews(NamedTuple):
    """A kernel's polygon side of one tile, one record over the same
    pixels: the outline mask, the run table trimmed at it, and the
    boundary PIP's candidates — the run table alone, untrimmed, for the
    bounded kernel.  Composed whole (:meth:`PreparedPolygons.
    compose_views`) and installed whole (:meth:`PreparedPolygons.
    mark_composed`): an artifact holds a tile's record or nothing of it."""

    boundary: np.ndarray | None
    coverage: TileCoverage
    candidates: TileCandidates | None


class DeltaBase(NamedTuple):
    """What a delta-derived artifact borrows from its base while it
    still has tiles to compose: the base's units at the edited ids (the
    departing geometry's slices), its per-tile views and its edge table.
    Held only for an edit with stable polygon ids."""

    departed: dict
    views: dict
    edge_table: EdgeTable | None


#: Statement keys whose answers one artifact keeps, least recently
#: used beyond: a dashboard's statements over a zoning and its strokes.
ANSWER_KEYS = 8


class AnswerBook:
    """The per-tile answers of the statements one session-held artifact
    answered: per key, each tile's result slots (``{channel: one value
    per polygon}``, as the ordered merge receives them) — and, under
    their own keys, the boundary joins its statements ran (:meth:`pairs`).

    A key is everything a tile's slots depend on besides the artifact —
    the point guard, the filter and the aggregate
    (:func:`repro.core.tiles._answer_key`) — so a delta derived
    from this artifact may take the slots of every polygon its edit
    cannot change.  Derived: never persisted, counted or pickled (a copy
    across a process boundary is empty), at most :data:`ANSWER_KEYS`
    keys, and cleared when the session drops the artifact.  Each entry
    holds the frozen columns its guard names by ``id``, so no other
    array can take one of those ids while it lives.
    """

    __slots__ = ("_entries", "_lock")

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> list | None:
        """Every tile's slots under ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def record(self, key: tuple, pins: tuple, per_tile: list) -> None:
        """Keep ``per_tile`` under ``key`` (``pins``: the frozen columns
        the key names by ``id``)."""
        with self._lock:
            self._entries[key] = (pins, per_tile)
            self._touch(key)

    def _touch(self, key: tuple) -> None:
        self._entries.move_to_end(key)
        while len(self._entries) > ANSWER_KEYS:
            self._entries.popitem(last=False)

    def pairs(self, guard: tuple, pins: tuple | None = None) -> dict | None:
        """The boundary join's record for a point source (its content
        guard): one entry over every tile, ``{tile: (rows, matched,
        pids)}`` (:func:`repro.core.tiles._point_pass`), whatever the
        batch cut.  With ``pins`` an absent entry starts empty and the
        entry is touched; without, nothing is (EXPLAIN's probe)."""
        key = ("pairs", guard)
        if pins is None:
            entry = self._entries.get(key)
            return None if entry is None else entry[1]
        with self._lock:
            entry = self._entries.setdefault(key, (pins, {}))
            self._touch(key)
        return entry[1]

    @property
    def pairs_nbytes(self) -> int:
        """Bytes of the boundary joins recorded here."""
        with self._lock:
            books = [book for key, (_, book) in self._entries.items()
                     if key[0] == "pairs"]
        return sum(
            arr.nbytes for book in books for record in list(book.values())
            for arr in record
        )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """How many statements' answers are kept (records aside)."""
        return sum(key[0] != "pairs" for key in list(self._entries))

    def __reduce__(self):
        return AnswerBook, ()


class Delta(NamedTuple):
    """How an artifact was derived from a sibling: the polygon ids left
    to rebuild, the base it patches its views from (``None`` once every
    tile is composed, or when the edit moved ids), per tile the polygons
    whose answers the edit can change there (:meth:`PreparedPolygons.
    patch_tile`'s ``near``, kept when the base views go) and the base's
    :class:`AnswerBook` (``None`` when ids moved)."""

    dirty: list
    base: DeltaBase | None
    near: dict
    answers: AnswerBook | None


class PolygonUnit:
    """Per-polygon prepared state: everything derived from one polygon.

    Every field is a pure function of (this polygon's geometry, the
    shared frame — the canvas and its tile layout), never of the other
    polygons, which is what makes units reusable across edits of the
    rest of the set — and every one is something an edit must re-derive,
    a store encode and a budget count:

    * ``triangles`` — this polygon's triangulation;
    * ``boundary[tile_idx]`` — ``(ix, iy)`` outline pixels on that tile
      (the polygon's contribution to the tile's boundary mask);
    * ``coverage[tile_idx]`` — the pixels this polygon covers on that
      tile as a ``(k, 2)`` array of ``[lo, hi)`` flat ``iy * width +
      ix`` runs, ascending (:func:`~repro.graphics.raster_batch.
      coverage_by_polygon`).

    A tile key being present means the tile was built for this unit —
    possibly with empty arrays (the polygon does not touch the tile).
    """

    __slots__ = ("fingerprint", "bbox", "triangles", "boundary", "coverage")

    def __init__(self, fingerprint: str, bbox: tuple) -> None:
        self.fingerprint = fingerprint
        #: (xmin, ymin, xmax, ymax) of the polygon, recorded so an edit
        #: can tell which tiles the arriving geometry may touch.
        self.bbox = bbox
        #: the polygon's ``(t, 3, 2)`` triangulation, or None until built
        self.triangles: np.ndarray | None = None
        self.boundary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.coverage: dict[int, np.ndarray] = {}

    def clone(self) -> "PolygonUnit":
        """A unit sharing this one's (immutable) arrays but owning its
        tile dicts, so a derived artifact can build further tiles
        without mutating its sibling."""
        other = PolygonUnit(self.fingerprint, self.bbox)
        other.triangles = self.triangles
        other.boundary = dict(self.boundary)
        other.coverage = dict(self.coverage)
        return other


class PreparedPolygons:
    """Lazily-populated prepared state for one (polygon set, config) pair.

    Constructed from its polygon set, the artifact always owns one
    :class:`PolygonUnit` per polygon, identified by that polygon's
    ``fingerprint``.  ``key`` is ``(polygons.fingerprint, *engine_spec)``
    when the artifact lives in a :class:`~repro.cache.session.QuerySession`;
    an engine running without a session passes none and drops the
    artifact after the query.
    """

    __slots__ = (
        "key",
        "canvas",
        "tiles",
        "triangles",
        "grid",
        "views",
        "mbr_arrays",
        "edge_table",
        "units",
        "source_bbox",
        "delta",
        "answers",
        "version",
        "triangulation_s",
        "uses",
    )

    def __init__(self, polygons: PolygonSet, key: tuple | None = None) -> None:
        self.key = key
        self.canvas = None
        self.tiles: list | None = None
        self.triangles: list[np.ndarray] | None = None
        #: the index-join baseline's polygon grid, no other engine's:
        #: derived, rebuilt after a load, never persisted or counted.
        self.grid: GridIndex | None = None
        #: tile index -> :class:`TileViews`, composed from the units:
        #: only the boundary mask is counted, nothing of it persisted
        self.views: dict[int, TileViews] = {}
        #: polygon MBRs as (xmin, xmax, ymin, ymax) column arrays
        self.mbr_arrays: tuple[np.ndarray, ...] | None = None
        #: flat edge soup in row bands — what the boundary PIP tests
        #: candidate pairs against.  Set-level, derived, never
        #: persisted; see :meth:`ensure_edge_table`.
        self.edge_table: EdgeTable | None = None
        #: one unit per polygon, in polygon order
        self.units: list[PolygonUnit] = [
            PolygonUnit(poly.fingerprint, _bbox_tuple(poly))
            for poly in polygons
        ]
        #: (xmin, ymin, xmax, ymax) of the set at build time — the frame
        #: guard: a delta reuse is only valid when the edited set spans
        #: the same extent (same canvas).
        self.source_bbox: tuple = _bbox_tuple(polygons)
        #: the :class:`Delta` this artifact was derived by (``None`` for
        #: an artifact that was not derived from a sibling)
        self.delta: Delta | None = None
        #: the statements' per-tile answers over this artifact
        #: (:class:`AnswerBook`): derived, never persisted or counted
        self.answers = AnswerBook()
        #: bumped on every mutation; part of the content signature so
        #: sessions re-measure nbytes only when something changed.
        self.version = 0
        self.triangulation_s = 0.0
        self.uses = 0

    # ------------------------------------------------------------------
    # Unit bookkeeping
    # ------------------------------------------------------------------
    @classmethod
    def derive_from(
        cls,
        base: "PreparedPolygons",
        key: tuple,
        polygons: PolygonSet,
    ) -> "PreparedPolygons":
        """A new artifact for an *edited* set, reusing the base's units.

        Unchanged polygons (matched by per-polygon fingerprint) adopt
        clones of the base units — triangulation, outline pixels and
        coverage all carry over.  Changed and added polygons get empty
        units; the engines rebuild exactly those.  When polygon ids are
        stable (no insert, delete or reorder: the composed views encode
        pids positionally) the artifact keeps a :class:`DeltaBase` and
        each tile's views are the base's patched inside the edit's
        window ``W`` (:meth:`patch_tile`): a polygon whose box misses
        ``W`` has no pixel whose mask bit changed, so outside ``W``
        nothing moves.  The tile task rasterizes the edited polygons and
        patches — a tile no pixel of the edit reaches takes the base's
        views, the same objects — or, ids moved or the base lacking the
        tile's views, composes from the units as a cold build does.
        """
        entry = cls(polygons, key)
        entry.canvas = base.canvas
        entry.tiles = base.tiles

        # Match new polygons to base units by content fingerprint; the
        # unmatched keep the empty unit the constructor gave them.
        pool: dict[str, list[int]] = {}
        for pid, unit in enumerate(base.units):
            pool.setdefault(unit.fingerprint, []).append(pid)
        units = entry.units
        dirty: list[int] = []
        stable = len(units) == len(base.units)
        for pid, poly in enumerate(polygons):
            matches = pool.get(poly.fingerprint)
            if matches:
                src = matches.pop(0)
                units[pid] = base.units[src].clone()
                stable = stable and src == pid
            else:
                dirty.append(pid)
        patch = None
        if stable and base.tiles is not None:
            patch = DeltaBase(
                {pid: base.units[pid] for pid in dirty}, base.views,
                base.edge_table,
            )
        entry.delta = Delta(
            dirty, patch, {}, base.answers if patch else None
        )
        entry.version += 1
        return entry

    # ------------------------------------------------------------------
    # Lazy builders (each runs at most once per artifact)
    # ------------------------------------------------------------------
    def ensure_triangles(self, polygons: PolygonSet, stats=None) -> list:
        """Triangulate every polygon once; later calls are free.

        Only polygons whose unit lacks a triangulation are rebuilt — the
        incremental path after an edit.
        """
        if self.triangles is None:
            start = time.perf_counter()
            for pid, unit in enumerate(self.units):
                if unit.triangles is None:
                    unit.triangles = triangulate_polygon(polygons[pid])
            self.triangles = [unit.triangles for unit in self.units]
            self.triangulation_s = time.perf_counter() - start
            if stats is not None:
                stats.triangulation_s += self.triangulation_s
            self.version += 1
        return self.triangles

    def ensure_grid(
        self,
        polygons: PolygonSet,
        resolution: int,
        assignment: str,
        stats=None,
    ) -> GridIndex:
        """The index-join baseline's polygon grid, built once; later
        calls are free.  Set-level and derived like the edge table: a
        reloaded or delta-derived artifact builds it again."""
        if self.grid is None:
            self.grid = GridIndex(polygons, resolution, assignment)
            if stats is not None:
                stats.index_build_s += self.grid.build_seconds
        return self.grid

    def ensure_edge_table(
        self, polygons: PolygonSet, rows: int = DEFAULT_ROWS
    ) -> EdgeTable:
        """Build the boundary PIP's edge table once; later calls are free.

        ``rows`` bands over the y-range of the artifact's own MBR
        columns, which also gate the pair test.  A pure function of
        (geometry, ``rows``): a reloaded artifact rebuilds it
        bit-identically, and a delta with stable ids splices its edited
        polygons' blocks into the base's table — the same frame gives
        the same blocks, so the same bits.
        """
        if self.edge_table is None:
            mbrs = self.ensure_mbr_arrays(polygons)
            base = self.delta.base if self.delta is not None else None
            with trace.span("edge-table", polygons=len(polygons)):
                if base is not None and base.edge_table is not None:
                    self.edge_table = base.edge_table.splice(
                        polygons, mbrs, rows, self.delta.dirty
                    )
                else:
                    self.edge_table = EdgeTable(polygons, mbrs, rows)
            self.version += 1
        return self.edge_table

    def ensure_mbr_arrays(self, polygons: PolygonSet) -> tuple[np.ndarray, ...]:
        """Columnar polygon MBRs for vectorized filter steps."""
        if self.mbr_arrays is None:
            boxes = [p.bbox for p in polygons]
            self.mbr_arrays = (
                np.asarray([b.xmin for b in boxes]),
                np.asarray([b.xmax for b in boxes]),
                np.asarray([b.ymin for b in boxes]),
                np.asarray([b.ymax for b in boxes]),
            )
            self.version += 1
        return self.mbr_arrays

    # ------------------------------------------------------------------
    # Per-tile composition
    # ------------------------------------------------------------------
    def unit_slices(self, field: str, tile_idx: int) -> dict:
        """``{pid: this tile's slice}`` of ``field`` (``"boundary"`` /
        ``"coverage"``) for the units that hold one — a snapshot: a
        tile task builds what it lacks and composes from the completed
        dict alone, whatever another query installs meanwhile."""
        held = {}
        for pid, unit in enumerate(self.units):
            pixels = getattr(unit, field).get(tile_idx)
            if pixels is not None:
                held[pid] = pixels
        return held

    @staticmethod
    def compose_boundary(tile, outlines: dict) -> np.ndarray:
        """OR every polygon's outline pixels (``{pid: (ix, iy)}``) into
        one tile mask: order-free, so a direct render of the whole set."""
        mask = np.zeros((tile.height, tile.width), dtype=bool)
        for ix, iy in outlines.values():
            mask[iy, ix] = True
        return mask

    @staticmethod
    def compose_coverage(
        slices: dict, boundary: np.ndarray | None = None
    ) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
        """Lay the polygons' runs (``{pid: (k, 2) runs}``) end to end,
        in polygon order, each split at the tile's ``boundary`` pixels
        (ascending flat indices; ``None`` for the bounded kernel, which
        has no mask) — the paper's discarded boundary fragments (§4.3,
        step 3), at O(runs) cost.

        Returns the run table's ``(runs, pids, starts)`` — what
        :meth:`TileCoverage.build` plans — and the ``(pixel, polygon)``
        pairs the split removed: every coverage fragment on a boundary
        pixel, which is half of what :meth:`compose_candidates` reads.
        A polygon all of whose pixels are boundary pixels owns no run and
        is left out of ``pids``: its answer is the PIP path's alone.
        """
        pids = sorted(slices)
        runs = np.concatenate(
            [np.zeros((0, 2), dtype=np.int64)] + [slices[pid] for pid in pids]
        )
        owner = np.repeat(
            np.asarray(pids, dtype=np.int64), [len(slices[pid]) for pid in pids]
        )
        cut = cut_owner = np.zeros(0, dtype=np.int64)
        if boundary is not None:
            # Run i holds ``boundary[first[i]:first[i] + inside[i]]``: one
            # ragged expansion lists every cut, and each cut ``c`` turns
            # ``[lo, hi)`` into ``[lo, c), [c + 1, hi)``.
            first, end = np.searchsorted(boundary, runs.ravel()).reshape(-1, 2).T
            inside = end - first
            cut = boundary[ragged_positions(first, inside)]
            cut_owner = np.repeat(owner, inside)
            before_hi = np.repeat(2 * np.arange(len(runs)) + 1, 2 * inside)
            split = np.insert(
                runs.ravel(), before_hi, np.column_stack([cut, cut + 1]).ravel()
            ).reshape(-1, 2)
            keep = np.flatnonzero(split[:, 1] > split[:, 0])
            runs = split.take(keep, axis=0)
            owner = np.repeat(owner, inside + 1).take(keep)
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        return (runs, owner[first], first), (cut, cut_owner)

    @staticmethod
    def compose_candidates(
        tile, outlines: dict, on_boundary: tuple[np.ndarray, np.ndarray]
    ) -> TileCandidates:
        """The boundary PIP's lookup for one tile, read off the canvas:
        every (boundary pixel, polygon) pair with an outline pixel
        (``outlines``, every polygon's) or a coverage fragment
        (``on_boundary``, what :meth:`compose_coverage` trimmed) there,
        sorted by pixel then polygon and de-duplicated — a polygon
        usually has both on a pixel.  Over a subset of the polygons it
        gives their pairs alone (what :meth:`patch_tile` splices)."""
        pids = sorted(outlines)
        flat = [iy * tile.width + ix for ix, iy in map(outlines.get, pids)]
        pixel = np.concatenate([on_boundary[0], *flat])
        owner = np.concatenate([
            on_boundary[1], np.repeat(pids, [len(pix) for pix in flat]),
        ])
        # Sorted, then adjacent repeats dropped (several times faster
        # than ``np.unique``'s hash pass at these sizes).
        span = pids[-1] + 1 if pids else 1
        pairs = np.sort(pixel * span + owner)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        pixels, owners = np.divmod(pairs, span)
        first = np.flatnonzero(np.diff(pixels, prepend=-1))
        starts = np.append(first, len(pairs))
        return TileCandidates(pixels[first], starts, owners)

    @classmethod
    def compose_views(cls, tile, runs: dict,
                      outlines: dict | None) -> TileViews:
        """One tile's whole record from every polygon's slices of it:
        ``runs`` (``{pid: runs}``) and ``outlines`` (``{pid: (ix,
        iy)}``; ``None`` for the bounded kernel, whose record is the
        untrimmed run table alone).  The mask is the outlines ORed, the
        run table is the runs split at its pixels, and the candidates are
        the outlines plus what the split cut out."""
        boundary = candidates = None
        if outlines is None:
            table = cls.compose_coverage(runs)[0]
        else:
            boundary = cls.compose_boundary(tile, outlines)
            table, cut = cls.compose_coverage(runs, np.flatnonzero(boundary))
            candidates = cls.compose_candidates(tile, outlines, cut)
        coverage = TileCoverage.build(*table, tile.num_pixels)
        return TileViews(boundary, coverage, candidates)

    def mark_composed(self, tile_idx: int, views: TileViews | None = None,
                      unit_boundary=None, unit_coverage=None, near=None,
                      base_views=False) -> None:
        """Install what a tile task built (parent side of the merge): the
        tile's record, as ``unit_boundary`` / ``unit_coverage`` freshly
        rasterized per-polygon outline pixels (``{pid: (ix, iy)}``) and
        coverage runs (``{pid: runs}``), and a patched tile's ``near``
        (:meth:`patch_tile`).  ``base_views`` marks a delta's tile its
        edit's window missed: the record is the base's own object,
        installed from this side's base, so a task in another process
        never leaves the session a second copy."""
        delta = self.delta
        if near is not None and delta is not None:
            delta.near.setdefault(tile_idx, near)
        if base_views and delta is not None and delta.base is not None:
            views = delta.base.views.get(tile_idx)
        for field, slices in (("boundary", unit_boundary),
                              ("coverage", unit_coverage)):
            for pid, value in (slices or {}).items():
                getattr(self.units[pid], field)[tile_idx] = value
            if slices:
                self.version += 1
        if views is not None and tile_idx not in self.views:
            self.views[tile_idx] = views
            self.version += 1
        if (self.delta is not None and self.delta.base is not None
                and len(self.views) == len(self.tiles)):
            # Every tile composed: nothing left to patch from the base.
            self.delta = self.delta._replace(base=None)

    # ------------------------------------------------------------------
    # Patching a delta's views from its base
    # ------------------------------------------------------------------
    def patch_tile(self, tile, tile_idx: int, runs: dict,
                   outlines: dict | None = None) -> tuple | None:
        """One tile's :class:`TileViews` for a delta, built from its
        base's record, and ``near``: the polygons recomposed, ascending
        — ``None`` when the base has no record of the tile
        (:func:`_window`), and the caller composes.

        ``runs`` / ``outlines`` are every polygon's slices of the tile
        (``outlines`` ``None`` for the bounded kernel, whose run table
        is untrimmed and which has neither mask nor candidates).  When
        the window misses the tile the record is the base's object and
        ``near`` is the edited polygons with a pixel there.  Otherwise
        the edited polygons and those whose box meets ``W`` are
        recomposed — the mask inside ``W``, their runs trimmed at the
        new boundary, their candidate rows inside ``W`` — and spliced
        into the base's views: exact, since no other polygon has a pixel
        in ``W``.  By the same argument a polygon outside ``near`` has
        the base's runs, candidate rows and edges, so its answer on the
        tile is the base's (``docs/incremental_edits.md``).
        """
        delta = self.delta  # one snapshot: a finished tile loop drops the base
        box = _window(delta, tile_idx, tile.width, runs, outlines)
        if box is None:
            return None
        held = delta.base.views[tile_idx]
        if box == ():
            # No pixel changed, but an edited polygon's PIP answers may
            # have wherever it lies: its edges moved.
            return held, np.asarray([
                pid for pid in delta.dirty if len(runs[pid])
                or outlines is not None and len(outlines[pid][0])
            ], dtype=np.int64)
        x0, y0, x1, y1 = box
        # The edited polygons always: their old slices leave.
        near = np.union1d(
            _boxes_meeting(self.pixel_boxes(tile), box), delta.dirty
        ).astype(np.int64)
        n = tile.num_pixels
        if outlines is None:
            table, _ = self.compose_coverage({pid: runs[pid] for pid in near})
            return TileViews(
                None, _splice_coverage(held.coverage, near, table, n), None
            ), near
        mask, candidates = held.boundary, held.candidates
        outlines = {pid: outlines[pid] for pid in near}
        inside = np.s_[y0:y1 + 1, x0:x1 + 1]
        mask = mask.copy()
        mask[inside] = self.compose_boundary(tile, outlines)[inside]
        # The boundary pixels: the base's outside W's rows, the mask's
        # within them.
        lo, hi = y0 * tile.width, (y1 + 1) * tile.width
        i0, i1 = np.searchsorted(candidates.pixels, (lo, hi))
        boundary = np.concatenate([
            candidates.pixels[:i0],
            np.flatnonzero(mask.reshape(-1)[lo:hi]) + lo,
            candidates.pixels[i1:],
        ])
        table, on_boundary = self.compose_coverage(
            {pid: runs[pid] for pid in near}, boundary
        )
        return TileViews(
            mask, _splice_coverage(held.coverage, near, table, n),
            _splice_candidates(
                candidates, self.compose_candidates(tile, outlines, on_boundary),
                tile.width, box,
            ),
        ), near

    def pixel_boxes(self, tile, pids=slice(None)) -> tuple:
        """``(x0, y0, x1, y1)`` arrays, inclusive: the pixel boxes on
        ``tile`` of the polygons ``pids`` — their MBRs', widened by a
        pixel for the conservative outline raster, so each holds every
        pixel its polygon has; not clipped to the tile."""
        xmin, xmax, ymin, ymax = (arr[pids] for arr in self.mbr_arrays)
        sx0, sy0 = np.floor(tile.to_screen(xmin, ymin))
        sx1, sy1 = np.floor(tile.to_screen(xmax, ymax))
        return sx0 - 1, sy0 - 1, sx1 + 1, sy1 + 1

    def base_answers(self, key: tuple) -> list | None:
        """Every tile's slots under ``key`` in the base's
        :class:`AnswerBook` — a delta with stable ids whose base answered
        the statement — or ``None``."""
        delta = self.delta
        if delta is None or delta.answers is None:
            return None
        return delta.answers.get(key)

    @property
    def rebuilt_polygons(self) -> int | None:
        """How many polygons this artifact had to rebuild, or ``None``
        when it was not produced by a delta derivation."""
        if self.delta is None:
            return None
        return len(self.delta.dirty)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def content_signature(self) -> tuple:
        """O(1) proxy for "has the artifact changed since I last looked".

        ``version`` bumps on every mutation routed through the artifact's
        methods; the structural fields guard the few legacy paths that
        poke dicts directly.  Equal signatures imply equal ``nbytes``, so
        sessions skip the (expensive) byte walk for unchanged entries.
        """
        return (
            self.version,
            self.canvas is not None,
            self.tiles is not None,
            self.triangles is not None,
            self.mbr_arrays is not None,
            self.edge_table is not None,
            len(self.views),
        )

    @property
    def nbytes(self) -> int:
        """Approximate artifact footprint (for capacity decisions).

        Triangulations and coverage runs are counted through the units
        (``triangles`` lists the same arrays); of the tiles' records only
        the boundary mask is.  Their run tables and candidate lists are
        left out: they are derived and never persisted, and a session
        takes an entry that measures more than its stored pair for one
        that must be written again.
        """
        # Snapshots: another query's tile loop may be installing views.
        total = sum(
            views.boundary.nbytes for views in list(self.views.values())
            if views.boundary is not None
        )
        if self.edge_table is not None:
            total += self.edge_table.nbytes
        if self.mbr_arrays is not None:
            total += sum(arr.nbytes for arr in self.mbr_arrays)
        for unit in self.units:
            if unit.triangles is not None:
                total += unit.triangles.nbytes
            total += sum(
                ix.nbytes + iy.nbytes
                for ix, iy in list(unit.boundary.values())
            )
            total += sum(runs.nbytes for runs in list(unit.coverage.values()))
        return total

    def __repr__(self) -> str:
        parts = []
        if self.triangles is not None:
            parts.append("triangles")
        if self.canvas is not None:
            parts.append("canvas")
        if self.views:
            parts.append(f"views x{len(self.views)}")
        if self.mbr_arrays is not None:
            parts.append("mbrs")
        if self.edge_table is not None:
            parts.append("edges")
        parts.append(f"units x{len(self.units)}")
        return f"PreparedPolygons({', '.join(parts)}, uses={self.uses})"


def _bbox_tuple(shape: Polygon | PolygonSet) -> tuple:
    box = shape.bbox
    return (box.xmin, box.ymin, box.xmax, box.ymax)


def _pixel_box(width: int, runs: list, outlines: list) -> tuple:
    """``(x0, y0, x1, y1)``, inclusive, of the pixels of ``runs``
    (``(k, 2)`` flat ``[lo, hi)`` runs, ascending) and ``outlines``
    (``(ix, iy)`` pairs) on a tile ``width`` pixels wide; ``()`` when
    they hold none.  A run that wraps into the next row spans the
    width."""
    xs, ys = [], []
    for part in runs:
        if len(part):
            lo, last = part[:, 0], part[:, 1] - 1
            ys += [lo[0] // width, last[-1] // width]
            if (lo // width != last // width).any():
                xs += [0, width - 1]
            else:
                xs += [(lo % width).min(), (last % width).max()]
    for ix, iy in outlines:
        if len(ix):
            xs += [ix.min(), ix.max()]
            ys += [iy.min(), iy.max()]
    if not ys:
        return ()
    return int(min(xs)), int(min(ys)), int(max(xs)), int(max(ys))


def _window(delta: Delta | None, tile_idx: int, width: int, runs: dict,
            outlines: dict | None = None) -> tuple | None:
    """The edit's window ``W`` on one tile: the ``(x0, y0, x1, y1)``
    pixel box (inclusive) of the pixels the edit changed there — those
    that enter or leave an edited polygon's runs or outline, its old
    slices against its new ones among ``runs`` / ``outlines``
    (``{pid: slice}``; a pid left out has none); ``()`` when no pixel
    changed, ``None`` when ``delta`` has no base record of the tile to
    patch.

    Outside ``W`` no mask bit changed, and neither did an edited
    polygon's runs, outline or coverage fragments: every view there is
    the base's."""
    base = delta.base if delta is not None else None
    held = None if base is None else base.views.get(tile_idx)
    if held is None:
        return None
    exact = held.boundary is not None
    changed_runs, changed_outlines = [], []
    empty = np.zeros(0, dtype=np.int64)
    for pid, unit in base.departed.items():
        old_runs = unit.coverage.get(tile_idx)
        old_outline = unit.boundary.get(tile_idx) if exact else (empty, empty)
        if old_runs is None or old_outline is None:
            return None
        changed_runs.append(_runs_xor(
            old_runs, runs.get(pid, empty.reshape(0, 2))
        ))
        if exact:
            ix, iy = (outlines or {}).get(pid, (empty, empty))
            changed = np.setxor1d(
                old_outline[1] * width + old_outline[0], iy * width + ix
            )
            changed_outlines.append((changed % width, changed // width))
    return _pixel_box(width, changed_runs, changed_outlines)


def _runs_xor(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The pixels in exactly one of two sets of disjoint ``[lo, hi)``
    runs, as ascending disjoint runs: a sweep over their ends."""
    ends = np.concatenate([old[:, 0], old[:, 1], new[:, 0], new[:, 1]])
    step = np.repeat([1, -1, -1, 1], [len(old), len(old), len(new), len(new)])
    order = np.argsort(ends, kind="stable")
    ends, level = ends[order], np.cumsum(step[order])
    live = (level[:-1] != 0) & (ends[1:] > ends[:-1])
    return np.column_stack([ends[:-1][live], ends[1:][live]])


def _boxes_meeting(boxes: tuple, box: tuple) -> np.ndarray:
    """The polygons whose pixel box (``boxes``: :meth:`PreparedPolygons.
    pixel_boxes`) meets ``box``: every polygon with a pixel in it,
    ascending."""
    bx0, by0, bx1, by1 = boxes
    x0, y0, x1, y1 = box
    return np.flatnonzero((bx0 <= x1) & (bx1 >= x0) & (by0 <= y1) & (by1 >= y0))


def _splice_coverage(base: TileCoverage, pids: np.ndarray, sub: tuple,
                     n: int) -> TileCoverage:
    """``base`` with the segments of ``pids`` replaced by ``sub``'s (the
    ``(runs, pids, starts)`` of a table over those polygons alone), in
    polygon order, planned anew over the tile's ``n`` pixels."""
    sub_runs, sub_pids, sub_starts = sub
    n_base = len(base.runs)
    kept = ~np.isin(base.pids, pids)
    owner = np.concatenate([base.pids[kept], sub_pids])
    first = np.concatenate([base.starts[kept], n_base + sub_starts])
    count = np.concatenate([
        np.diff(base.starts, append=n_base)[kept],
        np.diff(sub_starts, append=len(sub_runs)),
    ])
    by_pid = np.argsort(owner, kind="stable")
    owner, first, count = owner[by_pid], first[by_pid], count[by_pid]
    runs = np.concatenate([base.runs, sub_runs]).take(
        ragged_positions(first, count), axis=0
    )
    return TileCoverage.build(runs, owner, np.cumsum(count) - count, n)


def _splice_candidates(base: TileCandidates, sub: TileCandidates,
                       width: int, box: tuple) -> TileCandidates:
    """``base``'s rows outside ``box`` and ``sub``'s inside it, in pixel
    order: only the rows of ``box``'s rows of pixels are re-laid."""
    x0, y0, x1, y1 = box
    i0, i1 = np.searchsorted(base.pixels, (y0 * width, (y1 + 1) * width))
    s0, s1 = base.starts[i0], base.starts[i1]
    pixel = np.concatenate([
        np.repeat(base.pixels[i0:i1], np.diff(base.starts[i0:i1 + 1])),
        np.repeat(sub.pixels, np.diff(sub.starts)),
    ])
    owner = np.concatenate([base.pids[s0:s1], sub.pids])
    iy, ix = np.divmod(pixel, width)
    # The base's pairs outside the box, ``sub``'s inside it.
    keep = ((ix >= x0) & (ix <= x1) & (iy >= y0) & (iy <= y1)) != (
        np.arange(len(pixel)) < s1 - s0
    )
    # Either side is sorted by (pixel, polygon) and no pixel is on both.
    by_pixel = np.argsort(pixel[keep], kind="stable")
    pixel, owner = pixel[keep][by_pixel], owner[keep][by_pixel]
    first = np.flatnonzero(np.diff(pixel, prepend=-1))
    return TileCandidates(
        np.concatenate([base.pixels[:i0], pixel[first], base.pixels[i1:]]),
        np.concatenate([
            base.starts[:i0], s0 + first,
            base.starts[i1:] + len(owner) - (s1 - s0),
        ]),
        np.concatenate([base.pids[:s0], owner, base.pids[s1:]]),
    )
