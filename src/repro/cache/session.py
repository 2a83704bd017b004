"""A tiered cache of prepared polygon artifacts shared across queries.

Pass one :class:`QuerySession` to every engine (or to the SQL planner,
which forwards it) and repeated queries over the same polygon
set reuse triangulations, canvas layouts, boundary masks, candidate
lists and polygon coverage instead of rebuilding them:

    session = QuerySession()
    engine = AccurateRasterJoin(resolution=1024, session=session)
    engine.execute(points, zones)          # cold: builds prepared state
    engine.execute(points, zones)          # warm: prepared-state hit

The session is *tiered* (see ``docs/artifact_store.md``); an artifact
is in memory whole or not at all:

1. **Memory** — the artifact with every derived field hot.
2. **Disk** — with an :class:`~repro.store.ArtifactStore` attached (or
   ``$REPRO_STORE_DIR`` set), entries leaving memory are *demoted* to
   the store instead of dropped, and lookups that miss memory consult
   the store before rebuilding — which is how a restarted process
   answers its first repeated query warm.  Every dirty entry, cold-built
   or delta-derived from an edit, is written as one whole pair under
   its own key.
3. **Rebuild** — a miss everywhere builds from scratch, exactly the
   sessionless code path.

Invalidation rules (see ``docs/query_sessions.md`` and
``docs/incremental_edits.md``):

* entries are keyed by the polygon set's *content fingerprint*
  (computed once, when the frozen set was built) plus the engine's
  render spec, so editing a polygon set (or passing a different one)
  can never hit a stale entry — it simply keys a new one;
* an edited set whose frame (overall extent) matches a resident sibling
  is **delta-derived** instead of cold-built: unchanged polygons adopt
  the sibling's per-polygon units and only the changed/added polygons'
  artifacts rebuild (``prepared_for`` returns ``"delta"``) — through
  the batched raster builders (``docs/rasterization.md``);
* the session holds at most ``capacity`` artifacts (and at most
  ``byte_budget`` bytes, when set), demoting the least recently used
  beyond that;
* :meth:`QuerySession.invalidate` drops in-memory entries eagerly when
  the caller wants memory back *now* (the store keeps its copies).

The session also caches **point-keyed acceleration state** — the
routing of recent point sources over a canvas (tile and flat pixel per
row; see :meth:`QuerySession.partition_lookup`) and, for a pairing that
was prewarmed, the point-pass channels of its statements
(:meth:`QuerySession.channels`).  Both depend only on the points
and a frame, never on the polygons, so repeated queries — including
every iteration of a rezoning edit loop — skip the per-query projection
(and, prewarmed, the scatter) entirely.  They share one LRU bounded by
bytes alone.

Results are bit-identical with and without a session, and with and
without the store: engines run the same reduction code over the same
arrays wherever those arrays came from.
"""

from __future__ import annotations

import functools
import os
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.prepared import PreparedPolygons, _bbox_tuple
from repro.errors import QueryError
from repro.geometry.polygon import PolygonSet
from repro.obs import metrics


#: Live sessions whose locks must be re-armed in forked children — the
#: process execution backend forks mid-query by design, and a fork taken
#: while another thread holds a session lock would hand every child a
#: permanently-held lock (same hazard, and same fix, as GPUDevice's).
_LIVE_SESSIONS: "weakref.WeakSet[QuerySession]" = weakref.WeakSet()


def _rearm_session_locks_after_fork() -> None:  # pragma: no cover - fork path
    for session in _LIVE_SESSIONS:
        session._lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_session_locks_after_fork)


def _locked(method):
    """Serialize a public session method under the session's RLock.

    The serving layer multiplexes many concurrent queries over one warm
    session, so every entry point that reads or mutates the LRU dicts,
    the byte accounting, or the store tier takes one coarse re-entrant
    lock.  Re-entrant because public methods call each other (checkpoint
    runs maintenance, ``__repr__`` reads ``nbytes``); coarse because the
    critical sections are dict bookkeeping — the expensive work (raster
    builds, point passes) happens in the engines, outside the session.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


def _point_columns(source) -> tuple:
    """The column names a point source exposes (resident sets carry an
    explicit list; host datasets are locations + attributes)."""
    names = getattr(source, "column_names", None)
    if names is None:
        names = ("x", "y", *getattr(source, "attributes", {}))
    return tuple(names)


def _frozen(column) -> bool:
    """Whether a column is frozen: an ndarray that owns its data and is
    not writeable — what :func:`freeze_points` leaves behind.  Views,
    memmaps and writeable arrays are not."""
    return (
        isinstance(column, np.ndarray)
        and not column.flags.writeable
        and column.flags.owndata
    )


def freeze_points(points) -> None:
    """Make every column ``points`` owns read-only, so the content guard
    checks it in O(1) (see :meth:`QuerySession._content_fold`).  A
    column that is a view of another array is left as it is — and
    folded by the guard — because its base stays writeable."""
    for name in _point_columns(points):
        column = points.column(name)
        if isinstance(column, np.ndarray) and column.flags.owndata:
            column.flags.writeable = False


def _fold_column(column: np.ndarray) -> tuple:
    """Sum, XOR and position-weighted sum of a column's 64-bit words,
    plus the sum of its ragged byte tail."""
    data = np.ascontiguousarray(column).view(np.uint8).reshape(-1)
    words = data[: (data.size // 8) * 8].view(np.uint64)
    return (
        int(words.sum(dtype=np.uint64)),
        int(np.bitwise_xor.reduce(words)),
        int(np.dot(words, np.arange(1, words.size + 1, dtype=np.uint64))),
        int(data[words.size * 8:].sum(dtype=np.uint64)),
    )


def _source_bytes(points) -> int:
    """Bytes of a point source's columns (what a strong ref pins)."""
    total = 0
    for name in _point_columns(points):
        try:
            total += points.column(name).nbytes
        except Exception:
            continue
    return total


@dataclass
class _PointState:
    """One entry of the point-keyed cache.

    A routing (``value`` is the :class:`~repro.exec.partition.Routing`,
    which grows as queries add columns, so its size is read live) or a
    cached point-pass channel (``value`` is the flat array).  ``points``
    is a strong reference — it keeps the identity key unambiguous — and
    ``guard`` the content fold that validates it
    (:meth:`QuerySession._content_fold`); ``frozen`` holds the frozen
    columns the guard names by ``id``, so no other array can take one
    of those ids while the entry lives.  ``pinned_nbytes`` charges a
    routing for the source it alone may be keeping alive.
    """

    kind: str
    points: object
    guard: tuple
    frozen: tuple
    token: tuple
    value: object
    pinned_nbytes: int = 0

    @property
    def nbytes(self) -> int:
        return self.value.nbytes + self.pinned_nbytes


class QuerySession:
    """Tiered cache of :class:`PreparedPolygons`, shared by many engines.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory artifacts (LRU beyond it).
    byte_budget:
        Optional cap on the summed ``nbytes`` of in-memory artifacts
        (plain int or a ``"256M"``-style string).  Over budget, cached
        point-keyed state (point routings, cached channels) is
        reclaimed first, then whole entries are demoted out of memory,
        LRU-first.  It is also the bound on that point-keyed state by
        itself (the 512 MB :attr:`PARTITION_BYTE_CAP` when unset).
        Accounting is per entry and therefore *conservative* for
        delta-derived siblings, which share most of their arrays with
        their base: the summed figure is an upper bound on real memory,
        so pressure may demote an entry early — a performance effect
        only.  A demoted entry is dropped from the session, never
        mutated: a tile loop holding it finishes undisturbed.  During a
        lookup the entry being handed out is protected; at the
        post-execution checkpoint nothing is — a budget smaller than one
        artifact demotes even the just-executed entry (it stays
        answerable through the store).
    store:
        The disk tier: an :class:`~repro.store.ArtifactStore`, a
        directory path, ``None`` to consult ``$REPRO_STORE_DIR``, or
        ``False`` to force-disable the disk tier.
    """

    def __init__(
        self,
        capacity: int = 8,
        byte_budget: int | str | None = None,
        store=None,
    ) -> None:
        if capacity < 1:
            raise QueryError(f"session capacity must be >= 1, got {capacity}")
        from repro.store import ArtifactStore, parse_bytes

        self.capacity = capacity
        self.byte_budget = parse_bytes(byte_budget)
        self.store = ArtifactStore.coerce(store)
        #: Point-keyed acceleration state — point routings and cached
        #: channels — in one LRU: ``(kind, id(points), *token) ->
        #: _PointState``, keyed by the point source's identity,
        #: validated by content fold and bounded by bytes alone (see
        #: :meth:`_evict_point_state`).
        self._point_cache: "OrderedDict[tuple, _PointState]" = OrderedDict()
        self._entries: "OrderedDict[tuple, PreparedPolygons]" = OrderedDict()
        #: polygon fingerprint -> {key: how many of the entry's polygons
        #: carry it}, over the resident entries: what a delta lookup
        #: reads instead of scanning every entry's units.
        self._holders: dict[str, dict[tuple, int]] = {}
        #: key -> artifact nbytes at the time it was last persisted.  An
        #: entry is dirty only while its in-memory content *exceeds* the
        #: persisted size: per key the content is deterministic and only
        #: grows, so an equal size means the store holds the same data.
        self._persisted: dict[tuple, int] = {}
        #: keys the store refused (larger than its whole disk budget, or
        #: a spec it cannot address): never re-serialized while resident.
        self._unstorable: set[tuple] = set()
        #: key -> (content signature, nbytes): the byte walk visits
        #: every unit's arrays, so it runs only when an entry's O(1)
        #: signature says the content actually changed.
        self._sizes: dict[tuple, tuple[tuple, int]] = {}
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        #: Misses answered by delta derivation from a resident sibling
        #: (an edited polygon set), and the total polygons those
        #: derivations had to rebuild — ``polygons_rebuilt /
        #: (delta_hits x set size)`` is the effective edit fraction.
        self.delta_hits = 0
        self.polygons_rebuilt = 0
        self.partition_hits = 0
        self.demotions = 0
        # One coarse re-entrant lock serializes every public entry point
        # (see _locked): concurrent serving threads share a session, and
        # unguarded OrderedDict mutation corrupts the LRU chains.
        self._lock = threading.RLock()
        _LIVE_SESSIONS.add(self)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @_locked
    def prepared_for(
        self, polygons: PolygonSet, spec: tuple
    ) -> tuple[PreparedPolygons, str]:
        """The artifact for (polygons, spec), plus where it came from.

        ``spec`` is the engine's render configuration tuple — everything
        besides geometry that the artifact's contents depend on (engine
        kind, resolution/epsilon, edge-table rows, tiling limit, ...).

        The second element is ``"memory"`` for an in-memory hit,
        ``"store"`` for a disk-tier hit (loaded and promoted back into
        memory), ``"delta"`` for an artifact derived from a resident
        sibling (only changed/added polygons will rebuild), or ``""``
        (falsy) for a miss that created a fresh artifact.
        """
        key = (polygons.fingerprint,) + tuple(spec)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            entry.uses += 1
            # A hit changes nothing the tiers care about — no new entry,
            # no bytes, no mutation since the last post-execution
            # checkpoint — so the warm path skips maintenance and stays
            # O(1), like the pre-store LRU.
            metrics.counter("session_prepared_lookups", result="hit")
            return entry, "memory"
        if self.store is not None:
            entry = self.store.load(key, polygons)
            if entry is not None:
                self._admit(key, entry)
                # Fresh from disk: identical bytes are already persisted,
                # so the next flush skips it unless it grows.
                self._persisted[key] = entry.nbytes
                self.store_hits += 1
                entry.uses += 1
                self._maintain(exclude=key)
                metrics.counter("session_prepared_lookups",
                                result="store_hit")
                return entry, "store"
        # Delta derivation: an edited set adopts a resident sibling's
        # unchanged per-polygon units instead of cold-building all of
        # them (see docs/incremental_edits.md).
        base, _ = self._find_delta_base(key, spec, polygons)
        if base is not None:
            entry = PreparedPolygons.derive_from(base, key, polygons)
            self._admit(key, entry)
            self.misses += 1
            self.delta_hits += 1
            self.polygons_rebuilt += entry.rebuilt_polygons
            entry.uses += 1
            self._maintain(exclude=key)
            metrics.counter("session_prepared_lookups", result="delta_hit")
            return entry, "delta"
        entry = PreparedPolygons(polygons, key)
        self._admit(key, entry)
        self.misses += 1
        self._maintain(exclude=key)
        metrics.counter("session_prepared_lookups", result="miss")
        return entry, ""

    def _admit(self, key: tuple, entry: PreparedPolygons) -> None:
        """Make ``entry`` resident under ``key`` and index its polygons."""
        self._entries[key] = entry
        for fp, count in Counter(u.fingerprint for u in entry.units).items():
            self._holders.setdefault(fp, {})[key] = count

    def _remove(self, key: tuple) -> PreparedPolygons:
        """Take the entry under ``key`` out of memory and the index; its
        recorded answers go with it (a delta derived from it runs in
        full)."""
        entry = self._entries.pop(key)
        entry.answers.clear()
        for unit in entry.units:
            holders = self._holders.get(unit.fingerprint)
            if holders is not None:
                holders.pop(key, None)
                if not holders:
                    del self._holders[unit.fingerprint]
        return entry

    def _find_delta_base(
        self, key: tuple, spec: tuple, polygons: PolygonSet
    ) -> tuple[PreparedPolygons | None, int]:
        """The best resident sibling to derive an edited set from.

        A candidate must share the render spec and the *frame* — the
        set's overall extent, which pins the canvas layout every
        per-polygon artifact was computed under — and match
        at least one polygon by content fingerprint.  Among candidates
        the one reusing the most polygons wins (most recently used on
        ties).  The probe never touches LRU order or hit counters.
        """
        # Multiset intersection through the fingerprint index — mirrors
        # the pop-one-per-match pairing derive_from performs, so
        # duplicate fingerprints (identical polygons) are never
        # double-counted and the match count can never exceed the
        # query's polygon count.
        matched: dict[tuple, int] = {}
        for fp, want in Counter(poly.fingerprint for poly in polygons).items():
            for holder, have in self._holders.get(fp, {}).items():
                matched[holder] = matched.get(holder, 0) + min(want, have)
        bbox = _bbox_tuple(polygons)
        best: PreparedPolygons | None = None
        best_matched = 0
        for candidate_key in reversed(self._entries):
            count = matched.get(candidate_key, 0)
            if (count <= best_matched or candidate_key == key
                    or candidate_key[1:] != tuple(spec)):
                continue
            candidate = self._entries[candidate_key]
            if candidate.source_bbox == bbox:
                best, best_matched = candidate, count
        return best, best_matched

    @_locked
    def contains(self, polygons: PolygonSet, spec: tuple) -> bool:
        """Whether an artifact exists for (polygons, spec) in memory or
        on disk — without touching LRU order, counters, or the files."""
        key = (polygons.fingerprint,) + tuple(spec)
        if key in self._entries:
            return True
        return self.store is not None and self.store.contains(key)

    @_locked
    def warmth(self, polygons: PolygonSet, spec: tuple) -> float | None:
        """How warm (polygons, spec) is — without touching LRU order,
        counters, or mtimes.

        ``None`` when nothing is reusable, else the warm *fraction* in
        (0, 1]: 1.0 for an exact artifact that holds coverage, in memory
        or on disk (the stored manifest lists ``coverage``).  When the
        exact key misses but a resident sibling could seed a *delta
        derivation* (same spec, same frame, overlapping polygons), the
        fraction is the share of this query's polygons the sibling
        already holds — cache-aware costing scales the preparation and
        polygon-pass terms by the share that actually rebuilds, so a
        1-of-200 edit plans like a warm query, not a cold one.  An
        artifact without coverage (triangles at most) grades cold: its
        first statement rasterizes the whole polygon side.
        """
        key = (polygons.fingerprint,) + tuple(spec)
        entry = self._entries.get(key)
        if entry is not None:
            return 1.0 if self._has_coverage(entry) else None
        if self.store is not None:
            if "coverage" in (self.store.describe(key) or ()):
                return 1.0
        # Exact miss: grade the best delta sibling fractionally.
        base, matched = self._find_delta_base(key, spec, polygons)
        if base is not None and self._has_coverage(base):
            return matched / len(polygons)
        return None

    @staticmethod
    def _has_coverage(entry: PreparedPolygons) -> bool:
        return bool(entry.views) or any(u.coverage for u in entry.units)

    # ------------------------------------------------------------------
    # Point-keyed caches: point routings and cached channels
    # ------------------------------------------------------------------
    #: Bytes of point-keyed state (routings and channels together)
    #: retained when the session has no ``byte_budget`` (with one, the
    #: budget governs instead).  A routing's accounting covers
    #: everything it pins: its index arrays, the tile-sorted column
    #: copies *and* the strong reference to the source dataset itself.
    #: Bounds what a long-lived default session can hold; an entry
    #: larger than the cap is simply not cached.
    PARTITION_BYTE_CAP = 512 << 20

    @staticmethod
    def _content_fold(points) -> tuple[tuple, tuple]:
        """The content guard of every point-keyed cache, and the frozen
        columns it names by identity.

        The point-keyed caches (routings, channels) are *keyed* by the
        source's identity (an O(1) probe) but *validated* by this fold,
        so mutating a dataset's arrays in place between queries can
        never replay stale state.  A frozen column (:func:`_frozen` — a
        planner-registered table's) cannot change without its flag being
        flipped first, so it contributes its name, dtype, size and
        ``id`` and no byte is read: a registered table's guard is O(1)
        in its rows, first statement included.  Every other column —
        writeable arrays, views, memmaps — is folded every statement
        (:func:`_fold_column`: sum, XOR and position-weighted sum of its
        64-bit words; the weighted sum catches two values swapped, which
        the sum and XOR miss).  A frozen column flipped back to
        writeable changes its contribution, so the next statement
        re-routes once.
        """
        fold: list = [len(points)]
        frozen = []
        for name in _point_columns(points):
            column = points.column(name)
            head = (str(name), column.dtype.str, column.size)
            if _frozen(column):
                frozen.append(column)
                fold.append(head + (id(column),))
            else:
                fold.append(head + _fold_column(column))
        return tuple(fold), tuple(frozen)

    def _point_lookup(self, kind: str, points, token: tuple):
        """The validated ``kind`` entry for (points, token), or ``None``.

        Keyed by the source's identity (an O(1) probe), validated by its
        content guard: a source that was mutated in place takes every
        entry keyed on it — its routings and the channels scattered
        through them — out of the cache, never replayed.
        """
        key = (kind, id(points)) + tuple(token)
        state = self._point_cache.get(key)
        if state is None:
            return None
        if state.points is not points or (
            state.guard != self._content_fold(points)[0]
        ):
            for stale in [k for k in self._point_cache if k[1] == key[1]]:
                del self._point_cache[stale]
            return None
        self._point_cache.move_to_end(key)
        return state

    @property
    def _point_cap(self) -> int:
        return (
            self.byte_budget if self.byte_budget is not None
            else self.PARTITION_BYTE_CAP
        )

    def _point_insert(self, state: _PointState) -> None:
        """Retain ``state`` as the most recent entry, then hold the
        point-keyed bytes to the cap."""
        cap = self._point_cap
        key = (state.kind, id(state.points)) + state.token
        if state.nbytes > cap:
            # It would thrash the cap: never cached, or dropped outgrown.
            if self._point_cache.get(key) is state:
                del self._point_cache[key]
            return
        self._point_cache[key] = state
        self._point_cache.move_to_end(key)
        self._evict_point_state(cap)

    def _evict_point_state(self, limit: int) -> None:
        """Drop point-keyed entries, least recently used first whatever
        their kind, until they hold at most ``limit`` bytes.

        Pure re-derivable acceleration state, so eviction only costs a
        rebuild.
        """
        held = self._point_nbytes()
        while self._point_cache and held > limit:
            _, state = self._point_cache.popitem(last=False)
            held -= state.nbytes
            metrics.counter("session_evictions", tier=state.kind)

    def _point_nbytes(self, kind: str | None = None) -> int:
        return sum(
            state.nbytes for state in self._point_cache.values()
            if kind is None or state.kind == kind
        )

    @_locked
    def partition_lookup(self, points, token: tuple):
        """The cached :class:`~repro.exec.partition.Routing` of
        ``points`` over a canvas, or ``None``.

        ``token`` is the canvas frame and tile layout
        (:func:`~repro.exec.partition.routing_token`); a routing depends
        on nothing else — not on the polygons, so an edit loop keeps
        hitting, and not on a statement's columns or batch size, so a
        whole dashboard shares one entry per canvas.
        """
        state = self._point_lookup("partition", points, token)
        if state is None:
            return None
        self.partition_hits += 1
        metrics.counter("session_partition_hits")
        return state.value

    @_locked
    def partition_store(self, points, token: tuple, routing) -> tuple:
        """Retain a routing — or re-measure the one retained — once the
        statement's columns are in it (byte-bounded LRU); returns its
        content guard and the frozen columns that names by ``id``
        (:meth:`_content_fold`), what the statement's answers are keyed
        by.

        A routing grows by a tile-sorted copy per column read, so every
        query calls this after cutting its batches; a hit re-applies the
        cap to the live bytes without re-folding.  The entry keeps a
        strong reference to ``points`` (the identity key stays
        unambiguous; the routing's columns alias or copy the source's
        anyway) and is charged for it, so the byte budget (or
        :attr:`PARTITION_BYTE_CAP`) sees everything the entry pins.
        """
        token = tuple(token)
        state = self._point_cache.get(("partition", id(points)) + token)
        if state is None or state.value is not routing:
            state = _PointState(
                "partition", points, *self._content_fold(points), token,
                routing, pinned_nbytes=_source_bytes(points),
            )
        self._point_insert(state)
        return state.guard, state.frozen

    @_locked
    def partition_warm(self, points, token: tuple, polygons,
                       spec: tuple) -> tuple:
        """Cheap costing probe: ``(routed, prewarmed, recorded)`` — is a
        routing resident for this source and canvas, was it prewarmed,
        and does the artifact of (``polygons``, ``spec``) hold a record
        of this source's boundary join?

        Identity-keyed only — no content fold, no hash, no LRU touch — so
        EXPLAIN can call it before the statement runs.  Optimistic: a
        source mutated in place reads warm here but fails the content
        guard at execution — one mispredicted plan, never a wrong result.
        """
        state = self._point_cache.get(("partition", id(points)) + tuple(token))
        if state is None:
            return False, False, False
        entry = self._entries.get((polygons.fingerprint,) + tuple(spec))
        return True, state.value.prewarmed, bool(
            entry is not None and entry.answers.pairs(state.guard)
        )

    @property
    @_locked
    def partition_nbytes(self) -> int:
        """Bytes held by cached point routings (and the sources they
        pin)."""
        return self._point_nbytes("partition")

    @_locked
    def channels(self, points, token: tuple, keys: dict, nbytes: int, build):
        """The cached point-pass channels of one statement over a
        prewarmed routing, or ``None`` when the cap cannot hold them.

        ``token`` names the routing's canvas; ``keys`` maps each channel
        name to what a point framebuffer depends on beyond the routing —
        ``(blend, column, filter key)``; a value is one flat float64
        array of ``nbytes`` over the canvas's pixels, tile after tile.
        A channel is as valid as the routing it was scattered through:
        that entry's guard was checked by this statement's
        :meth:`partition_lookup`, so channels stored under the same
        guard need no second pass over the columns.  When any is
        missing, ``build()`` scatters them all (name -> array) and the
        missing ones are retained as ordinary entries of the LRU —
        unless the statement's channels would not fit beside their own
        routing, in which case nothing is built.
        """
        token = tuple(token)
        prefix = ("channel", id(points)) + token
        routing_key = ("partition", id(points)) + token
        routing = self._point_cache.get(routing_key)
        if routing is None:
            return None
        found = {}
        for name, key in keys.items():
            state = self._point_cache.get(prefix + key)
            if state is not None and state.guard == routing.guard:
                self._point_cache.move_to_end(prefix + key)
                found[name] = state.value
        if len(found) < len(keys):
            if routing.nbytes + nbytes * len(keys) > self._point_cap:
                return None
            built = build()
            # The routing outlives the channels read through it.
            self._point_cache.move_to_end(routing_key)
            for name in keys.keys() - found.keys():
                found[name] = built[name]
                self._point_insert(_PointState(
                    "channel", points, routing.guard, routing.frozen,
                    token + keys[name], built[name],
                ))
                metrics.counter("session_channel_builds")
        return found

    @property
    @_locked
    def pyramid_nbytes(self) -> int:
        """Bytes held for pairings beyond their routings: cached channels
        plus the artifacts' records of their boundary joins."""
        return self._point_nbytes("channel") + sum(
            entry.answers.pairs_nbytes for entry in self._entries.values()
        )

    # ------------------------------------------------------------------
    # Tier maintenance
    # ------------------------------------------------------------------
    @_locked
    def checkpoint(self) -> None:
        """Persist dirty artifacts and enforce both budgets.

        Engines call this after every execution, which makes the store
        write-through: by the time a query's result is returned, its
        prepared state is durable and a process restart answers the same
        query warm.  Unchanged artifacts are never re-written.
        """
        self._maintain(exclude=None)

    def _maintain(self, exclude: tuple | None) -> None:
        """Post-lookup/post-execution housekeeping.

        ``exclude`` protects the entry being handed out of a lookup.
        Artifact sizes are measured once per event (``nbytes`` walks
        every unit's arrays, so it is the expensive part) and shared by
        the flush and both budget passes.  A session with neither a
        store nor a byte budget skips the measurement entirely — its
        warm hits stay O(1) as before, capacity eviction needs no sizes.
        """
        if self.store is None and self.byte_budget is None:
            self._enforce_capacity(exclude, {})
            return
        sizes = {
            key: self._entry_nbytes(key, entry)
            for key, entry in self._entries.items()
        }
        self._flush_dirty(sizes, exclude)
        self._enforce_capacity(exclude, sizes)
        self._enforce_byte_budget(exclude, sizes)

    def _entry_nbytes(self, key: tuple, entry: PreparedPolygons) -> int:
        """The entry's ``nbytes``, re-measured only when its content
        signature changed since the last measurement."""
        signature = entry.content_signature
        cached = self._sizes.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
        nbytes = entry.nbytes
        self._sizes[key] = (signature, nbytes)
        return nbytes

    def _is_dirty(self, key: tuple, nbytes: int) -> bool:
        """Whether the store lacks this entry's content.

        Grown content (``nbytes`` above the persisted size) is dirty;
        so is any non-empty entry whose on-disk pair has vanished
        underneath us (``store.clear()``, disk-budget eviction, another
        process) — the existence probe keeps the ``_persisted`` markers
        from silently turning demotion into data loss.
        """
        if nbytes == 0 or key in self._unstorable:
            return False
        if nbytes > self._persisted.get(key, -1):
            return True
        return not self.store.contains(key)

    def _try_save(self, key: tuple, entry: PreparedPolygons,
                  nbytes: int) -> bool:
        """Best-effort persistence: a failing disk never fails a query.

        The query's result is already correct when persistence runs, so
        I/O errors (disk full, dead mount, permissions) only forfeit
        warmth: the entry stays dirty and the next checkpoint retries.
        An artifact the store *rejects* — bigger than the whole disk
        budget (it only grows), or keyed by a spec value the format
        cannot address (not JSON serializable) — is remembered as
        unstorable, so checkpoints don't re-serialize it query after
        query; this session serves it from memory only.
        """
        from repro.store import ArtifactTooLargeError

        try:
            self.store.save(key, entry)
        except (ArtifactTooLargeError, TypeError, ValueError):
            self._unstorable.add(key)
            return False
        except OSError:
            self.store.save_failures += 1
            return False
        self._persisted[key] = nbytes
        return True

    def _flush_dirty(self, sizes: dict, exclude: tuple | None = None) -> int:
        if self.store is None:
            return 0
        saved = 0
        for key, entry in list(self._entries.items()):
            if key == exclude:
                # The entry being handed out of a lookup: it is about to
                # be (re)built by the caller's execution, so persisting
                # now would write a state the very next checkpoint
                # supersedes.  Delta-derived entries are born with
                # carried bytes, which made this skip matter.
                continue
            if not self._is_dirty(key, sizes[key]):
                continue  # empty (never executed) or already durable
            if self._try_save(key, entry, sizes[key]):
                saved += 1
        return saved

    def _demote(self, key: tuple, nbytes: int) -> None:
        """Move one entry out of memory, persisting it first if needed."""
        entry = self._remove(key)
        if self.store is not None and self._is_dirty(key, nbytes):
            self._try_save(key, entry, nbytes)
        self._forget(key)
        self.demotions += 1
        metrics.counter("session_demotions")

    def _forget(self, key: tuple) -> None:
        """Drop a departed key's bookkeeping.

        The side maps are keyed only by *resident* entries, so a
        long-lived serving session (every rezoning stroke keys a fresh
        fingerprint) stays bounded by ``capacity``.  Worst case of
        forgetting: one redundant save if the same key is ever rebuilt
        from scratch instead of re-entering through a store hit.
        """
        self._sizes.pop(key, None)
        self._persisted.pop(key, None)
        self._unstorable.discard(key)

    def _enforce_capacity(self, exclude: tuple | None, sizes: dict) -> None:
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k in self._entries if k != exclude), None
            )
            if victim is None:
                return
            self._demote(victim, sizes.get(victim, 0))

    def _enforce_byte_budget(self, exclude: tuple | None,
                             sizes: dict) -> None:
        if self.byte_budget is None:
            return
        total = sum(sizes[key] for key in self._entries)
        # Cached point routings and channels are pure re-derivable
        # acceleration state — under pressure they go first, LRU-first,
        # so the budget really bounds the session's whole footprint.
        self._evict_point_state(self.byte_budget - total)
        # Then whole entries leave memory, LRU-first (to the store, when
        # one is attached).
        for key in list(self._entries):
            if total <= self.byte_budget:
                return
            if key == exclude:
                continue
            total -= sizes[key]
            self._demote(key, sizes[key])

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    @_locked
    def invalidate(self, polygons: PolygonSet | None = None) -> int:
        """Drop cached in-memory artifacts, returning how many were
        removed.

        With ``polygons`` given, only entries for that geometry (any spec)
        are dropped; with ``None``, the whole session is cleared.  The
        disk tier is left intact — use ``session.store.clear()`` (or
        ``delete``) to reclaim disk space.
        """
        doomed = [key for key in self._entries
                  if polygons is None or key[0] == polygons.fingerprint]
        for key in doomed:
            self._remove(key)
            self._forget(key)
        if polygons is None:
            self._point_cache.clear()
        return len(doomed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @_locked
    def __len__(self) -> int:
        return len(self._entries)

    @property
    @_locked
    def nbytes(self) -> int:
        """Approximate bytes held by all in-memory artifacts."""
        return sum(entry.nbytes for entry in self._entries.values())

    @_locked
    def __repr__(self) -> str:
        body = (
            f"QuerySession({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses, "
            f"~{self.nbytes / 1e6:.1f} MB"
        )
        if self.delta_hits:
            body += (
                f", {self.delta_hits} delta hits "
                f"({self.polygons_rebuilt} polygons rebuilt)"
            )
        if self.byte_budget is not None:
            body += f" of {self.byte_budget / 1e6:.1f} MB budget"
        if self.store is not None:
            body += (
                f", store: {self.store_hits} hits, "
                f"{self.demotions} demotions"
            )
        return body + ")"
