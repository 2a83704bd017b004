"""Shared engine machinery: the query entry points, batching and uploads.

Every engine follows the same outer structure: decide which columns the
query needs (locations + filter columns + aggregate columns), split the
points into device-sized batches, move each batch to the device exactly
once (measured as transfer time), run the vertex-stage filter, and hand the
surviving points to an engine-specific kernel.  Those steps live here as
plain functions (:func:`point_batches`, :func:`apply_filters`,
:func:`grid_pip_aggregate`, :func:`pip_match`, :func:`pip_fold`) so the
four engines only differ in their kernels; the two raster joins share
one per-tile pipeline instead, :mod:`repro.core.tiles`, which consumes
points already routed to their tile and pixel
(:mod:`repro.exec.partition`) and applies the filter as a mask, so of
these it calls only the two PIP steps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate, Count
from repro.core.filters import Filter, FilterSet
from repro.data.dataset import PointDataset
from repro.device.batching import rows_per_batch
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import QueryError
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.index.edge_table import EdgeTable
from repro.index.grid import GridIndex, ragged_positions
from repro.obs import trace
from repro.types import AggregationResult, ExecutionStats, ResultIntervals


class _Batch:
    """One device-resident slice of the input points."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[str, np.ndarray], length: int) -> None:
        self.columns = columns
        self.length = length

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class SpatialAggregationEngine(ABC):
    """Base class of all spatial-aggregation engines."""

    name = "abstract"

    def __init__(
        self,
        device: GPUDevice | None = None,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.device = device
        #: Execution configuration: which backend runs independent tile
        #: tasks and with how many workers, plus the optional artifact
        #: store location.  Results are bit-identical for every choice —
        #: this is purely a performance knob.
        self.config = config if config is not None else EngineConfig()
        self.backend = self.config.make_backend()
        if session is None:
            # An explicit store location on the config opts the engine
            # into cross-session persistence even without a caller-owned
            # session: prepared state flows through a private session
            # backed by that store (None unless config.store_dir is set
            # — see EngineConfig.default_session for the gate).
            session = self.config.default_session()
        #: Optional prepared-state cache shared across queries (and across
        #: engines).  Without one, every execution builds the same
        #: prepared artifact afresh — nothing is retained, and results
        #: are bit-identical either way.
        self.session = session

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate | None = None,
        filters: FilterSet | Sequence[Filter] | None = None,
    ) -> AggregationResult:
        """Run ``SELECT AGG(...) ... GROUP BY polygon`` and return results.

        ``points`` may be a host dataset (uploaded in batches, transfer
        timed) or a :class:`ResidentPointSet` already pinned on the device
        (the in-memory scenario: zero transfer).
        """
        aggregate = aggregate or Count()
        filter_set = FilterSet.coerce(filters)
        self._validate_columns(points, aggregate, filter_set)
        stats = ExecutionStats(engine=self.name, batches=0, passes=0)
        with trace.query_scope(self.name) as root:
            values, channels, intervals = self._run(
                points, polygons, aggregate, filter_set, stats
            )
            if stats.passes == 0:
                stats.passes = 1
            if stats.batches == 0:
                stats.batches = 1
            if root is not None:
                # The stats ↔ span bridge, stamped before the scope
                # closes so the JSONL sink sees the same §7.1 breakdown
                # as the returned stats object.
                root.attrs.update(stats.as_span_attrs())
        self._checkpoint_session()
        return AggregationResult(
            values=values, channels=channels, stats=stats,
            intervals=intervals, trace=root,
        )

    def execute_stream(
        self,
        chunk_source,
        polygons: PolygonSet,
        aggregate: Aggregate | None = None,
        filters: FilterSet | Sequence[Filter] | None = None,
    ) -> AggregationResult:
        """Run the query over streamed point chunks (disk-resident data).

        ``chunk_source`` is a zero-argument callable returning an iterator
        of :class:`PointDataset` chunks (e.g. a column-store scan); engines
        that render in multiple tiles may invoke it once per tile — and,
        under a parallel execution backend, from several tile workers *at
        the same time*.  Every call must therefore return an independent
        iterator; iterators must not share mutable reader state (one
        seekable file handle, one cursor) across calls.  The generic
        implementation executes the query per chunk and merges the
        distributive channels — correct for any engine; the raster joins
        share the polygon pass across chunks instead
        (:meth:`repro.core.tiles.RasterJoinEngine.execute_stream`).
        """
        aggregate = aggregate or Count()
        merged_channels: dict[str, np.ndarray] | None = None
        merged_stats = ExecutionStats(engine=self.name, batches=0, passes=0)
        with trace.query_scope(self.name) as root:
            for chunk in chunk_source():
                result = self.execute(chunk, polygons, aggregate, filters)
                if merged_channels is None:
                    merged_channels = dict(result.channels)
                else:
                    for name, values in result.channels.items():
                        merged_channels[name] = aggregate.combine(
                            merged_channels[name], values
                        )
                merged_stats.merge(result.stats)
                # Environment facts (tile count, worker count) describe the
                # execution, they don't accumulate — the type-based extra
                # merge sums ints, so restore last-writer semantics here.
                for key in ("tiles", "workers"):
                    if key in result.stats.extra:
                        merged_stats.extra[key] = result.stats.extra[key]
            if merged_channels is None:
                raise QueryError("chunk source produced no chunks")
            if root is not None:
                root.attrs.update(merged_stats.as_span_attrs())
        return AggregationResult(
            values=aggregate.finalize(merged_channels),
            channels=merged_channels,
            stats=merged_stats,
            trace=root,
        )

    # ------------------------------------------------------------------
    # Engine-specific
    # ------------------------------------------------------------------
    @abstractmethod
    def _run(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> tuple[np.ndarray, dict[str, np.ndarray], ResultIntervals | None]:
        """Produce (final values, reduced channel arrays, §5 result
        intervals or ``None``)."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _prepared_state(
        self,
        polygons: PolygonSet,
        spec: tuple,
        stats: ExecutionStats,
    ) -> PreparedPolygons:
        """The prepared artifact for this query's polygons + render spec.

        With a session attached, the artifact is fetched from (or inserted
        into) the cache and the hit/miss is recorded in ``stats``; without
        one, the same artifact is built fresh (unhashed, unkeyed) and
        dropped after the query.

        ``prepared_hits``/``prepared_misses`` describe the *in-memory*
        cache; a disk-tier hit therefore counts as a memory miss plus a
        ``prepared_store_hits`` increment, so the memory counters read
        identically whether or not a store is attached.
        """
        if self.session is None:
            return PreparedPolygons(polygons)
        prepared, source = self.session.prepared_for(polygons, spec)
        if source == "memory":
            stats.prepared_hits += 1
            stats.extra["prepared"] = "hit"
        elif source == "store":
            stats.prepared_misses += 1
            stats.prepared_store_hits += 1
            stats.extra["prepared"] = "store-hit"
        elif source == "delta":
            # An edited polygon set derived from a warm sibling: only the
            # changed/added polygons' artifacts rebuild this execution.
            stats.prepared_misses += 1
            stats.prepared_delta_hits += 1
            stats.extra["prepared"] = "delta"
            stats.extra["polygons_rebuilt"] = prepared.rebuilt_polygons
        else:
            stats.prepared_misses += 1
            stats.extra["prepared"] = "miss"
            stats.extra["polygons_rebuilt"] = len(prepared.units)
        return prepared

    def _checkpoint_session(self) -> None:
        """Make the session durable after an execution.

        Write-through persistence: freshly built prepared state reaches
        the session's artifact store (when one is attached) before the
        result is returned, and the in-memory byte budget is enforced.
        Runs outside the timed execution stats — durability is not query
        work.
        """
        if self.session is not None:
            self.session.checkpoint()

    def close(self) -> None:
        """Release the backend's long-lived worker pool (if any).

        Engines stay usable after ``close()`` — the next parallel
        dispatch simply respawns the pool lazily.  Unclosed pools are
        reclaimed at interpreter exit.
        """
        self.backend.close()

    def __enter__(self) -> "SpatialAggregationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _record_execution_env(self, stats: ExecutionStats, num_tiles: int) -> None:
        """Report tiling and backend facts uniformly across engines."""
        stats.extra["tiles"] = int(num_tiles)
        stats.extra["backend"] = self.backend.name
        stats.extra["workers"] = self.backend.workers

    @staticmethod
    def required_columns(aggregate: Aggregate, filters: FilterSet) -> tuple[str, ...]:
        """Columns the query touches: locations, filters, aggregate attrs."""
        names: list[str] = ["x", "y"]
        for col in filters.columns:
            if col not in names:
                names.append(col)
        for col in aggregate.columns:
            if col not in names:
                names.append(col)
        return tuple(names)

    def _validate_columns(
        self,
        points: PointDataset | ResidentPointSet,
        aggregate: Aggregate,
        filters: FilterSet,
    ) -> None:
        needed = self.required_columns(aggregate, filters)
        if isinstance(points, ResidentPointSet):
            missing = [c for c in needed if c not in points.column_names]
            if missing:
                raise QueryError(
                    f"resident point set lacks columns {missing}; "
                    f"preload with columns={needed}"
                )
        else:
            for col in needed:
                points.column(col)  # raises SchemaError when absent


def new_accumulators(
    polygons: PolygonSet, aggregate: Aggregate
) -> dict[str, np.ndarray]:
    """Per-polygon result slots initialized to the blend identity."""
    return {
        ch: np.full(len(polygons), aggregate.identity(), dtype=np.float64)
        for ch in aggregate.channels
    }


def point_batches(
    points: PointDataset | ResidentPointSet,
    columns: tuple[str, ...],
    device: GPUDevice | None,
    stats: ExecutionStats,
    reserved_bytes: int = 0,
) -> Iterator[_Batch]:
    """Yield device-resident batches, accounting transfer time.

    Resident point sets yield themselves as a single zero-cost batch.
    Host datasets are planned against the device capacity and each
    batch's columns are physically copied (and timed).  Device buffers
    are released as soon as a batch has been consumed, like the
    round-robin persistent buffers of the paper's implementation.
    """
    if isinstance(points, ResidentPointSet):
        # Already device memory: one zero-cost batch, no planning.
        stats.batches += 1
        yield _Batch({c: points.column(c) for c in columns}, len(points))
        return
    n = len(points)
    step = rows_per_batch(points, columns, device, reserved_bytes)
    for start in range(0, n, step):
        end = min(start + step, n)
        host_cols = {c: points.column(c)[start:end] for c in columns}
        if device is None:
            stats.batches += 1
            yield _Batch(host_cols, end - start)
            continue
        buffers, seconds = device.upload_columns(host_cols)
        stats.transfer_s += seconds
        stats.bytes_transferred += sum(b.nbytes for b in buffers.values())
        stats.batches += 1
        try:
            yield _Batch(
                {name: b.array for name, b in buffers.items()}, end - start
            )
        finally:
            for b in buffers.values():
                b.free()


def apply_filters(
    batch: _Batch, filters: FilterSet, stats: ExecutionStats
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Vertex stage: evaluate constraints, discard failing points.

    Returns the surviving coordinates and attribute columns.
    """
    xs = batch.column("x")
    ys = batch.column("y")
    attrs = {
        n: arr for n, arr in batch.columns.items() if n not in ("x", "y")
    }
    stats.points_processed += batch.length
    if not filters:
        return xs, ys, attrs
    keep = filters.mask(batch.column, batch.length)
    stats.points_filtered_out += int(batch.length - np.count_nonzero(keep))
    if keep.all():
        return xs, ys, attrs
    return xs[keep], ys[keep], {n: a[keep] for n, a in attrs.items()}


def grid_pip_aggregate(
    xs: np.ndarray,
    ys: np.ndarray,
    attrs: dict[str, np.ndarray],
    grid: GridIndex,
    edges: EdgeTable,
    aggregate: Aggregate,
    accumulators: dict[str, np.ndarray],
    stats: ExecutionStats,
) -> None:
    """The JoinPoint procedure over the polygon grid index: each point
    probes its cell and pairs with every polygon registered there (one
    bulk CSR expansion), and the pairs join through
    :func:`pip_match` and :func:`pip_fold`.  The raster join reads its candidates off the
    canvas instead (:mod:`repro.core.tiles`)."""
    cells = grid.cell_of_points(xs, ys)
    valid = cells >= 0
    cells = np.where(valid, cells, 0)
    first = grid.cell_start[cells]
    counts = np.where(valid, grid.cell_start[cells + 1] - first, 0)
    matched, owner = pip_match(
        xs, ys, np.repeat(np.arange(len(xs), dtype=np.int64), counts),
        grid.entries[ragged_positions(first, counts)], edges, stats,
    )
    pip_fold(owner, match_values(attrs, matched, aggregate), aggregate,
             accumulators)


def pip_match(
    xs: np.ndarray,
    ys: np.ndarray,
    point_idx: np.ndarray,
    poly_ids: np.ndarray,
    edges: EdgeTable,
    stats: ExecutionStats,
) -> tuple[np.ndarray, np.ndarray]:
    """The PIP join's *match* step: test candidate pairs, group the matches.

    Pair ``k`` is (point ``point_idx[k]``, polygon ``poly_ids[k]``),
    points ascending, no pair repeated — one test per pair, the work the
    paper counts, all at once against ``edges``, the set's row-banded
    edge table (the SPMD batching of a GPU compute shader, no
    per-polygon call).  Returns ``(matched, owner)``: the matched points
    grouped by polygon (stable: point order within a polygon) and each
    one's polygon — a function of the pairs alone, never of an aggregate.
    """
    stats.pip_tests += len(poly_ids)
    inside = edges.contains_pairs(xs[point_idx], ys[point_idx], poly_ids)
    owner, matched = by_pid(poly_ids[inside], point_idx[inside])
    return matched, owner


def by_pid(owner: np.ndarray, *columns: np.ndarray) -> tuple:
    """Matches grouped by their polygon ``owner``, stably: the sorted
    ``owner``, then each per-match array of ``columns`` in that order.
    Keyed by the narrowest dtype holding the pids, it sorts by radix."""
    order = np.argsort(owner.astype(np.min_scalar_type(owner.max(initial=0))),
                       kind="stable")
    return (owner[order], *(column[order] for column in columns))


def match_values(
    attrs: dict[str, np.ndarray], matched: np.ndarray, aggregate: Aggregate
) -> dict[str, np.ndarray]:
    """Each channel's value per matched point (``matched`` indexing
    ``attrs``): the constant-1 channel contributes one 1.0 per matched
    point, whatever the blend equation."""
    return {
        ch: np.ones(len(matched)) if col is None else attrs[col][matched]
        for ch, col in aggregate.channels.items()
    }


def pip_fold(
    owner: np.ndarray,
    values: dict[str, np.ndarray],
    aggregate: Aggregate,
    accumulators: dict[str, np.ndarray],
) -> None:
    """The PIP join's *fold* step: each matched polygon's values reduce
    one segment (:meth:`~repro.core.aggregates.Aggregate.reduce_segments`)
    and blend into its slot.  ``values`` are :func:`match_values` of
    matches grouped by polygon as :func:`pip_match` groups them,
    ``owner`` each one's pid; only polygons that matched own a segment."""
    start = np.ones(len(owner), dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    if len(starts) == 0:
        return
    pids = owner[starts]
    for ch, vals in values.items():
        slots = accumulators[ch]
        slots[pids] = aggregate.combine(
            slots[pids], aggregate.reduce_segments(vals, starts)
        )
