"""Shared result and statistics types.

Every engine returns an :class:`AggregationResult`; its
:class:`ExecutionStats` carries the timing breakdown the paper reports
(transfer vs. processing, polygon preprocessing, PIP-test counts) so the
benchmark harness can regenerate the figures without re-instrumenting the
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ExecutionStats:
    """Timing and work counters for one query execution.

    All times are seconds.  ``transfer_s`` covers host-to-device copies of
    point batches; ``processing_s`` is device-side work (rasterization,
    probes, PIP tests, aggregation); ``triangulation_s`` and
    ``index_build_s`` are the polygon preprocessing costs of Table 1, kept
    separate because the paper excludes them from query time but reports
    them on their own.  ``prepared_hits``/``prepared_misses`` count
    *in-memory* prepared-state cache lookups when the engine runs with a
    :class:`~repro.cache.session.QuerySession` (zero without one): a hit
    means triangulation, canvas layout, boundary masks, candidate lists
    and polygon coverage were all reused instead of rebuilt.
    ``prepared_store_hits`` counts the memory misses that were answered
    by the session's disk tier (the artifact store) instead of a rebuild
    — every store hit is also counted as a ``prepared_miss``, so the
    memory-cache counters read the same whether or not a store is
    attached.
    """

    engine: str = ""
    transfer_s: float = 0.0
    processing_s: float = 0.0
    #: The polygon-pass share of ``processing_s`` (coverage build +
    #: channel reduction); the cost model's calibration uses the measured
    #: split between point rendering and the polygon pass instead of
    #: guessing one.
    polygon_pass_s: float = 0.0
    #: Parent-side point partitioning (one global projection + bucketing
    #: per chunk on multi-tile canvases); part of query processing time.
    partition_s: float = 0.0
    triangulation_s: float = 0.0
    index_build_s: float = 0.0
    io_s: float = 0.0
    pip_tests: int = 0
    points_processed: int = 0
    points_filtered_out: int = 0
    boundary_points: int = 0
    passes: int = 1
    batches: int = 1
    bytes_transferred: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    prepared_store_hits: int = 0
    #: Memory misses answered by *delta derivation* from a sibling
    #: artifact (an edited polygon set adopting the unchanged polygons'
    #: prepared state); like store hits, every delta hit is also counted
    #: as a ``prepared_miss``.  ``extra["polygons_rebuilt"]`` reports how
    #: many polygons the derivation actually had to rebuild.
    prepared_delta_hits: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def query_s(self) -> float:
        """Query execution time as the paper reports it.

        Polygon preprocessing (triangulation, index creation) is excluded,
        matching §7.1: "we do not include the polygon processing time in
        the reported query execution time".
        """
        return self.transfer_s + self.processing_s + self.partition_s + self.io_s

    @property
    def total_s(self) -> float:
        """End-to-end time including polygon preprocessing."""
        return self.query_s + self.triangulation_s + self.index_build_s

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another execution's counters into this one."""
        self.transfer_s += other.transfer_s
        self.processing_s += other.processing_s
        self.polygon_pass_s += other.polygon_pass_s
        self.partition_s += other.partition_s
        self.triangulation_s += other.triangulation_s
        self.index_build_s += other.index_build_s
        self.io_s += other.io_s
        self.pip_tests += other.pip_tests
        self.points_processed += other.points_processed
        self.points_filtered_out += other.points_filtered_out
        self.boundary_points += other.boundary_points
        self.passes += other.passes
        self.batches += other.batches
        self.bytes_transferred += other.bytes_transferred
        self.prepared_hits += other.prepared_hits
        self.prepared_misses += other.prepared_misses
        self.prepared_store_hits += other.prepared_store_hits
        self.prepared_delta_hits += other.prepared_delta_hits
        # ``extra`` merges by type: numeric entries are per-execution
        # work counts (``boundary_pixels``, ``materialized_pairs``) and
        # sum; everything else — strings ("partition", "pool"), bools,
        # tuples — describes the execution environment, where the most
        # recent execution wins.  bool is checked before int/float
        # because it *is* an int in Python, and True+True == 2 would turn
        # a flag into a count.
        for key, value in other.extra.items():
            if isinstance(value, bool):
                self.extra[key] = value
            elif isinstance(value, (int, float)):
                base = self.extra.get(key, 0)
                if isinstance(base, (int, float)) and not isinstance(base, bool):
                    self.extra[key] = base + value
                else:
                    self.extra[key] = value
            else:
                self.extra[key] = value

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The §7.1 timing breakdown as an aligned two-column table."""
        rows: list[tuple[str, str]] = []

        def add(label: str, value) -> None:
            if isinstance(value, float):
                rows.append((label, f"{value:.4f}"))
            else:
                rows.append((label, f"{value}"))

        add("engine", self.engine or "?")
        add("transfer_s", self.transfer_s)
        add("processing_s", self.processing_s)
        add("  polygon_pass_s", self.polygon_pass_s)
        add("partition_s", self.partition_s)
        add("io_s", self.io_s)
        add("query_s", self.query_s)
        add("triangulation_s", self.triangulation_s)
        add("index_build_s", self.index_build_s)
        add("total_s", self.total_s)
        add("points_processed", self.points_processed)
        if self.points_filtered_out:
            add("points_filtered_out", self.points_filtered_out)
        if self.boundary_points:
            add("boundary_points", self.boundary_points)
        if self.pip_tests:
            add("pip_tests", self.pip_tests)
        add("passes", self.passes)
        add("batches", self.batches)
        add("bytes_transferred", self.bytes_transferred)
        if self.prepared_hits or self.prepared_misses:
            add("prepared_hits", self.prepared_hits)
            add("prepared_misses", self.prepared_misses)
        if self.prepared_store_hits:
            add("prepared_store_hits", self.prepared_store_hits)
        if self.prepared_delta_hits:
            add("prepared_delta_hits", self.prepared_delta_hits)
        for key in sorted(self.extra):
            add(f"extra.{key}", self.extra[key])
        width = max(len(label) for label, _ in rows)
        vwidth = max(len(value) for _, value in rows)
        lines = [f"{label.ljust(width)}  {value.rjust(vwidth)}"
                 for label, value in rows]
        return "\n".join(lines)

    def as_span_attrs(self) -> dict:
        """The stats ↔ span bridge: the breakdown as flat span attributes.

        Engines stamp this onto the query root span so exported traces
        carry the same §7.1 numbers as the stats object, without the
        exporters needing to know about :class:`ExecutionStats`.
        """
        attrs = {
            "engine": self.engine,
            "transfer_s": self.transfer_s,
            "processing_s": self.processing_s,
            "polygon_pass_s": self.polygon_pass_s,
            "partition_s": self.partition_s,
            "triangulation_s": self.triangulation_s,
            "index_build_s": self.index_build_s,
            "io_s": self.io_s,
            "query_s": self.query_s,
            "points_processed": self.points_processed,
            "pip_tests": self.pip_tests,
            "batches": self.batches,
            "bytes_transferred": self.bytes_transferred,
        }
        for key, value in self.extra.items():
            attrs[f"extra.{key}"] = value
        return attrs


@dataclass
class ResultIntervals:
    """Per-polygon result ranges for the bounded raster join (§5).

    ``loose_lo``/``loose_hi`` hold with 100% confidence: every false
    positive or negative lives in a boundary pixel, so subtracting or
    adding whole boundary-pixel totals bounds the exact value.  The
    ``expected_*`` interval assumes points are uniformly distributed within
    each (tiny) boundary pixel and scales boundary-pixel totals by the
    pixel∩polygon area fraction.
    """

    loose_lo: np.ndarray
    loose_hi: np.ndarray
    expected_lo: np.ndarray
    expected_hi: np.ndarray
    expected_value: np.ndarray

    def contains(self, exact: np.ndarray) -> np.ndarray:
        """Whether each exact value lies in the loose interval."""
        exact = np.asarray(exact, dtype=np.float64)
        return (exact >= self.loose_lo - 1e-9) & (exact <= self.loose_hi + 1e-9)


@dataclass
class AggregationResult:
    """The answer to one spatial aggregation query.

    ``values[i]`` is the aggregate for polygon ``i`` (the GROUP BY R.id
    output).  ``channels`` exposes the raw distributive parts (e.g. the sum
    and count behind an average).  ``intervals`` is populated only when the
    bounded engine is asked for result ranges.
    """

    values: np.ndarray
    channels: dict[str, np.ndarray]
    stats: ExecutionStats
    intervals: ResultIntervals | None = None
    #: Root :class:`repro.obs.trace.Span` of the execution, populated
    #: only when tracing was active (``$REPRO_TRACE`` or an ambient
    #: tracer such as ``EXPLAIN ANALYZE``); ``None`` otherwise.
    trace: object | None = None

    def __len__(self) -> int:
        return len(self.values)
