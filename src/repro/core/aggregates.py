"""Aggregate functions over the spatial join.

The paper supports distributive aggregates (count, sum, min, max) and
algebraic ones built from them (average) — §5.  Holistic aggregates
(median, ...) are out of scope by design: they cannot be computed from
per-pixel partial aggregates.

An :class:`Aggregate` describes (a) which FBO channels the point pass must
maintain and from which attribute column, (b) how fragments blend into a
channel (addition for count/sum, min/max for the order statistics), and
(c) how final per-polygon values emerge from the reduced channels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import QueryError


#: A run starting more than this many values past every run before it
#: begins a new ``reduceat`` call in :func:`_reduce_runs`: four rows of
#: a 1024² canvas.  Every span from 1024 to 65536 cuts the ledger's
#: prewarmed frames into the same three pieces (two corner anchors and
#: the window between them); a span under one row's gap would pay a
#: call per row.
_SPLIT_SPAN = 4096

#: A float32 channel summed in float64 is cut into pieces of runs that
#: start in one block of this many values: ``reduceat`` casts all of
#: what it is handed before reducing it, and a cast of a few MB stays in
#: cache where one of the whole canvas faults in a fresh array.
_CAST_BLOCK = 1 << 18


def _reduce_runs(ufunc, kwargs, values, starts, ends):
    """``ufunc`` over each run ``values[starts[k]:ends[k]]``, the runs
    ascending by start, possibly overlapping.

    One ``reduceat`` through the interleaved bounds per *piece* of the
    runs; every other result reduces the gap between two runs and is
    dropped.  A piece ends where the next run starts more than
    :data:`_SPLIT_SPAN` values past the furthest end so far, and its
    call reads to one past its furthest end, so the gaps between pieces
    — the uncovered canvas — are never reduced.  A call that casts
    (float32 values summed in float64) also reads from its first start
    only, since ``reduceat`` casts all of its operand, and its pieces
    are cut at every :data:`_CAST_BLOCK` boundary too.  Each run is the
    same ufunc over the same elements in the same order whatever piece
    it falls in, so the split keeps every result's bits.  ``reduceat``
    rejects a bound equal to the length of what it reads: only a run
    ending at ``len(values)`` meets one, and it collapses to its start
    and is reduced on its own.
    """
    n = len(values)
    last = ends == n
    bounds = np.column_stack([starts, np.where(last, starts, ends)]).ravel()
    stops, tops = [len(starts)], [n]
    # A gap wider than the span past the previous run's end is a cut
    # when it is wider than that past every earlier run's end, too.
    gaps = np.flatnonzero(starts[1:] > ends[:-1] + _SPLIT_SPAN) + 1
    if len(gaps):
        reach = np.maximum.accumulate(
            np.maximum.reduceat(ends, np.append(0, gaps))
        )
        cut = starts[gaps] > reach[:-1] + _SPLIT_SPAN
        stops = np.append(gaps[cut], len(starts)).tolist()
        tops = np.minimum(np.append(reach[:-1][cut], reach[-1]) + 1,
                          n).tolist()
    cast = len(starts) and values.dtype != kwargs.get("dtype", values.dtype)
    if cast:
        firsts = np.union1d(
            [0, *stops[:-1]],
            np.flatnonzero(np.diff(starts // _CAST_BLOCK)) + 1,
        )
        stops = [*firsts[1:].tolist(), len(starts)]
        tops = np.minimum(np.maximum.reduceat(ends, firsts) + 1, n).tolist()
    pieces, first = [], 0
    for stop, top in zip(stops, tops):
        piece = bounds[2 * first:2 * stop]
        lo = int(piece[0]) if cast else 0
        pieces.append(ufunc.reduceat(
            values[lo:top], piece - lo if lo else piece, **kwargs
        )[::2])
        first = stop
    out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    for k in np.flatnonzero(last):
        out[k] = ufunc.reduceat(values[starts[k]:], [0], **kwargs)[0]
    return out


class Aggregate(ABC):
    """A distributive or algebraic aggregate function."""

    #: channel name -> attribute column (None means "the constant 1")
    channels: dict[str, str | None]
    #: "add", "min" or "max" — the FBO blend equation
    blend: str = "add"
    name: str = "agg"

    @property
    def columns(self) -> tuple[str, ...]:
        """Attribute columns this aggregate reads (transfer payload)."""
        return tuple(col for col in self.channels.values() if col is not None)

    def identity(self) -> float:
        """Neutral element for the blend equation."""
        if self.blend == "add":
            return 0.0
        return np.inf if self.blend == "min" else -np.inf

    def blend_into(self, accumulator: np.ndarray, ids: np.ndarray,
                   values: np.ndarray | float) -> None:
        """Scatter per-item values into result slots with the blend rule."""
        # +inf meeting -inf is NaN and a NaN value poisons its slot: the
        # answer, not a fault (as in FrameBuffer.scatter).
        with np.errstate(invalid="ignore"):
            if self.blend == "add":
                np.add.at(accumulator, ids, values)
            elif self.blend == "min":
                np.minimum.at(accumulator, ids, values)
            else:
                np.maximum.at(accumulator, ids, values)

    def reduce_segments(
        self, values: np.ndarray, starts: np.ndarray,
        ends: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduce the consecutive segments of ``values`` beginning at
        ``starts`` — one polygon's coverage runs, or its matched boundary
        points, per segment — or, given ``ends``, the segments
        ``values[starts[k]:ends[k]]``: coverage runs over a framebuffer,
        ascending by start and possibly overlapping.

        The one place a partial's reduction tree is defined: the polygon
        pass and the boundary PIP of every engine, backend and cache
        tier fold through here, so they agree bit for bit.  Sums
        accumulate in float64 whatever the framebuffer's dtype.  Every
        segment must be non-empty (``reduceat`` yields the *element* at
        a start, not the identity, for an empty one): callers keep only
        polygons that own at least one value, and the rest stay at
        :meth:`identity` in the accumulators.
        """
        if self.blend == "add":
            ufunc, kwargs = np.add, {"dtype": np.float64}
        else:
            ufunc = np.minimum if self.blend == "min" else np.maximum
            kwargs = {}
        # A segment summing +inf and -inf is NaN, the answer; the gaps
        # between runs are dropped, so their ``inf - inf`` or overflow
        # must not warn either.
        with np.errstate(invalid="ignore", over="ignore"):
            if ends is None:
                return ufunc.reduceat(values, starts, **kwargs)
            return _reduce_runs(ufunc, kwargs, values, starts, ends)

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Merge partial results from two batches/tiles.

        Identity slots are absorbing-neutral: a tile that saw no pixels
        for a polygon contributes ``identity()`` and the merge leaves the
        other operand's value bit-unchanged (``x + 0.0 == x`` exactly in
        IEEE float64 except for ``-0.0``, which no reduction here
        produces from a true sum; ``minimum(x, inf)``/``maximum(x,
        -inf)`` return ``x`` exactly).  NaN is deliberately *not*
        neutral — a NaN attribute value poisons min/max merges, matching
        ``np.minimum``/``np.maximum`` semantics in :meth:`reduce_segments`.
        """
        if self.blend == "add":
            # +inf from one part and -inf from the other is NaN, the
            # answer, as within one part (reduce_segments).
            with np.errstate(invalid="ignore"):
                return a + b
        return np.minimum(a, b) if self.blend == "min" else np.maximum(a, b)

    @abstractmethod
    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        """Per-polygon final values from the reduced channels."""

    def __repr__(self) -> str:
        cols = ", ".join(self.columns)
        return f"{type(self).__name__}({cols})"


class Count(Aggregate):
    """COUNT(*) — the paper's headline aggregate."""

    name = "count"

    def __init__(self) -> None:
        self.channels = {"count": None}

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        return reduced["count"].astype(np.float64)


class Sum(Aggregate):
    """SUM(attribute)."""

    name = "sum"

    def __init__(self, column: str) -> None:
        if not column:
            raise QueryError("Sum needs an attribute column")
        self.column = column
        self.channels = {"sum": column}

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        return reduced["sum"].astype(np.float64)


class Average(Aggregate):
    """AVG(attribute) — algebraic: sum channel divided by count channel."""

    name = "avg"

    def __init__(self, column: str) -> None:
        if not column:
            raise QueryError("Average needs an attribute column")
        self.column = column
        self.channels = {"sum": column, "count": None}

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        counts = reduced["count"].astype(np.float64)
        sums = reduced["sum"].astype(np.float64)
        out = np.full(len(counts), np.nan, dtype=np.float64)
        nonzero = counts > 0
        out[nonzero] = sums[nonzero] / counts[nonzero]
        return out


class Min(Aggregate):
    """MIN(attribute) — distributive with a min blend equation.

    An extension beyond the paper's implementation (its §5 notes the
    approach applies to any distributive aggregate; the authors implement
    count/sum/avg).  Note the *bounded* engine's min/max error is
    two-sided rather than ε-bounded: a boundary pixel attributes every
    point on it to every polygon touching that pixel, so a neighbouring
    point's value can be pulled in (making the reported min too small /
    max too large) *and* a genuinely-inside point near the boundary can
    be credited to an adjacent polygon instead (making the reported min
    too large / max too small when it was the extremum).  The accurate
    engine resolves boundary pixels exactly.

    ``finalize`` maps only *identity* slots — polygons no contributing
    point ever blended into, still holding ``+inf`` — to NaN, the
    SQL-style "MIN of the empty set".  A legitimate ``-inf`` attribute
    value (or a NaN one, which poisons the blend) passes through
    untouched.  The one residual ambiguity is an attribute value exactly
    equal to the identity itself: a polygon whose true minimum is
    ``+inf`` is indistinguishable from an empty one and reports NaN.
    """

    name = "min"
    blend = "min"

    def __init__(self, column: str) -> None:
        if not column:
            raise QueryError("Min needs an attribute column")
        self.column = column
        self.channels = {"min": column}

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        out = reduced["min"].astype(np.float64)
        out[out == self.identity()] = np.nan
        return out


class Max(Aggregate):
    """MAX(attribute) — see :class:`Min` (mirror-image semantics:
    untouched ``-inf`` identity slots finalize to NaN; legitimate
    ``+inf`` and NaN values pass through)."""

    name = "max"
    blend = "max"

    def __init__(self, column: str) -> None:
        if not column:
            raise QueryError("Max needs an attribute column")
        self.column = column
        self.channels = {"max": column}

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        out = reduced["max"].astype(np.float64)
        out[out == self.identity()] = np.nan
        return out
