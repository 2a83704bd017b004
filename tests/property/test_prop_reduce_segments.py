"""The polygon pass's run reduction, run through a table's plan, against
one call.

A run table's plan (``TileCoverage.build``) holds its runs' bounds
sorted by ``lo`` and cut into pieces, one ``reduceat`` each
(``Aggregate.reduce_coverage``): a piece begins where a run starts more
than a fixed span past every run before it, so the uncovered canvas
between pieces is never read, or in a new cast block, so a float32
channel summed in float64 casts a block at a time.  Every run is the
same ufunc over the same elements in the same order whichever piece it
falls in, so one plan, built once, must give every channel the single
call's bits — compared as raw ``uint64`` / ``uint32`` words, so NaN
payloads and the sign of zero count — for add, min and max over float64
and float32 channels, over overlapping, nested and adjacent runs, runs
that cross a cast block, a run ending at ``len(values)``, gaps just
under and just over the span, non-finite values and no runs at all;
and, like the single call it replaces, it must not warn.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Max, Min, Sum
from repro.cache import prepared
from repro.cache.prepared import _SPLIT_SPAN, TileCoverage

AGGREGATES = [Sum("v"), Min("v"), Max("v")]


def single_call(aggregate, values, starts, ends):
    """The reduction as one ``reduceat`` over the whole of ``values``."""
    if aggregate.blend == "add":
        ufunc, kwargs = np.add, {"dtype": np.float64}
    else:
        ufunc = np.minimum if aggregate.blend == "min" else np.maximum
        kwargs = {}
    last = ends == len(values)
    bounds = np.column_stack([starts, np.where(last, starts, ends)])
    with np.errstate(invalid="ignore", over="ignore"):
        out = ufunc.reduceat(values, bounds.ravel(), **kwargs)[::2]
        for k in np.flatnonzero(last):
            out[k] = ufunc.reduceat(values[starts[k]:], [0], **kwargs)[0]
    return out


GAPS = ["adjacent", "overlap", "nested", "near", "under", "at", "over",
        "far"]


@st.composite
def run_tables(draw):
    """Runs ascending by start, each placed relative to the last run and
    the furthest end so far; then the channel, which may end exactly
    where a run does."""
    starts: list[int] = []
    ends: list[int] = []
    for _ in range(draw(st.integers(0, 14))):
        length = draw(st.integers(1, 60))
        if not starts:
            lo = draw(st.integers(0, 40))
            starts.append(lo)
            ends.append(lo + length)
            continue
        reach = max(ends)
        gap = draw(st.sampled_from(GAPS))
        if gap == "adjacent":
            lo, hi = ends[-1], ends[-1] + length
        elif gap in ("overlap", "nested"):
            lo = draw(st.integers(starts[-1], ends[-1] - 1))
            hi = (draw(st.integers(lo + 1, ends[-1])) if gap == "nested"
                  else ends[-1] + length)
        else:
            lo = reach + {
                "near": draw(st.integers(0, 30)),
                "under": _SPLIT_SPAN - draw(st.integers(0, 2)),
                "at": _SPLIT_SPAN,
                "over": _SPLIT_SPAN + draw(st.integers(1, 2)),
                "far": 3 * _SPLIT_SPAN + draw(st.integers(0, 500)),
            }[gap]
            hi = lo + length
        starts.append(lo)
        ends.append(hi)
    tail = draw(st.sampled_from([0, 0, 1, 2, 50, _SPLIT_SPAN + 7]))
    n = max([*ends, draw(st.integers(1, 80))]) + tail
    return (np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64), n)


@st.composite
def channels(draw, n, dtype):
    """A ``dtype`` channel of ``n`` values with ±inf, NaN and -0.0
    mixed in at drawn shares."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    values = rng.normal(0.0, 1e3, n)
    for special in (np.inf, -np.inf, np.nan, -0.0, 0.0):
        share = draw(st.sampled_from([0.0, 0.01, 0.3]))
        values[rng.uniform(0.0, 1.0, n) < share] = special
    return values.astype(dtype)


def bits(array):
    """The raw words of a float64 or float32 array."""
    words = np.uint64 if array.dtype == np.float64 else np.uint32
    return np.ascontiguousarray(array).view(words)


def planned(starts, ends, n, shuffle=None):
    """A table with one run per polygon, the runs laid out in polygon
    order ``shuffle`` (a permutation of the runs sorted by start), and
    its plan over ``n`` values."""
    runs = np.column_stack([starts, ends])
    if shuffle is not None:
        runs = runs[shuffle]
    ids = np.arange(len(runs), dtype=np.int64)
    return TileCoverage.build(runs, ids, ids, n)


def reduce_planned(aggregate, values, table):
    """The polygon pass's reduction of one channel through ``table``."""
    return aggregate.reduce_coverage({"v": values}, table)["v"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_split_reduction_is_the_single_call(data):
    starts, ends, n = data.draw(run_tables())
    shuffle = data.draw(st.permutations(range(len(starts))))
    # The cuts also fall at every cast block boundary; small blocks cut
    # these small tables, inside runs and gaps alike.
    block = data.draw(st.sampled_from([1, 7, 64, prepared._CAST_BLOCK]))
    with mock.patch.object(prepared, "_CAST_BLOCK", block):
        table = planned(starts, ends, n, np.asarray(shuffle, dtype=np.int64))
    # One plan, every channel: float64 and float32 (the cast path).
    for values in (data.draw(channels(n, np.float64)),
                   data.draw(channels(n, np.float32))):
        for aggregate in AGGREGATES:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = reduce_planned(aggregate, values, table)
            want = single_call(aggregate, values, starts, ends)[shuffle]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(bits(got), bits(want)), aggregate


def test_runs_on_either_side_of_the_span():
    """Under or at the span one call reads the gap, over it two calls
    skip it; a run ending the channel is reduced in either case."""
    values = np.arange(3 * _SPLIT_SPAN, dtype=np.float64)
    for gap in (_SPLIT_SPAN - 1, _SPLIT_SPAN, _SPLIT_SPAN + 1):
        starts = np.asarray([0, 10 + gap], dtype=np.int64)
        ends = np.asarray([10, len(values)], dtype=np.int64)
        table = planned(starts, ends, len(values))
        assert len(table.pieces) == 1 + (gap > _SPLIT_SPAN)
        assert table.last.tolist() == [[1, 10 + gap]]
        got = reduce_planned(Sum("v"), values, table)
        assert got.tolist() == [45.0, values[10 + gap:].sum()]


def test_runs_across_a_cast_block():
    """A run crossing a block boundary stays one run of its piece; the
    next run starting in the new block begins a piece, read from its
    own start, for a float32 sum and a float64 one alike."""
    block = prepared._CAST_BLOCK
    starts = np.asarray([block - 5, block + 3], dtype=np.int64)
    ends = np.asarray([block + 2, block + 9], dtype=np.int64)
    table = planned(starts, ends, block + 20)
    assert table.pieces.tolist() == [
        [1, block - 5, block + 3], [2, block + 3, block + 10],
    ]
    assert table.bounds.tolist() == [[0, 7], [0, 6]]
    for dtype in (np.float64, np.float32):
        values = np.arange(block + 20).astype(dtype)
        got = reduce_planned(Sum("v"), values, table)
        want = single_call(Sum("v"), values, starts, ends)
        assert np.array_equal(bits(got), bits(want))


def test_no_runs():
    empty = np.zeros(0, dtype=np.int64)
    table = planned(empty, empty, 9)
    for aggregate in AGGREGATES:
        got = reduce_planned(aggregate, np.ones(9), table)
        assert got.shape == (0,) and got.dtype == np.float64
