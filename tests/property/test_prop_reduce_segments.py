"""The polygon pass's run reduction, split at wide gaps, against one call.

``Aggregate.reduce_segments(values, lo, hi)`` reduces runs sorted by
``lo`` through interleaved bounds, one ``reduceat`` per piece of the
runs: a piece ends where the next run starts more than a fixed span past
every run before it, so the uncovered canvas between pieces is never
read.  Every run is the same ufunc over the same elements in the same
order whichever piece it falls in, so the result must be the single
call's bit for bit — compared as ``uint64`` words, so NaN payloads and
the sign of zero count — for add, min and max, over overlapping, nested
and adjacent runs, a run ending at ``len(values)``, gaps just under and
just over the span, non-finite values and no runs at all; and, like the
single call it replaces, it must not warn.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Max, Min, Sum
from repro.core import aggregates
from repro.core.aggregates import _SPLIT_SPAN

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
def channels(draw, n):
    """A float64 or float32 channel of ``n`` values with ±inf, NaN and
    -0.0 mixed in at drawn shares."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    values = rng.normal(0.0, 1e3, n)
    for special in (np.inf, -np.inf, np.nan, -0.0, 0.0):
        share = draw(st.sampled_from([0.0, 0.01, 0.3]))
        values[rng.uniform(0.0, 1.0, n) < share] = special
    return values.astype(draw(st.sampled_from([np.float64, np.float32])))


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_split_reduction_is_the_single_call(data):
    starts, ends, n = data.draw(run_tables())
    values = data.draw(channels(n))
    # A float32 channel's sums are also cut at every block boundary;
    # small blocks cut these small tables, inside runs and gaps alike.
    block = data.draw(st.sampled_from([1, 7, 64, aggregates._CAST_BLOCK]))
    for aggregate in AGGREGATES:
        with warnings.catch_warnings(), \
                mock.patch.object(aggregates, "_CAST_BLOCK", block):
            warnings.simplefilter("error", RuntimeWarning)
            got = aggregate.reduce_segments(values, starts, ends)
        want = single_call(aggregate, values, starts, ends)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(bits(got), bits(want)), aggregate


def test_runs_on_either_side_of_the_span():
    """Under or at the span one call reads the gap, over it two calls
    skip it; a run ending the channel is reduced in either case."""
    values = np.arange(3 * _SPLIT_SPAN, dtype=np.float64)
    for gap in (_SPLIT_SPAN - 1, _SPLIT_SPAN, _SPLIT_SPAN + 1):
        starts = np.asarray([0, 10 + gap], dtype=np.int64)
        ends = np.asarray([10, len(values)], dtype=np.int64)
        got = Sum("v").reduce_segments(values, starts, ends)
        assert got.tolist() == [45.0, values[10 + gap:].sum()]


def test_no_runs():
    empty = np.zeros(0, dtype=np.int64)
    for aggregate in AGGREGATES:
        got = aggregate.reduce_segments(np.ones(9), empty, empty)
        assert got.shape == (0,) and got.dtype == np.float64
