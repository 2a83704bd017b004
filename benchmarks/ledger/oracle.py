"""Brute-force correctness oracle, owned by the ledger.

Shares no code with ``src/repro``: membership is an even-odd ray cast
written here, run per polygon over the points inside its bounding box.
The aggregates are plain numpy reductions over those member rows, so an
engine that agrees with this file agrees with the definition of the
query, not with another engine.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for float aggregates: engines and the oracle sum
#: in different orders.  Counts, and sums of integer-valued columns,
#: must match exactly and are compared with ``tolerance=0``.
FLOAT_RTOL = 1e-9


def members_of(ring: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row indices of the points inside one simple ring (even-odd rule)."""
    ring = np.asarray(ring, dtype=np.float64)
    box = np.flatnonzero(
        (xs >= ring[:, 0].min()) & (xs <= ring[:, 0].max())
        & (ys >= ring[:, 1].min()) & (ys <= ring[:, 1].max())
    )
    px, py = xs[box], ys[box]
    inside = np.zeros(len(box), dtype=bool)
    x0, y0 = ring[-1]
    for x1, y1 in ring:
        if y0 != y1:
            straddles = (y0 > py) != (y1 > py)
            cross_x = (x1 - x0) * (py - y0) / (y1 - y0) + x0
            inside ^= straddles & (px < cross_x)
        x0, y0 = x1, y1
    return box[inside]


def membership(rings, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    """``members_of`` for every polygon (exterior rings, no holes)."""
    return [members_of(ring, xs, ys) for ring in rings]


def aggregate(
    function: str,
    values: np.ndarray | None,
    members: list[np.ndarray],
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Per-polygon COUNT/SUM/AVG/MAX over member rows passing ``keep``.

    Empty groups give 0 for COUNT and SUM and NaN for AVG and MAX, the
    SQL frontend's conventions.
    """
    out = np.empty(len(members), dtype=np.float64)
    for pid, rows in enumerate(members):
        if keep is not None:
            rows = rows[keep[rows]]
        if function == "COUNT":
            out[pid] = len(rows)
        elif function == "SUM":
            out[pid] = values[rows].sum()
        elif len(rows) == 0:
            out[pid] = np.nan
        elif function == "AVG":
            out[pid] = values[rows].sum() / len(rows)
        elif function == "MAX":
            out[pid] = values[rows].max()
        else:
            raise ValueError(f"oracle has no aggregate {function!r}")
    return out


def agrees(answer: np.ndarray, expected: np.ndarray, tolerance: float) -> bool:
    """Whether an engine answer matches the oracle (NaNs must coincide)."""
    answer = np.asarray(answer, dtype=np.float64)
    if answer.shape != expected.shape:
        return False
    if tolerance == 0:
        return bool(np.array_equal(answer, expected, equal_nan=True))
    return bool(np.allclose(answer, expected, rtol=tolerance, atol=0.0,
                            equal_nan=True))
