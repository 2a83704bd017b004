"""Attribute filter constraints (the query's ``filterCondition`` clauses).

Filters are evaluated in the vertex stage, before any rasterization or PIP
work, exactly as the paper does: "the vertex shader discards the points
that do not satisfy the constraint" (§5).  Because attributes travel to the
device inside the vertex payload, each *distinct filtered column* increases
the per-point transfer size — the effect Figure 11 measures — and the
implementation mirrors the paper's fixed-vertex-size restriction by
allowing at most :data:`MAX_CONSTRAINT_COLUMNS` distinct columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import FilterError

#: The paper's implementation supports conjunctions over at most five
#: attributes because vertex size is fixed at shader-compile time (§6.1).
MAX_CONSTRAINT_COLUMNS = 5

_OPERATORS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "=": np.equal,
    "==": np.equal,
    "!=": np.not_equal,
}


@dataclass(frozen=True)
class Filter:
    """One comparison constraint: ``column op value``."""

    column: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise FilterError(
                f"unsupported operator {self.op!r}; "
                f"supported: {sorted(_OPERATORS)}"
            )
        if not self.column:
            raise FilterError("filter column must be non-empty")

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Vectorized predicate over a column array."""
        return _OPERATORS[self.op](values, self.value)

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value}"


class FilterSet:
    """A conjunction of filters, applied as one vertex-stage mask."""

    def __init__(self, filters: Iterable[Filter] = ()) -> None:
        self.filters: tuple[Filter, ...] = tuple(filters)
        columns = sorted({f.column for f in self.filters})
        if len(columns) > MAX_CONSTRAINT_COLUMNS:
            raise FilterError(
                f"constraints touch {len(columns)} columns; the vertex "
                f"payload supports at most {MAX_CONSTRAINT_COLUMNS} "
                f"(paper §6.1 'Query Options')"
            )
        self.columns: tuple[str, ...] = tuple(columns)

    def __len__(self) -> int:
        return len(self.filters)

    def __bool__(self) -> bool:
        return bool(self.filters)

    @staticmethod
    def coerce(
        filters: "FilterSet | Sequence[Filter] | None",
    ) -> "FilterSet":
        if filters is None:
            return FilterSet()
        if isinstance(filters, FilterSet):
            return filters
        return FilterSet(filters)

    def mask(self, column_getter: Callable[[str], np.ndarray], n: int) -> np.ndarray:
        """Conjunction mask over ``n`` rows.

        ``column_getter`` maps a column name to its array — either host or
        device-resident — so the same code path serves every engine.
        """
        keep = np.ones(n, dtype=bool)
        for f in self.filters:
            keep &= f.mask(column_getter(f.column))
        return keep

    def __str__(self) -> str:
        return " AND ".join(str(f) for f in self.filters) or "TRUE"


def filter_key(filters: FilterSet) -> tuple:
    """Value identity of a filter conjunction: queries with equal keys
    keep the same rows, so they can share one filter mask."""
    return tuple((f.column, f.op, f.value) for f in filters.filters)
