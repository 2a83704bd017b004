"""AST nodes for the spatial-aggregation SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AggregateSpec:
    """``COUNT(*)`` or ``SUM/AVG/MIN/MAX(table.column)``."""

    function: str              # COUNT | SUM | AVG | MIN | MAX
    column: str | None = None  # None only for COUNT(*)
    table: str | None = None

    def __str__(self) -> str:
        if self.function == "COUNT" and self.column is None:
            return "COUNT(*)"
        qual = f"{self.table}." if self.table else ""
        return f"{self.function}({qual}{self.column})"


@dataclass(frozen=True)
class Condition:
    """One filter clause: ``[table.]column op value``."""

    column: str
    op: str
    value: float
    table: str | None = None

    def __str__(self) -> str:
        qual = f"{self.table}." if self.table else ""
        return f"{qual}{self.column} {self.op} {self.value}"


@dataclass(frozen=True)
class SpatialPredicate:
    """``points.loc INSIDE regions.geometry [WITHIN eps]``.

    The optional WITHIN extends the paper's template with an explicit
    ε-bound, letting a statement opt into the bounded engine declaratively.
    """

    point_table: str
    point_column: str
    region_table: str
    region_column: str
    epsilon: float | None = None


@dataclass(frozen=True)
class SelectStatement:
    """The full query shape the planner accepts.

    ``aggregate`` is the first (primary) SELECT item; ``aggregates`` holds
    the full SELECT list when the statement asks for several aggregates in
    one pass (the paper's §8 multi-aggregate extension).

    ``explain_analyze`` marks an ``EXPLAIN ANALYZE`` prefix: the planner
    still executes the statement, but returns the result wrapped with the
    traced span tree annotated by the optimizer's per-term predictions
    (see :mod:`repro.sql.explain`).
    """

    aggregate: AggregateSpec
    point_table: str
    region_table: str
    spatial: SpatialPredicate
    conditions: tuple[Condition, ...] = field(default_factory=tuple)
    group_by_table: str | None = None
    group_by_column: str | None = None
    aggregates: tuple[AggregateSpec, ...] = ()
    explain_analyze: bool = False

    def select_list(self) -> tuple[AggregateSpec, ...]:
        """All SELECT items (falls back to the single primary aggregate)."""
        return self.aggregates if self.aggregates else (self.aggregate,)

    def __str__(self) -> str:
        # The canonical text keys the server's coalescing: everything
        # that changes the answer must be in it, the ε bound included.
        where = [
            f"{self.spatial.point_table}.{self.spatial.point_column} INSIDE "
            f"{self.spatial.region_table}.{self.spatial.region_column}"
            + ("" if self.spatial.epsilon is None
               else f" WITHIN {self.spatial.epsilon}")
        ]
        where += [str(c) for c in self.conditions]
        group = (
            f"{self.group_by_table}.{self.group_by_column}"
            if self.group_by_table
            else (self.group_by_column or "")
        )
        select = ", ".join(str(a) for a in self.select_list())
        prefix = "EXPLAIN ANALYZE " if self.explain_analyze else ""
        return (
            f"{prefix}SELECT {select} FROM {self.point_table}, "
            f"{self.region_table} WHERE {' AND '.join(where)} "
            f"GROUP BY {group}"
        )
