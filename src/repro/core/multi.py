"""Multiple aggregates per query (the paper's §8 extension).

The paper computes one aggregate per query and notes the implementation
"can be extended to support multiple aggregate functions by having
multiple color attachments to the FBO", at the cost of extra memory
transfer.  :class:`MultiAggregate` is that extension: it fuses several
additive aggregates (count / sum / avg, in any mix) into one channel set,
de-duplicating shared channels — ``Count()`` and ``Average("fare")``
together need only ``count`` and ``sum:fare`` — so a single point pass and
a single polygon pass produce every answer.

Order-statistic aggregates (min/max) use a different blend equation and
cannot share a pass with additive ones; they are rejected up front.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregates import Aggregate
from repro.errors import QueryError


def _canonical_channel(column: str | None) -> str:
    """Stable channel name shared across sub-aggregates."""
    return "count" if column is None else f"sum:{column}"


class MultiAggregate(Aggregate):
    """Several additive aggregates evaluated in one rendering pass."""

    name = "multi"
    blend = "add"

    def __init__(self, aggregates: Sequence[Aggregate]) -> None:
        if not aggregates:
            raise QueryError("MultiAggregate needs at least one aggregate")
        for agg in aggregates:
            if agg.blend != "add":
                raise QueryError(
                    f"{type(agg).__name__} uses a {agg.blend!r} blend and "
                    "cannot share a pass with additive aggregates"
                )
            if isinstance(agg, MultiAggregate):
                raise QueryError("MultiAggregate cannot be nested")
        self.aggregates: tuple[Aggregate, ...] = tuple(aggregates)

        # Union of sub-aggregate channels under canonical names, plus the
        # per-sub-aggregate mapping back to its private channel names.
        self.channels = {}
        self._remaps: list[dict[str, str]] = []
        for agg in self.aggregates:
            remap = {}
            for private_name, column in agg.channels.items():
                canonical = _canonical_channel(column)
                self.channels[canonical] = column
                remap[private_name] = canonical
            self._remaps.append(remap)

    # ------------------------------------------------------------------
    @property
    def output_names(self) -> tuple[str, ...]:
        """One label per sub-aggregate, e.g. ``('count', 'avg(fare)')``;
        a repeated item carries its position (``'sum(fare)#2'``) so every
        item keeps a label of its own."""
        names: list[str] = []
        for position, agg in enumerate(self.aggregates):
            column = getattr(agg, "column", None)
            label = f"{agg.name}({column})" if column else agg.name
            names.append(f"{label}#{position}" if label in names else label)
        return tuple(names)

    def split(self, reduced: dict[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
        """Per sub-aggregate, in order: its channels under its own
        (private) names, cut from the shared canonical ones — exactly
        the ``channels`` its solo execution would have returned."""
        return [
            {private: reduced[canonical] for private, canonical in remap.items()}
            for remap in self._remaps
        ]

    def finalize(self, reduced: dict[str, np.ndarray]) -> np.ndarray:
        """The engine-facing single result: the first sub-aggregate."""
        return self.aggregates[0].finalize(self.split(reduced)[0])

    def finalize_all(self, reduced: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Every sub-aggregate's values from the shared channels."""
        return {
            label: agg.finalize(private)
            for label, agg, private in zip(
                self.output_names, self.aggregates, self.split(reduced)
            )
        }

    def __repr__(self) -> str:
        return f"MultiAggregate({', '.join(self.output_names)})"
