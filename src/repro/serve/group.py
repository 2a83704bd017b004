"""One execution answering several statements: the shared group run.

What concurrent statements over the same points, regions and filter set
can share is everything that does not depend on the aggregate — the
filter mask, the boundary classification, the PIP containment tests —
plus any channel two of them both need (``COUNT`` + ``AVG(fare)`` is the
two channels ``AVG`` needs anyway).  :class:`~repro.core.multi.MultiAggregate`
(the paper's §8 "multiple colour attachments") already is that, so a
group runs as **one ordinary** ``engine.execute`` over a
``MultiAggregate`` of its members, whichever engine and regime answers
it (exact — prewarmed or not — or bounded), and each member's result is
cut from the shared channels under its private channel names.

Bit-identity argument
---------------------
Channels never mix: every stage — scatter (or the cached channel read
in its place), boundary PIP, polygon pass, tile merge — loops over the
aggregate's channels and folds each one alone, in row order, through the one
:meth:`~repro.core.aggregates.Aggregate.reduce_segments`.  The rows a
channel sees depend on the filter set and the polygons' boundary mask,
both fixed by the group key — not on the batch cuts: the union plan
(union columns, the wider framebuffer) may cut a tile where a member
alone would not, and a tile folds its boundary matches once whatever
its cut (``docs/parallel_execution.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.aggregates import Aggregate
from repro.core.filters import FilterSet
from repro.core.multi import MultiAggregate
from repro.core.tiles import RasterJoinEngine
from repro.data.dataset import PointDataset
from repro.device.memory import ResidentPointSet
from repro.geometry.polygon import PolygonSet
from repro.types import AggregationResult


def shareable(aggregate: Aggregate) -> bool:
    """May this aggregate ride a shared execution?  Additive ones only:
    Min / Max blend differently, and a multi-item ``SELECT`` already is a
    ``MultiAggregate`` (they do not nest)."""
    return aggregate.blend == "add" and not isinstance(aggregate, MultiAggregate)


def execute_shared(
    engine: RasterJoinEngine,
    points: PointDataset | ResidentPointSet,
    polygons: PolygonSet,
    aggregates: Sequence[Aggregate],
    filters: FilterSet,
) -> list[AggregationResult]:
    """Answer every (shareable) aggregate from one ``engine.execute``.

    Returns one result per aggregate, in order — values and channels bit
    for bit what ``engine.execute`` would have returned for it alone.
    Every member's stats are a copy of the shared execution's with
    ``extra["fused_queries"]`` set to the group size; the span tree is
    the one execution's, shared.
    """
    multi = MultiAggregate(aggregates)
    shared = engine.execute(points, polygons, aggregate=multi, filters=filters)
    n = len(aggregates)
    if shared.trace is not None:
        shared.trace.attrs["fused_queries"] = n
    return [
        dataclasses.replace(
            shared, values=aggregate.finalize(channels), channels=channels,
            stats=dataclasses.replace(
                shared.stats, extra={**shared.stats.extra, "fused_queries": n}
            ),
        )
        for aggregate, channels in zip(
            aggregates, multi.split(shared.channels)
        )
    ]
