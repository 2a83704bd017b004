"""Shared-scan fusion: one point pass feeding several queries' aggregates.

The serving layer's generalization of :mod:`repro.core.multi`: where
``MultiAggregate`` fuses several SELECT items of *one* statement into one
framebuffer, this module fuses several concurrent *statements* — possibly
with different polygon sets, aggregates, and filters — into a single scan
of their shared point source.  There is no fused executor: a fused scan is
N members through the shared tile loop (:mod:`repro.core.tiles`), the same
loop a solo query runs as a group of one.  What this module adds is the
gates that decide which statements may share a scan, and the per-member
results.

Bit-identity argument
---------------------
The tile task shares, per batch and distinct filter set, the work that
does not depend on the query — upload, filter evaluation, the canvas
projection and the inside-viewport subset, in input order — and hands the
resulting arrays to each member's own routing with that member's own
boundary mask, framebuffer, grid, and identity-initialized per-tile
accumulators: the arithmetic of the member running alone, on the same
arrays, in the same order, merged by the same tile-index-order fold.  The
one thing a group changes is the batch plan (union columns, summed
framebuffer reservation), and batch boundaries are part of the float
grouping — so queries whose input would *not* fit a single batch are not
fused (:func:`fits_single_batch`), nor are queries the aggregate pyramid
would answer (the pyramid path groups floats differently than the exact
path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.pyramid import channel_kinds
from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Aggregate
from repro.core.filters import FilterSet
from repro.core.tiles import filter_key, member_columns, tile_fbo_bytes
from repro.data.dataset import PointDataset
from repro.device.batching import plan_batches
from repro.device.memory import ResidentPointSet
from repro.geometry.polygon import PolygonSet
from repro.obs import trace
from repro.types import AggregationResult, ExecutionStats


@dataclass
class FusedQuery:
    """One member of a fused scan: everything but the shared points."""

    polygons: PolygonSet
    aggregate: Aggregate
    filters: FilterSet


def fusable(engine, statement, points, regions, aggregate, filters) -> bool:
    """Cheap submit-time gate: may this query join a fused scan?

    Only the accurate engine is fused (the bounded engine's ε-canvas
    depends on the polygons, so two statements rarely share one), never
    an ``EXPLAIN ANALYZE`` (it owns the tracer), and never a query the
    warm aggregate pyramid would answer — the pyramid's block partials
    group floats differently than the exact path, so fusing such a query
    would change its bits relative to solo execution.
    """
    if type(engine) is not AccurateRasterJoin:
        return False
    if getattr(statement, "explain_analyze", False):
        return False
    if (
        not filters
        and channel_kinds(aggregate) is not None
        and engine.pyramid_warmth(points, regions)
    ):
        return False
    return True


def fusion_key(engine, points, regions) -> tuple:
    """Group key: queries fusable together share the scan's geometry.

    Same point source (by identity — the scan iterates it once), same
    render spec, and same polygon-set bounding box: the accurate engine
    derives its canvas (and therefore its tile layout and every
    ``pixel_of`` projection) from the polygon bbox alone, so equal boxes
    under an equal spec mean the shared projection is valid for every
    member.  ``execute_fused`` re-verifies the derived canvases match
    before trusting this.
    """
    bbox = regions.bbox
    return (
        id(points),
        engine.prepared_spec(),
        (bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax),
    )


def fits_single_batch(engine, points, columns, reserved_bytes) -> bool:
    """Whether the fused scan — and every member solo — is one batch.

    Device-less and device-resident inputs always are.  A host input is
    planned with the *union* column set and the *summed* framebuffer
    reservation, which upper-bounds every member's solo plan: if the
    union fits one batch, each member's narrower plan does too, so the
    solo runs being mirrored had whole-input float groupings as well.
    """
    if engine.device is None or isinstance(points, ResidentPointSet):
        return True
    plan = plan_batches(points, columns, engine.device, reserved_bytes)
    return plan.fits_in_one_batch


def _canvas_token(prepared) -> tuple:
    """Value identity of a prepared canvas + tile layout."""
    extent = prepared.canvas.extent
    return (
        extent.xmin, extent.ymin, extent.xmax, extent.ymax,
        prepared.canvas.width, prepared.canvas.height,
        len(prepared.tiles),
    )


def execute_fused(
    engine: AccurateRasterJoin,
    points: PointDataset | ResidentPointSet,
    queries: list[FusedQuery],
) -> list[AggregationResult] | None:
    """Run every member query off one shared point scan.

    Returns one :class:`AggregationResult` per member, in order — each
    bit-identical to what ``engine.execute`` would have produced solo —
    or ``None`` when a runtime gate fails (canvas mismatch across
    members, or the input does not fit a single batch), in which case
    the caller falls back to solo execution; nothing member-visible has
    been produced, only session prepared state that solo runs reuse.
    """
    n = len(queries)
    stats_list = [
        ExecutionStats(engine=engine.name, batches=0, passes=0)
        for _ in queries
    ]
    with trace.query_scope(engine.name) as root:
        members = [
            engine.member(
                query.polygons, query.aggregate, query.filters, stats
            )
            for query, stats in zip(queries, stats_list)
        ]
        if len({_canvas_token(m.prepared) for m in members}) != 1:
            return None
        tiles = members[0].prepared.tiles
        # The largest tile's framebuffers, every member's live at once.
        reserved = max(tile_fbo_bytes(engine.kernel, members))
        if not fits_single_batch(
            engine, points, member_columns(members), reserved
        ):
            return None
        with trace.span(
            "fused-scan", queries=n, tiles=len(tiles),
            groups=len({filter_key(query.filters) for query in queries}),
        ):
            run = engine.run_members(
                members, lambda: iter((points,)), stats_list,
                points_hint=points,
            )
        results: list[AggregationResult] = []
        for query, stats, accumulators in zip(
            queries, stats_list, run.accumulators
        ):
            if stats.batches == 0:
                stats.batches = 1
            # How many queries the point pass served.
            stats.extra["fused_queries"] = n
            results.append(AggregationResult(
                values=query.aggregate.finalize(accumulators),
                channels=accumulators,
                stats=stats,
                trace=root,
            ))
        if root is not None:
            root.attrs.update(stats_list[0].as_span_attrs())
            root.attrs["fused_queries"] = n
    if engine.session is not None:
        engine.session.checkpoint()
    return results
