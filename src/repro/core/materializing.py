"""Zhang-style materializing join — the Table 2 comparator.

The state-of-the-art GPU spatial join the paper compares against (Zhang et
al., "Efficient parallel zonal statistics...") differs from the fused
index join in three ways that this engine reproduces:

1. the *points* are indexed with a quadtree for load balancing and batch
   formation;
2. the join is **materialized**: candidate (point, polygon) pairs from the
   MBR filter are expanded into explicit pair arrays, refined with PIP
   tests into a match list, and only then aggregated — costing memory
   allocations, extra passes, and (on the simulated device) capacity that
   shrinks the usable point batch;
3. point coordinates are truncated to 16-bit fixed point ("to improve
   efficiency, they truncate coordinates to 16-bit integers, thus
   resulting in approximate joins as well").

The paper's Table 2 shows its fused index join beating this design 2–3x;
`bench_table2_gpu_baseline` regenerates that comparison.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.session import QuerySession
from repro.core.aggregates import Aggregate
from repro.core.engine import (
    SpatialAggregationEngine,
    apply_filters,
    new_accumulators,
    point_batches,
)
from repro.core.filters import FilterSet
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice, ResidentPointSet
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.index.quadtree import PointQuadtree
from repro.obs import trace
from repro.types import ExecutionStats


class MaterializingJoin(SpatialAggregationEngine):
    """Materialize-then-aggregate GPU join in the style of Zhang et al."""

    name = "materializing-join"

    def __init__(
        self,
        device: GPUDevice | None = None,
        leaf_capacity: int = 65_536,
        truncate_bits: int | None = 16,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        # The default leaf capacity mirrors the comparator's large
        # per-thread-block GPU batches; smaller leaves would give it
        # unrealistically tight MBR filters.
        super().__init__(device, session=session, config=config)
        self.leaf_capacity = leaf_capacity
        self.truncate_bits = truncate_bits

    def prepared_spec(self) -> tuple:
        """The render-spec part of this engine's artifact cache key."""
        return ("mbr-arrays",)

    def _run(
        self,
        points: PointDataset | ResidentPointSet,
        polygons: PolygonSet,
        aggregate: Aggregate,
        filters: FilterSet,
        stats: ExecutionStats,
    ) -> tuple[np.ndarray, dict[str, np.ndarray], None]:
        accumulators = new_accumulators(polygons, aggregate)
        columns = self.required_columns(aggregate, filters)
        # The materializing join renders no tiles; it still reports the
        # execution environment uniformly across engines.
        self._record_execution_env(stats, 1)
        # Polygon-side preparation: columnar MBRs and the refinement's
        # edge table, reused via the session.
        prepared = self._prepared_state(polygons, self.prepared_spec(), stats)
        edges = prepared.ensure_edge_table(polygons)
        poly_xmin, poly_xmax, poly_ymin, poly_ymax = edges.mbrs

        for batch in point_batches(points, columns, self.device, stats):
            start = time.perf_counter()
            xs, ys, attrs = apply_filters(batch, filters, stats)
            # A non-finite coordinate is outside everything by rule (and
            # has no place in the quadtree's bounding box).
            finite = np.isfinite(xs) & np.isfinite(ys)
            if not finite.all():
                xs, ys = xs[finite], ys[finite]
                attrs = {name: arr[finite] for name, arr in attrs.items()}
            if len(xs) == 0:
                stats.processing_s += time.perf_counter() - start
                continue
            xs, ys = self._truncate(xs, ys, polygons)
            # Point quadtree: the comparator's load-balancing structure.
            with trace.span("index-build"):
                qtree = PointQuadtree(
                    xs, ys, leaf_capacity=self.leaf_capacity
                )
            stats.index_build_s += qtree.build_seconds

            # Filter step: leaf MBR x polygon MBR -> materialized pairs.
            pair_points: list[np.ndarray] = []
            pair_polys: list[np.ndarray] = []
            with trace.span("materialize"):
                for leaf in qtree.leaves():
                    box = leaf.bbox
                    hits = np.flatnonzero(
                        (poly_xmin <= box.xmax) & (poly_xmax >= box.xmin)
                        & (poly_ymin <= box.ymax) & (poly_ymax >= box.ymin)
                    )
                    if len(hits) == 0:
                        continue
                    ids = qtree.leaf_point_ids(leaf)
                    # Materialization: the full candidate cross product is
                    # written out as explicit pair arrays (the memory cost
                    # the paper's Insight 1 avoids).
                    pair_points.append(np.repeat(ids, len(hits)))
                    pair_polys.append(np.tile(hits, len(ids)))
            if not pair_points:
                stats.processing_s += time.perf_counter() - start
                continue
            cand_pt = np.concatenate(pair_points)
            cand_poly = np.concatenate(pair_polys)
            stats.extra["materialized_pairs"] = (
                stats.extra.get("materialized_pairs", 0) + len(cand_pt)
            )

            # Tighten with per-point MBR tests, still materialized.
            keep = (
                (xs[cand_pt] >= poly_xmin[cand_poly])
                & (xs[cand_pt] <= poly_xmax[cand_poly])
                & (ys[cand_pt] >= poly_ymin[cand_poly])
                & (ys[cand_pt] <= poly_ymax[cand_poly])
            )
            cand_pt = cand_pt[keep]
            cand_poly = cand_poly[keep]
            if len(cand_pt) == 0:
                # Every point lies outside every polygon's MBR: nothing
                # to refine (an empty pair list has no polygon groups).
                stats.processing_s += time.perf_counter() - start
                continue

            # Refinement: one PIP test per candidate pair, producing the
            # match list — polygon-major, each polygon's candidates in
            # their materialized order.
            order = np.argsort(cand_poly, kind="stable")
            cand_pt = cand_pt[order]
            cand_poly = cand_poly[order]
            with trace.span("pip-refine", pairs=int(len(cand_poly))):
                inside = edges.contains_pairs(
                    xs[cand_pt], ys[cand_pt], cand_poly
                )
            stats.pip_tests += len(cand_poly)
            joined_pt = cand_pt[inside]
            joined_poly = cand_poly[inside]
            if len(joined_pt):
                stats.extra["join_size"] = (
                    stats.extra.get("join_size", 0) + len(joined_pt)
                )
                # Separate aggregation pass over the materialized join.
                for ch, col in aggregate.channels.items():
                    values = (
                        attrs[col][joined_pt] if col is not None else 1.0
                    )
                    aggregate.blend_into(accumulators[ch], joined_poly, values)
            stats.processing_s += time.perf_counter() - start
        return aggregate.finalize(accumulators), accumulators, None

    # ------------------------------------------------------------------
    def _truncate(
        self, xs: np.ndarray, ys: np.ndarray, polygons: PolygonSet
    ) -> tuple[np.ndarray, np.ndarray]:
        """Snap coordinates to a 2^bits fixed-point lattice over the extent.

        Reproduces the comparator's 16-bit coordinate compression, the
        source of its approximation error.  The lattice continues past
        the extent at the same pitch: truncation quantizes a point, it
        never relocates one — a point outside the polygon-set bbox stays
        outside (clipping it onto the border would count it in), so an
        out-of-extent coordinate snaps to the nearest lattice line that
        is itself outside.
        """
        if self.truncate_bits is None:
            return xs, ys
        levels = float((1 << self.truncate_bits) - 1)

        def snap(fraction: np.ndarray) -> np.ndarray:
            q = np.rint(fraction * levels)
            q = np.where(fraction < 0.0, np.minimum(q, -1.0), q)
            q = np.where(fraction > 1.0, np.maximum(q, levels + 1.0), q)
            return q / levels

        box = polygons.bbox
        qx = snap((xs - box.xmin) / max(box.width, 1e-300))
        qy = snap((ys - box.ymin) / max(box.height, 1e-300))
        return box.xmin + qx * box.width, box.ymin + qy * box.height
