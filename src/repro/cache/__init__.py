"""Prepared-state caching for repeated-query workloads.

The paper's target workload is *interactive*: an analyst redraws or
rezones polygons and re-runs the same query shape many times.  Most of the
per-query cost of the raster-join engines is, however, a pure function of
the polygon set and the render configuration — triangulations, the canvas
layout, per-tile boundary masks and candidate lists, and per-polygon pixel
coverage.  This package separates that one-time geometry preparation
from per-query execution (in the spirit of GeoBlocks' query-cache
accelerated aggregation):

* :class:`~repro.cache.prepared.PreparedPolygons` — the reusable artifact,
  keyed by the polygon set's own content fingerprint
  (``PolygonSet.fingerprint``) plus the engine's render configuration,
  and composed of per-polygon
  :class:`~repro.cache.prepared.PolygonUnit` pieces so a single-polygon
  edit rebuilds one polygon's state instead of the whole set's (see
  ``docs/incremental_edits.md``);
* :class:`~repro.cache.session.QuerySession` — a tiered, byte-budgeted
  cache of prepared artifacts shared by every engine that accepts
  ``session=``, optionally backed by the persistent
  :class:`~repro.store.ArtifactStore` disk tier so a restarted process
  answers repeated queries warm.

See ``docs/query_sessions.md`` for the API contract and the cache
invalidation rules, and ``docs/artifact_store.md`` for the disk tier.
"""

from repro.cache.prepared import PolygonUnit, PreparedPolygons
from repro.cache.session import QuerySession

__all__ = ["PolygonUnit", "PreparedPolygons", "QuerySession"]
