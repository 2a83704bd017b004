"""Observability substrate: trace spans, metrics registry, exporters.

* :mod:`repro.obs.trace` — hierarchical spans with a one-branch no-op
  fast path; ``$REPRO_TRACE`` gates ambient per-query tracing.
* :mod:`repro.obs.metrics` — process-wide labelled
  counters/gauges/histograms (cache tiers, store IO, pools, device).
* :mod:`repro.obs.export` — JSON-lines sink and Chrome ``trace_event``
  timelines.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.obs import metrics
from repro.obs.trace import (
    TRACE_ENV_VAR,
    Span,
    Tracer,
    active,
    attach,
    query_scope,
    span,
    tile_scope,
    use,
)

__all__ = [
    "TRACE_ENV_VAR",
    "Span",
    "Tracer",
    "active",
    "attach",
    "metrics",
    "query_scope",
    "span",
    "tile_scope",
    "use",
]
