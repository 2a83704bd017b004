"""Names, units and bounds of everything the ledger reports.

Stdlib-only: ``run.py --compare`` and the smoke test read it without
loading numpy or the library.  ``BENCHMARK.json`` at the repository root
mirrors these tables; the smoke test checks that they agree.
"""

WORKLOAD_NAMES = ("warm_accurate", "warm_bounded", "cold_rezoning",
                  "pyramid_panzoom", "tiled_scan", "served_swarm")
#: The workloads ``BENCHMARK.json`` lists, and so the ones a later PR is
#: gated on.  ``served_swarm`` is left to the whole-ledger mode: two
#: client threads plus the server's workers on two shared vCPUs measure
#: the scheduler as much as the program, and which statements coalesce
#: depends on timing, so no refresh of its script is the same work
#: twice; and its yardstick can only be read before and after the pass.
GATED_WORKLOADS = WORKLOAD_NAMES[:-1]

#: name -> (unit, better, bound): the bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: README.md ("Bounds, and what was demoted") has the measured spreads
#: the bounds were taken from.  ``setup_s`` and the ``norm_*`` timings
#: are normalised to the ledger's yardstick (*at par*, see
#: ``measure.PassResult.at_par``); what the clock read is in each run's
#: record (``raw``) and, over the traced run, in the per-layer
#: ``serve.query_p50_ms`` / ``serve.pass_qps`` / ``host.yardstick_ms``.  ``failed_share`` is part of every ledger
#: record but not of this table or BENCHMARK.json: it must be exactly 0,
#: which a relative bound cannot express, and the contract carries it as
#: ``attempted`` / ``failed``.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "norm_p50_ms": ("ms", "lower", 0.25),
    "norm_qps": ("1/s", "higher", 0.25),
    "norm_points_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

#: name -> (unit, better), one section per module under ``src/repro``.
PER_LAYER: dict[str, tuple[str, str]] = {
    "sql.parse_us": ("us", "lower"),
    "sql.plan_us": ("us", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.coalesced_share": ("ratio", "higher"),
    "serve.fused_width": ("count", "higher"),
    "serve.executions_per_statement": ("ratio", "lower"),
    "serve.queue_depth_peak": ("count", "lower"),
    "serve.serialized_qps": ("1/s", "higher"),
    "serve.fused_scan_self_ms": ("ms", "lower"),
    "serve.pass_qps": ("1/s", "higher"),
    "serve.query_p50_ms": ("ms", "lower"),
    "serve.query_p90_ms": ("ms", "lower"),
    "serve.query_p95_ms": ("ms", "lower"),
    "core.accurate_query_ms": ("ms", "lower"),
    "core.bounded_query_ms": ("ms", "lower"),
    "core.point_pass_self_ms": ("ms", "lower"),
    "core.boundary_pip_self_ms": ("ms", "lower"),
    "core.polygon_pass_self_ms": ("ms", "lower"),
    "core.boundary_render_self_ms": ("ms", "lower"),
    "core.tile_overhead_self_ms": ("ms", "lower"),
    "core.unattributed_share": ("ratio", "lower"),
    "core.scatter_floor_ms": ("ms", "lower"),
    "core.pip_floor_ms": ("ms", "lower"),
    "core.point_pass_vs_floor": ("ratio", "lower"),
    "core.pip_tests": ("count", "lower"),
    "core.boundary_points": ("count", "lower"),
    "core.points_processed": ("count", "lower"),
    "core.points_filtered_out": ("count", "higher"),
    "core.tiles": ("count", "lower"),
    "core.batches": ("count", "lower"),
    "core.bounded_median_pct_error": ("%", "lower"),
    "cache.prepare_self_ms": ("ms", "lower"),
    "cache.prepare_full_ms": ("ms", "lower"),
    "cache.prepare_delta_ms": ("ms", "lower"),
    "cache.prepare_work_share": ("ratio", "lower"),
    "cache.polygons_rebuilt": ("count", "lower"),
    "cache.prepared_hit_share": ("ratio", "higher"),
    "cache.partition_hit_share": ("ratio", "higher"),
    "cache.session_nbytes": ("bytes", "lower"),
    "cache.pyramid_build_s": ("s", "lower"),
    "cache.pyramid_nbytes": ("bytes", "lower"),
    "cache.pyramid_classify_self_ms": ("ms", "lower"),
    "cache.pyramid_block_merge_self_ms": ("ms", "lower"),
    "cache.pyramid_fallback_share": ("ratio", "lower"),
    "geometry.triangulate_ms": ("ms", "lower"),
    "graphics.raster_setup_ms": ("ms", "lower"),
    "graphics.rasterize_ms": ("ms", "lower"),
    "graphics.outline_ms": ("ms", "lower"),
    "graphics.fragments": ("count", "lower"),
    "index.grid_build_ms": ("ms", "lower"),
    "index.grid_splice_ms": ("ms", "lower"),
    "index.grid_entries": ("count", "lower"),
    "exec.partition_self_ms": ("ms", "lower"),
    "exec.partition_ms": ("ms", "lower"),
    "exec.partition_seam_duplicates": ("count", "lower"),
    "exec.dispatch_ms.serial": ("ms", "lower"),
    "exec.dispatch_ms.thread": ("ms", "lower"),
    "exec.dispatch_ms.resident": ("ms", "lower"),
    "exec.task_overhead_us.serial": ("us", "lower"),
    "exec.task_overhead_us.thread": ("us", "lower"),
    "exec.task_overhead_us.process": ("us", "lower"),
    "exec.shm_leftover_segments": ("count", "lower"),
    "store.save_ms": ("ms", "lower"),
    "store.load_ms": ("ms", "lower"),
    "store.bytes_per_polygon": ("bytes", "lower"),
    "device.peak_bytes": ("bytes", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
    "obs.spans_per_query": ("count", "lower"),
    "host.yardstick_ms": ("ms", "lower"),
}

#: Counts that depend only on (seed, seconds), never on timing.  The
#: serve.* counters and obs.spans_per_query are excluded: what coalesces
#: and fuses depends on which statements happen to be in flight together.
EXACT_COUNTS = (
    "core.pip_tests", "core.boundary_points", "core.points_processed",
    "core.points_filtered_out", "core.tiles", "core.batches",
    "core.bounded_median_pct_error", "cache.polygons_rebuilt",
    "cache.prepared_hit_share", "cache.partition_hit_share",
    "cache.pyramid_fallback_share", "graphics.fragments",
    "index.grid_entries", "exec.partition_seam_duplicates",
    "exec.shm_leftover_segments",
)
