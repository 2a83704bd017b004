"""Per-layer metrics: one section per module under ``src/repro``.

Every layer is measured from outside — by timing calls into its public
functions on the workload's own inputs, by reading the ``result.stats``
and ``result.trace`` the program already returns when ``REPRO_TRACE`` is
set, or from ``Server.counters()`` / the metrics registry.  Nothing here
reaches into ``src``.

A metric that does not apply to a workload reads 0 there (the README's
glossary says which workloads each one is defined on).
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import numpy as np

import oracle
from measure import PassResult, Spans, self_times, span_count
from repro import EngineConfig, GPUDevice
from repro.exec.backend import resolve_backend
from repro.exec.partition import partition_chunk
from repro.geometry.triangulate import triangulate_polygon, triangulate_set
from repro.graphics.raster_batch import (
    flatten_triangles,
    rasterize_triangles,
    setup_triangles,
)
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Canvas
from repro.index.grid import GridIndex
from repro.obs import metrics
from repro.sql.parser import parse
from repro.sql.planner import QueryPlanner
from repro.store import ArtifactStore
from workloads import OP_TIMEOUT_S, POINT_TABLE, Workload, edit_vertex

#: Span name -> metric its per-op self time feeds (p50 over the pass).
SPAN_METRICS = {
    "point-pass": "core.point_pass_self_ms",
    "boundary-pip": "core.boundary_pip_self_ms",
    "polygon-pass": "core.polygon_pass_self_ms",
    "boundary": "core.boundary_render_self_ms",
    "tile": "core.tile_overhead_self_ms",
    "tiles": "core.tile_overhead_self_ms",
    "query": "core.tile_overhead_self_ms",
    "prepare": "cache.prepare_self_ms",
    "partition": "exec.partition_self_ms",
    "pyramid-block-merge": "cache.pyramid_block_merge_self_ms",
    "fused-scan": "serve.fused_scan_self_ms",
}

#: Spans that do polygon preparation work on a rebuild (triangulate and
#: grid under ``prepare``; outline raster under ``boundary``; coverage
#: raster inside the first ``polygon-pass``).
PREPARE_WORK_SPANS = ("prepare", "boundary", "polygon-pass")

def p50_ms(samples_s: list[float]) -> float:
    return statistics.median(samples_s) * 1e3 if samples_s else 0.0


def timed(call, repeats: int) -> tuple[list[float], object]:
    samples, last = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        last = call()
        samples.append(time.perf_counter() - start)
    return samples, last


def repeats_for(workload: Workload, full: int) -> int:
    return 2 if workload.smoke else full


# ----------------------------------------------------------------------
# Read-outs from the traced pass
# ----------------------------------------------------------------------
def distinct_trees(traced: PassResult) -> list:
    """One span tree per *execution*: coalesced followers and the members
    of a fused group all carry their shared scan's tree."""
    seen, trees = set(), []
    for record in traced.records:
        if record.trace is not None and id(record.trace) not in seen:
            seen.add(id(record.trace))
            trees.append(record.trace)
    return trees


def from_spans(traced: PassResult, out: dict) -> dict:
    """Self-time metrics (p50 per execution) and the attribution book.

    The book says where the traced pass's op wall went, by span name, in
    seconds: ``sum(named) + unattributed == op_wall`` by construction —
    the remainder is everything outside the program's span trees (parse,
    plan, admission, batching window, thread hand-off, waiting).
    """
    trees = distinct_trees(traced)
    per_tree = [self_times(tree) for tree in trees]
    for metric in set(SPAN_METRICS.values()):
        names = [n for n, m in SPAN_METRICS.items() if m == metric]
        out[metric] = p50_ms([
            sum(selfs.get(n, 0.0) for n in names) for selfs in per_tree
        ])
    named: dict[str, float] = {}
    for selfs in per_tree:
        for name, seconds in selfs.items():
            named[name] = named.get(name, 0.0) + seconds
    op_wall = sum(traced.latencies_s)
    unattributed = op_wall - sum(named.values())
    if op_wall > 0:
        out["core.unattributed_share"] = unattributed / op_wall
    if trees:
        out["obs.spans_per_query"] = (
            sum(span_count(t) for t in trees) / len(trees)
        )
    return {"op_wall_s": op_wall, "named_self_s": named,
            "unattributed_s": unattributed}


def from_stats(stats: list, rows: int, out: dict) -> None:
    """Work counts per statement, from each ``result.stats``."""
    n = len(stats)
    if not n:
        return
    for field in ("pip_tests", "boundary_points", "points_processed",
                  "points_filtered_out", "batches"):
        out[f"core.{field}"] = sum(getattr(s, field) for s in stats) / n
    out["core.tiles"] = sum(s.extra.get("tiles", 0) for s in stats) / n
    lookups = sum(s.prepared_hits + s.prepared_misses for s in stats)
    if lookups:
        out["cache.prepared_hit_share"] = (
            sum(s.prepared_hits for s in stats) / lookups
        )
    partitioned = [s.extra["partition"] for s in stats
                   if s.extra.get("partition") in ("cached", "on")]
    if partitioned:
        out["cache.partition_hit_share"] = (
            partitioned.count("cached") / len(partitioned)
        )
        out["exec.partition_seam_duplicates"] = max(
            s.extra.get("partition_duplicates", 0) for s in stats
        )
    fallback = [s.extra["pyramid_fallback_points"] for s in stats
                if "pyramid_fallback_points" in s.extra]
    if fallback:
        out["cache.pyramid_fallback_share"] = (
            sum(fallback) / len(fallback) / rows
        )


def rezoning_populations(traced: PassResult, out: dict) -> None:
    """Full-rebuild vs single-polygon-edit ops, grouped by their tag."""
    full = [r for r in traced.records if r.tag == "full"]
    delta = [r for r in traced.records if r.tag == "delta"]
    if not full or not delta:
        return
    out["cache.prepare_full_ms"] = p50_ms([r.latency_s for r in full])
    out["cache.prepare_delta_ms"] = p50_ms([r.latency_s for r in delta])
    out["cache.polygons_rebuilt"] = (
        sum(r.stats.extra.get("polygons_rebuilt", 0) for r in delta)
        / len(delta)
    )
    work = wall = 0.0
    for record in full:
        if record.trace is not None:
            selfs = self_times(record.trace)
            work += sum(selfs.get(n, 0.0) for n in PREPARE_WORK_SPANS)
            wall += record.latency_s
    if wall:
        out["cache.prepare_work_share"] = work / wall


# ----------------------------------------------------------------------
# Probes: timed calls into one layer's public functions
# ----------------------------------------------------------------------
def probe_statement(workload: Workload):
    """The canonical probe statement: unfiltered SUM(fare), else the
    first of the pool."""
    for stmt in workload.pool:
        if stmt.function == "SUM" and stmt.filt is None:
            return stmt
    return workload.pool[0]


def probe_sql(workload: Workload, spans: Spans, out: dict) -> None:
    sql = probe_statement(workload).sql
    parsed = parse(sql)
    repeats = repeats_for(workload, 200)
    with spans.open("probe:sql.parse"):
        samples, _ = timed(lambda: parse(sql), repeats)
    out["sql.parse_us"] = p50_ms(samples) * 1e3
    with spans.open("probe:sql.plan"):
        samples, _ = timed(lambda: workload.planner.plan(parsed), repeats)
    out["sql.plan_us"] = p50_ms(samples) * 1e3


def probe_serve_and_core(workload: Workload, spans: Spans, out: dict) -> None:
    """The same warm statement three ways — engine direct, through the
    planner, through the server — interleaved so drift hits all arms."""
    stmt = probe_statement(workload)
    planner, server = workload.planner, workload.server
    engine, points, regions, aggregate, filters = planner.plan(stmt.sql)
    arms = {
        "engine": lambda: engine.execute(points, regions,
                                         aggregate=aggregate,
                                         filters=filters),
        "planner": lambda: planner.execute(stmt.sql),
        "server": lambda: server.execute(stmt.sql, timeout=OP_TIMEOUT_S),
    }
    samples = {arm: [] for arm in arms}
    with spans.open("probe:serve+core", statement=stmt.sql):
        for _ in range(repeats_for(workload, 11)):
            for arm, call in arms.items():
                with spans.open(f"probe:{arm}.execute") as scope:
                    call()
                samples[arm].append(scope.seconds)
    out["serve.overhead_ms"] = (
        p50_ms(samples["server"]) - p50_ms(samples["planner"])
    )
    key = ("core.bounded_query_ms" if stmt.within is not None
           else "core.accurate_query_ms")
    out[key] = p50_ms(samples["engine"])


def probe_floors(workload: Workload, spans: Spans, out: dict) -> None:
    """The cheapest numpy kernels doing the point pass's arithmetic.

    Scatter floor: project every point onto the engine's canvas and
    ``bincount`` the fares.  PIP floor: ray-cast only the points that
    fall in outline pixels, per polygon.  Both assume one pass over the
    whole canvas with nothing else to do — no filters, no tiling, no
    per-tile state — so they bound the engine from below, loosely.
    """
    stmt = probe_statement(workload)
    regions = workload.tables[stmt.table]
    xs, ys = workload.points.column("x"), workload.points.column("y")
    fare = workload.points.column("fare")
    probe = Canvas.for_resolution(regions.bbox, 1024)
    pad = max(probe.pixel_width, probe.pixel_height)
    canvas = Canvas.for_resolution(regions.bbox.expanded(pad), 1024)
    view = canvas.full_viewport()
    ext, width, height = canvas.extent, canvas.width, canvas.height

    def scatter():
        ix = ((xs - ext.xmin) * (width / ext.width)).astype(np.int64)
        iy = ((ys - ext.ymin) * (height / ext.height)).astype(np.int64)
        flat = iy * width + ix
        return flat, np.bincount(flat, weights=fare,
                                 minlength=width * height)

    repeats = repeats_for(workload, 5)
    with spans.open("probe:core.scatter_floor"):
        samples, (flat, _) = timed(scatter, repeats)
    out["core.scatter_floor_ms"] = p50_ms(samples)

    outline = np.zeros(width * height, dtype=bool)
    pixels = outline_pixels_many(
        view, {pid: poly.rings for pid, poly in enumerate(regions)}
    )
    for ix, iy in pixels.values():
        outline[iy * width + ix] = True
    near = np.flatnonzero(outline[flat])
    bx, by = xs[near], ys[near]
    rings = [poly.exterior for poly in regions]
    with spans.open("probe:core.pip_floor", points=int(len(near))):
        samples, _ = timed(lambda: oracle.membership(rings, bx, by),
                           repeats_for(workload, 3))
    out["core.pip_floor_ms"] = p50_ms(samples)
    floor = out["core.scatter_floor_ms"] + out["core.pip_floor_ms"]
    measured = out["core.point_pass_self_ms"] + out["core.boundary_pip_self_ms"]
    if floor > 0:
        out["core.point_pass_vs_floor"] = measured / floor


def probe_polygon_layers(workload: Workload, spans: Spans, out: dict) -> None:
    """geometry / graphics / index / store on the workload's polygon set."""
    stmt = probe_statement(workload)
    regions = workload.tables[stmt.table]
    polys = list(regions)
    repeats = repeats_for(workload, 3)

    with spans.open("probe:geometry.triangulate"):
        samples, _ = timed(lambda: triangulate_set(polys), repeats)
    out["geometry.triangulate_ms"] = p50_ms(samples)

    # The last stroke left an edited zoning registered; put the base back
    # and build it, so the session holds the artifact the probes time.
    workload.planner.register_regions(stmt.table, regions)
    workload.planner.execute(stmt.sql)
    engine = workload.planner.plan(stmt.sql)[0]
    prepared, _ = workload.planner.session.prepared_for(
        regions, engine.prepared_spec()
    )
    view = prepared.canvas.full_viewport()
    triangles = {pid: triangulate_polygon(p) for pid, p in enumerate(polys)}
    with spans.open("probe:graphics.raster_setup"):
        samples, _ = timed(
            lambda: setup_triangles(view, flatten_triangles(triangles).verts),
            repeats,
        )
    out["graphics.raster_setup_ms"] = p50_ms(samples)
    verts = flatten_triangles(triangles).verts
    with spans.open("probe:graphics.rasterize"):
        samples, fragments = timed(
            lambda: rasterize_triangles(view, verts), repeats
        )
    # rasterize_triangles runs its own setup; report the raster share.
    out["graphics.rasterize_ms"] = max(
        0.0, p50_ms(samples) - out["graphics.raster_setup_ms"]
    )
    out["graphics.fragments"] = float(len(fragments.ix))
    rings = {pid: p.rings for pid, p in enumerate(polys)}
    with spans.open("probe:graphics.outline"):
        samples, _ = timed(lambda: outline_pixels_many(view, rings), repeats)
    out["graphics.outline_ms"] = p50_ms(samples)

    resolution = engine.grid_resolution
    with spans.open("probe:index.grid_build"):
        samples, grid = timed(
            lambda: GridIndex(polys, resolution=resolution), repeats
        )
    out["index.grid_build_ms"] = p50_ms(samples)
    out["index.grid_entries"] = float(grid.num_entries)
    pid = 0
    edited = edit_vertex(polys, pid, 0)
    change = {pid: (
        GridIndex.cells_for_polygon(polys[pid], grid.extent, resolution,
                                    "mbr"),
        GridIndex.cells_for_polygon(edited[pid], grid.extent, resolution,
                                    "mbr"),
    )}
    with spans.open("probe:index.grid_splice"):
        samples, _ = timed(lambda: grid.splice(edited, change), repeats)
    out["index.grid_splice_ms"] = p50_ms(samples)

    # Inside the benchmark's own directory: a run writes nowhere else.
    with tempfile.TemporaryDirectory(
        dir=os.path.dirname(os.path.abspath(__file__)), prefix=".store-"
    ) as store_dir:
        store = ArtifactStore(store_dir)
        with spans.open("probe:store.save"):
            samples, nbytes = timed(
                lambda: store.save(prepared.key, prepared), repeats
            )
        out["store.save_ms"] = p50_ms(samples)
        out["store.bytes_per_polygon"] = nbytes / len(polys)
        with spans.open("probe:store.load"):
            samples, loaded = timed(
                lambda: store.load(prepared.key, regions), repeats
            )
        if loaded is None:
            raise RuntimeError("store.load missed the artifact just saved")
        out["store.load_ms"] = p50_ms(samples)


def _noop() -> None:
    return None


def probe_exec(workload: Workload, spans: Spans, out: dict) -> None:
    """Partitioning, per-backend dispatch of the same warm 16-tile
    statement, and bare task overhead."""
    stmt = probe_statement(workload)
    regions = workload.tables[stmt.table]
    engine = workload.planner.plan(stmt.sql)[0]
    prepared, _ = workload.planner.session.prepared_for(
        regions, engine.prepared_spec()
    )
    tiles = prepared.tiles
    limit = workload.planner.device.max_resolution
    fbo_bytes = [t.width * t.height * 8 for t in tiles]
    columns = ("x", "y", "fare")
    with spans.open("probe:exec.partition", tiles=len(tiles)):
        samples, _ = timed(
            lambda: partition_chunk(
                workload.points, prepared.canvas, tiles, limit, columns,
                workload.planner.device, fbo_bytes,
            ),
            repeats_for(workload, 5),
        )
    out["exec.partition_ms"] = p50_ms(samples)

    workers = min(os.cpu_count() or 1, 4)
    reference = workload.references[stmt.sql]
    cells = {
        "serial": EngineConfig(backend="serial"),
        "thread": EngineConfig(backend="thread", workers=workers),
        "resident": EngineConfig(backend="process", workers=workers,
                                 shm=True),
    }
    for cell, config in cells.items():
        planner = QueryPlanner(
            device=GPUDevice(max_resolution=limit), config=config
        )
        try:
            planner.register_points(POINT_TABLE, workload.points)
            planner.register_regions(stmt.table, regions)
            with spans.open(f"probe:exec.dispatch.{cell}", workers=workers):
                for _ in range(2):  # build, partition, spin the pool up
                    planner.execute(stmt.sql)
                samples, result = timed(
                    lambda: planner.execute(stmt.sql),
                    repeats_for(workload, 9),
                )
            if not np.array_equal(result.values, reference, equal_nan=True):
                raise RuntimeError(
                    f"{cell} backend answer is not bit-identical to serial"
                )
            out[f"exec.dispatch_ms.{cell}"] = p50_ms(samples)
        finally:
            planner.close()

    for name in ("serial", "thread", "process"):
        backend = resolve_backend(name, workers)
        try:
            with spans.open(f"probe:exec.task_overhead.{name}"):
                backend.run_tasks([_noop] * 16)  # pool spin-up
                samples, _ = timed(
                    lambda: backend.run_tasks([_noop] * 16),
                    repeats_for(workload, 10),
                )
            out[f"exec.task_overhead_us.{name}"] = p50_ms(samples) * 1e3 / 16
        finally:
            backend.close()


def serialized_replay(workload: Workload, cycles: list[int], spans: Spans,
                      out: dict) -> list:
    """The swarm's script, one statement at a time through the planner:
    the serial cell next to which ``qps`` is read."""
    ops = [op for index in cycles for op in workload.cycle(index)]
    with spans.open("probe:serve.serialized", statements=len(ops)) as scope:
        results = [workload.planner.execute(op.sql) for op in ops]
    for op, result in zip(ops, results):
        if not np.array_equal(result.values, op.expected, equal_nan=True):
            raise RuntimeError(f"serial replay diverged on {op.sql}")
    out["serve.serialized_qps"] = len(ops) / scope.seconds
    return results


def serve_counters(before: dict, after: dict, out: dict) -> None:
    delta = {k: after[k] - before[k] for k in after}
    submissions = delta["admitted"] + delta["coalesced"]
    if not submissions:
        return
    out["serve.coalesced_share"] = delta["coalesced"] / submissions
    if delta["fused_scans"]:
        out["serve.fused_width"] = (
            delta["fused_queries"] / delta["fused_scans"]
        )
    scans = delta["admitted"] - delta["fused_queries"] + delta["fused_scans"]
    out["serve.executions_per_statement"] = scans / submissions
    gauges = metrics.snapshot()["gauges"]
    out["serve.queue_depth_peak"] = float(
        gauges.get("serve_queue_depth_peak", 0)
    )
