"""One run of one workload: set-up, oracle, a timed or a traced pass.

Imported by :mod:`run` only after the environment has been scrubbed and
``src`` put on the path — this module loads numpy and the library.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from multiprocessing import resource_tracker

import host
import layers
import measure
from catalogue import END_TO_END, PER_LAYER
from repro.obs import metrics
from repro.obs.trace import TRACE_ENV_VAR
from workloads import WORKLOADS, Workload, WorkloadAbort

#: ``setup_s`` is the median of this many set-ups (fresh planner and
#: session each time) in a ``--trace 0`` run.
SETUP_REPEATS = 5


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spans_out: str | None,
                 scrubbed: list[str]) -> dict:
    """Returns ``{"line": <the contract's JSON object>, "record": <detail
    for the whole-ledger mode>}``."""
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "scrubbed_env": scrubbed,
              "host": host.host_record()}
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, smoke)
    record["data.generate_s"] = time.perf_counter() - start
    record["fingerprint"] = workload.fingerprint()
    record["region_fingerprint"] = workload.region_fingerprint()
    record["why"] = workload.why

    if trace:
        os.environ[TRACE_ENV_VAR] = "1"  # spans stay in memory
    yardstick = measure.Yardstick()
    raw_setups: list[float] = []
    for _ in range(1 if trace or smoke else SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - start)
    os.environ.pop(TRACE_ENV_VAR, None)
    record["shape"] = workload.describe()

    start = time.perf_counter()
    complaints = workload.verify_references()
    record["ledger.oracle_s"] = time.perf_counter() - start

    values: dict[str, float] = {}
    try:
        if trace:
            result = _traced_run(workload, seconds, values, record,
                                 spans_out, yardstick)
        else:
            # A smoke run checks shapes, not timings: one cycle will do.
            length = {"cycles": 1} if smoke else {"seconds": seconds}
            result = measure.run_pass(
                workload, out=measure.PassResult(yardstick=yardstick),
                **length,
            )
            latency_ms, qps, points_per_s = result.at_par()
            # Set against the pass's yardstick samples, not against ones
            # taken beside each set-up: back-to-back samples run with
            # their working set cached (3.3 ms against 5.6 ms after
            # program work), so the two would be different yardsticks.
            values.update(
                setup_s=statistics.median(raw_setups) * measure.PAR_S
                / statistics.median(result.yardstick_s),
                norm_p50_ms=latency_ms,
                norm_qps=qps,
                norm_points_per_s=points_per_s,
            )
            record["samples"] = result.completed
            record["cycles"] = result.cycles
            # As the clock read them, host included: for the record.
            record["raw"] = {
                "setup_s": statistics.median(raw_setups),
                "query_p50_ms": result.percentile_ms(50),
                "qps": result.completed / result.wall_s,
                "yardstick_ms": statistics.median(result.yardstick_s) * 1e3,
            }
    except WorkloadAbort as abort:
        raise SystemExit(f"ledger: {name} aborted: {abort}")
    finally:
        workload.teardown()
    del workload
    gc.collect()

    leftovers = host.shm_segments(os.getpid())
    children = _children_after_stopping_tracker()
    if trace:
        values["exec.shm_leftover_segments"] = float(len(leftovers))
        values["device.peak_bytes"] = float(metrics.snapshot()["gauges"].get(
            'device_peak_bytes{device="all"}', 0.0))
    else:
        values["peak_rss_mb"] = host.peak_rss_mb()
    failed = result.failed + len(complaints)
    if leftovers or children:
        # A leak is a health failure of the run, not of one statement.
        failed += 1
        complaints.append(f"leaked shm={leftovers} children={children}")
    record["failures"] = complaints + result.failures
    record["failed_share"] = failed / max(1, result.attempted)
    catalogue = PER_LAYER if trace else END_TO_END
    return {
        "record": record,
        "line": {
            "correct": failed == 0,
            "attempted": result.attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": values.get(metric, 0.0),
                         "unit": catalogue[metric][0]}
                for metric in catalogue
            },
        },
    }


def _traced_run(workload: Workload, seconds: float, values: dict,
                record: dict, spans_out: str | None,
                yardstick: measure.Yardstick) -> measure.PassResult:
    """A quarter-length traced pass interleaved with an untraced twin,
    then the layer probes.  Cycle counts are fixed by (workload, seconds)
    so every count below repeats exactly for a fixed seed."""
    spans = measure.Spans()
    cycles = max(1, round(workload.traced_cycles_per_10s * seconds / 10))
    setup_trees = [r.trace for r in workload.warmup_results
                   if r.trace is not None]

    # Untraced and traced blocks alternate, so drift (allocator state,
    # CPU frequency, a noisy neighbour) lands on both arms alike.  One
    # cycle per block with one client; free-running swarm clients get
    # one block per arm, or every refresh would start in lockstep.
    block = cycles if workload.clients > 1 else 1
    plain = measure.PassResult(yardstick=yardstick)
    traced = measure.PassResult(yardstick=yardstick)
    traced_cycles = []
    counters = workload.server.counters()
    with spans.open("pass:traced+untraced", cycles=cycles):
        for first in range(0, 2 * cycles, 2 * block):
            measure.run_pass(workload, cycles=block, first_cycle=first,
                             out=plain)
            os.environ[TRACE_ENV_VAR] = "1"
            try:
                measure.run_pass(workload, cycles=block,
                                 first_cycle=first + block, keep=True,
                                 out=traced)
            finally:
                os.environ.pop(TRACE_ENV_VAR, None)
            traced_cycles += range(first + block, first + 2 * block)
    layers.serve_counters(counters, workload.server.counters(), values)
    for op in traced.records:
        span_id = spans.add("op", op.start_s, op.latency_s, tag=op.tag)
        if op.trace is not None:
            spans.adopt(op.trace, span_id)

    record["attribution"] = layers.from_spans(traced, values)
    counted = [r.stats for r in traced.records]
    if workload.clients > 1:
        # What coalesces depends on timing; the serial replay of the
        # same script gives counts that repeat.
        counted = [r.stats for r in layers.serialized_replay(
            workload, traced_cycles, spans, values)]
    layers.from_stats(counted, len(workload.points), values)
    layers.rezoning_populations(traced, values)
    # The tail, over the untraced arm (its sample count is in the record
    # as ``samples``): a diagnostic, too unsteady here to carry a bound.
    values["host.yardstick_ms"] = statistics.median(
        plain.yardstick_s + traced.yardstick_s) * 1e3
    values["serve.pass_qps"] = plain.completed / plain.wall_s
    values["serve.query_p50_ms"] = plain.percentile_ms(50)
    values["serve.query_p90_ms"] = plain.percentile_ms(90)
    values["serve.query_p95_ms"] = plain.percentile_ms(95)
    values["obs.trace_overhead_pct"] = _trace_overhead_pct(
        plain.latencies_s, traced.latencies_s, paired=workload.clients == 1
    )
    session = workload.planner.session
    values["cache.session_nbytes"] = float(session.nbytes)
    values["cache.pyramid_nbytes"] = float(session.pyramid_nbytes)
    values["cache.pyramid_build_s"] = workload.pyramid_build_s
    # First touches only: one classification per region table in set-up
    # (later statements find the blocks cached and spend microseconds).
    classify = sorted(
        (measure.self_times(t).get("pyramid-classify", 0.0)
         for t in setup_trees), reverse=True,
    )[:len(workload.tables)]
    values["cache.pyramid_classify_self_ms"] = layers.p50_ms(classify)
    values["core.bounded_median_pct_error"] = workload.median_pct_error()

    for probe in workload.probes:
        getattr(layers, f"probe_{probe}")(workload, spans, values)

    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures += plain.failures
    record["samples"] = traced.completed
    record["cycles"] = cycles
    if spans_out:
        spans.write_jsonl(spans_out)
    return traced


def _trace_overhead_pct(plain: list, traced: list, paired: bool) -> float:
    """What tracing adds to a statement, as a share of the untraced p50.

    With one client the i-th op of both arms is the same script position,
    so the median of the paired differences cancels the statement mix;
    concurrent clients finish in no fixed order and fall back to the
    difference of the medians."""
    base = statistics.median(plain)
    if paired and len(plain) == len(traced):
        added = statistics.median(t - p for p, t in zip(plain, traced))
    else:
        added = statistics.median(traced) - base
    return 100.0 * added / base


def _children_after_stopping_tracker() -> list[int]:
    """Children still alive after teardown (there must be none).

    ``multiprocessing`` keeps one helper process per interpreter once a
    shared-memory segment was created; it is ours to stop, so stop it
    and wait before counting."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    return host.live_children()
