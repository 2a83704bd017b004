#!/usr/bin/env python3
"""The perf ledger: six workloads, absolute numbers, per-layer attribution.

Three ways in (see README.md):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (the ``BENCHMARK.json`` contract, which
    lists all but ``served_swarm``).  With ``--trace 0`` the last stdout
    line carries the end-to-end metrics of a timed pass with tracing
    off; with ``--trace 1`` the per-layer metrics of a quarter-length
    traced pass plus the layer probes.

``run.py [--seed N] [--seconds S] [--smoke] [--out ledger.json]``
    Every workload, both passes, one subprocess at a time; prints every
    metric by name with its unit and writes one JSON record with the
    host.  Asserts the bypass predictions.

``run.py --compare A.json B.json``
    Two such records side by side, against the regression bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import host
from catalogue import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  smoke: bool, spans_out: str | None) -> dict:
    """Scrub the environment, then hand over to :mod:`single` — which
    loads numpy and the library, so it must not be imported earlier."""
    scrubbed = host.scrub_environment()
    source = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"ledger: no program to measure at {source}/repro")
    sys.path.insert(0, source)
    import single

    return single.run_workload(name, seed, seconds, trace, smoke, spans_out,
                               scrubbed)


# ----------------------------------------------------------------------
# The whole ledger: every workload, both passes, one subprocess at a time
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool,
           out_dir: str | None) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--detail"]
    if smoke:
        command.append("--smoke")
    if out_dir and trace:
        command += ["--spans", os.path.join(out_dir, f"spans-{name}.jsonl")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"ledger: {name} --trace {trace} exited "
                         f"{done.returncode}")
    record, line = done.stdout.strip().splitlines()[-2:]
    return {"line": json.loads(line), "record": json.loads(record)}


def _metric_values(line: dict) -> dict:
    return {k: v["value"] for k, v in line["metrics"].items()}


def predictions(name: str, layer: dict, e2e_failed: float) -> dict[str, bool]:
    """The bypass predictions of the issue, per workload."""
    if name == "warm_accurate":
        wall = sum(layer[m] for m in (
            "core.point_pass_self_ms", "core.boundary_pip_self_ms",
            "core.polygon_pass_self_ms", "core.tile_overhead_self_ms",
            "cache.prepare_self_ms", "exec.partition_self_ms",
            "core.boundary_render_self_ms"))
        bypassed = layer["cache.prepare_self_ms"] + layer["exec.partition_self_ms"]
        return {"core.tiles == 1": layer["core.tiles"] == 1,
                "prepare + partition self < 5% of op":
                    wall > 0 and bypassed / wall < 0.05}
    if name == "cold_rezoning":
        return {"prepare work > 50% of a full rebuild":
                    layer["cache.prepare_work_share"] > 0.5,
                "cache.polygons_rebuilt == 1 on every delta op":
                    layer["cache.polygons_rebuilt"] == 1}
    if name == "pyramid_panzoom":
        return {"cache.pyramid_fallback_share < 0.15":
                    layer["cache.pyramid_fallback_share"] < 0.15}
    if name == "tiled_scan":
        return {"core.tiles == 16": layer["core.tiles"] == 16}
    if name == "served_swarm":
        return {"serve.coalesced_share in [0.2, 0.6]":
                    0.2 <= layer["serve.coalesced_share"] <= 0.6,
                "failed_share == 0": e2e_failed == 0}
    return {}


def run_ledger(seed: int, seconds: float, smoke: bool, out: str | None,
               names: tuple[str, ...]) -> int:
    out_dir = os.path.dirname(os.path.abspath(out)) if out else None
    # The host is recorded once, before the ledger itself loads it: by
    # the second workload the 1-minute load average is mostly our own.
    ledger = {"schema": 1, "seed": seed, "seconds": seconds, "smoke": smoke,
              "host": host.host_record(), "workloads": {}}
    if ledger["host"]["noisy"]:
        print(f"NOISY HOST: 1-minute load {ledger['host']['loadavg_1m']:.2f} "
              f"on {ledger['host']['nproc']} cores before the first run")
    violated = []
    for name in names:
        e2e = _child(name, seed, seconds, 0, smoke, out_dir)
        layer = _child(name, seed, seconds, 1, smoke, out_dir)
        end_to_end = _metric_values(e2e["line"])
        end_to_end["failed_share"] = e2e["record"]["failed_share"]
        per_layer = _metric_values(layer["line"])
        entry = {
            "why": e2e["record"]["why"],
            "shape": e2e["record"]["shape"],
            "fingerprint": e2e["record"]["fingerprint"],
            "region_fingerprint": e2e["record"]["region_fingerprint"],
            "loadavg_1m": e2e["record"]["host"]["loadavg_1m"],
            "attempted": e2e["line"]["attempted"],
            "failed": e2e["line"]["failed"] + layer["line"]["failed"],
            "samples": e2e["record"]["samples"],
            "cycles": e2e["record"]["cycles"],
            "traced_samples": layer["record"]["samples"],
            "raw": e2e["record"]["raw"],
            "data.generate_s": e2e["record"]["data.generate_s"],
            "ledger.oracle_s": e2e["record"]["ledger.oracle_s"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "attribution": layer["record"]["attribution"],
            "failures": e2e["record"]["failures"] + layer["record"]["failures"],
            "predictions": {} if smoke else predictions(
                name, per_layer, end_to_end["failed_share"]),
        }
        ledger["workloads"][name] = entry
        _print_workload(name, entry)
        violated += [f"{name}: {claim}"
                     for claim, held in entry["predictions"].items()
                     if not held]
        if entry["failed"]:
            violated.append(f"{name}: {entry['failed']} failed operations")
    if out:
        with open(out, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"ledger written to {out}")
    leaked = host.shm_segments()
    if leaked:
        violated.append(f"/dev/shm still holds {leaked}")
    for line in violated:
        print(f"VIOLATION {line}", file=sys.stderr)
    return 1 if violated else 0


def _print_workload(name: str, entry: dict) -> None:
    shape = entry["shape"]
    print(f"== {name}  [{shape['loop']} loop, {shape['clients']} client(s) x "
          f"{shape['in_flight_per_client']} in flight, {shape['points']} "
          f"points, load {entry['loadavg_1m']:.2f}]")
    print(f"  end to end over {entry['samples']} statements in "
          f"{entry['cycles']} cycles")
    for metric, (unit, _, bound) in END_TO_END.items():
        print(f"  {metric:38s} {entry['end_to_end'][metric]:14.4f} {unit:6s}"
              f" [bound {bound:.0%}]")
    print(f"  {'failed_share':38s} {entry['end_to_end']['failed_share']:14.4f}"
          f" ratio  [must be 0]  ({entry['failed']} of {entry['attempted']})")
    print("  as the clock read it: " + ", ".join(
        f"{name} {value:.4f}" for name, value in entry["raw"].items()))
    print(f"  per layer over {entry['traced_samples']} traced statements "
          f"and as many untraced (serve.query_p90/p95_ms are over the latter)")
    for metric, (unit, _) in PER_LAYER.items():
        value = entry["per_layer"][metric]
        if value:
            print(f"  {metric:38s} {value:14.4f} {unit}")
    book = entry["attribution"]
    wall = book["op_wall_s"] or 1.0
    parts = ", ".join(
        f"{span} {seconds / wall:.1%}" for span, seconds in
        sorted(book["named_self_s"].items(), key=lambda kv: -kv[1])
    )
    print(f"  traced op wall {book['op_wall_s']:.3f} s = {parts}, "
          f"unattributed {book['unattributed_s'] / wall:.1%}")
    for claim, held in entry["predictions"].items():
        print(f"  prediction {'holds' if held else 'VIOLATED'}: {claim}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    violations = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from {path_b}")
            violations += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_inputs = wa["fingerprint"] == wb["fingerprint"]
        print(f"== {name}  inputs "
              f"{'identical' if same_inputs else 'DIFFER'}")
        violations += not same_inputs
        for metric, (unit, better, bound) in END_TO_END.items():
            va, vb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            change = (vb - va) / va if va else 0.0
            worse = change if better == "lower" else -change
            ok = worse <= bound
            violations += not ok
            print(f"  {metric:16s} A {va:14.4f}  B {vb:14.4f} {unit:5s} "
                  f"{change:+8.2%} of A  bound {bound:.0%} "
                  f"{'ok' if ok else 'VIOLATION'}")
        for side, entry in (("A", wa), ("B", wb)):
            if entry["end_to_end"]["failed_share"] != 0:
                print(f"  failed_share {side} "
                      f"{entry['end_to_end']['failed_share']} VIOLATION")
                violations += 1
        for metric in EXACT_COUNTS:
            va, vb = wa["per_layer"][metric], wb["per_layer"][metric]
            same = va == vb
            violations += not same
            if va or vb or not same:
                print(f"  {metric:34s} A {va:<16.10g} B {vb:<16.10g} "
                      f"{'exact' if same else 'MISMATCH'}")
    print(f"{violations} violation(s)")
    return 1 if violations else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes /20, one cycle per pass")
    parser.add_argument("--out", help="write the whole ledger record here")
    parser.add_argument("--only", nargs="+", choices=WORKLOAD_NAMES,
                        help="ledger mode: just these workloads")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload is None:
        return run_ledger(args.seed, seconds, args.smoke, args.out,
                          tuple(args.only or WORKLOAD_NAMES))
    outcome = _run_workload(args.workload, args.seed, seconds,
                            bool(args.trace), args.smoke, args.spans)
    line = outcome["line"]
    for metric, cell in line["metrics"].items():
        print(f"{metric:38s} {cell['value']:16.6f} {cell['unit']}")
    for name, value in outcome["record"].get("raw", {}).items():
        print(f"{'raw.' + name:38s} {value:16.6f}  (as the clock read it)")
    if args.detail:  # for the whole-ledger mode, which reads both lines
        print(json.dumps(outcome["record"], default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
