"""Warm statements keep their framebuffer memory mapped, whatever the
process freed before.

``repro.device.memory`` pins glibc's mmap and trim thresholds on import.
Without the pin, whether a warm 1024² AVG statement re-faults its 8 MiB
channels every time depends on the largest block the process happened
to free earlier (glibc's dynamic threshold).  Each history runs in a
process of its own — an allocator's history cannot be undone.  The
three processes share one CPU and take turns statement by statement,
in a rotating order, so the host's drift reaches them alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


#: One history: free a block of ``argv[1]`` MiB (0: none) before the
#: package is imported, set up a warm AVG statement on a 1024² canvas,
#: then run it once per ``go`` line and answer ``seconds minor_faults``.
_CHILD = r"""
import os, resource, sys, time
import numpy as np
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
prior = int(sys.argv[1])
if prior:
    block = np.ones(prior << 20, np.uint8)
    del block
from repro import PointDataset
from repro.data import generate_voronoi_regions
from repro.geometry.bbox import BBox
from repro.geometry.polygon import PolygonSet
from repro.sql.planner import QueryPlanner

rng = np.random.default_rng(1)
n = 100_000
points = PointDataset(
    rng.uniform(0.0, 1000.0, n), rng.uniform(0.0, 1000.0, n),
    {"fare": rng.integers(1, 100, n).astype(np.float64)},
)
regions = PolygonSet(list(
    generate_voronoi_regions(64, BBox(0.0, 0.0, 1000.0, 1000.0), seed=3)
))
planner = QueryPlanner()
planner.register_points("taxi", points)
planner.register_regions("hoods", regions)
engine, pts, polys, aggregate, filters = planner.plan(
    "SELECT AVG(fare) FROM taxi, hoods "
    "WHERE taxi.location INSIDE hoods.geometry GROUP BY hoods.id"
)
for _ in range(3):
    result = engine.execute(pts, polys, aggregate=aggregate, filters=filters)
assert result.stats.extra["prepared"] == "hit"
assert engine._make_canvas(polys).width == 1024
print("ready", flush=True)
for line in sys.stdin:
    if line.strip() != "go":
        break
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    engine.execute(pts, polys, aggregate=aggregate, filters=filters)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(seconds, faults, flush=True)
"""

HISTORIES_MB = (0, 20, 30)
ROUNDS = 61


@pytest.mark.skipif(not _on_glibc(), reason="the pin is glibc's mallopt")
def test_warm_statements_fault_nothing_whatever_was_freed_before():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    procs = {
        mb: subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(mb)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        for mb in HISTORIES_MB
    }
    seconds = {mb: [] for mb in HISTORIES_MB}
    faults = {mb: [] for mb in HISTORIES_MB}
    try:
        for proc in procs.values():
            assert proc.stdout.readline().split() == ["ready"]
        for turn in range(ROUNDS):
            first = turn % len(HISTORIES_MB)
            for mb in HISTORIES_MB[first:] + HISTORIES_MB[:first]:
                proc = procs[mb]
                proc.stdin.write("go\n")
                proc.stdin.flush()
                secs, count = proc.stdout.readline().split()
                seconds[mb].append(float(secs))
                faults[mb].append(int(count))
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    # Re-mapping one 8 MiB channel alone is 2 048 faults of 4 KiB.
    for mb in HISTORIES_MB:
        assert np.median(faults[mb]) <= 16, (mb, faults[mb])
    # ``core.accurate_query_ms`` is the warm statement's median.  Each
    # statement is taken against its round's mean first: the host's slow
    # spells come and go within a few rounds, and an unpaired median
    # lets a spell that one process happened to straddle more often read
    # as a cost of its history.
    times = np.array([seconds[mb] for mb in HISTORIES_MB])
    share = np.median(times / times.mean(axis=0), axis=1)
    p50 = {mb: float(np.median(seconds[mb])) for mb in HISTORIES_MB}
    assert share.max() <= 1.05 * share.min(), (share, p50)
