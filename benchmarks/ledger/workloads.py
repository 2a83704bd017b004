"""The six ledger workloads: seeded inputs, set-up, and op scripts.

A workload owns its inputs (made from ``--seed`` alone), the system
set-up a user would perform (planner, tables, prewarm, warm-up), and a
script of *cycles*.  One cycle is a fixed list of :class:`Op`; a pass
repeats whole cycles, so every count summed over a cycle repeats exactly
for a fixed seed.  ``src/repro`` only ever sees the generated tables and
the SQL text.

Sizes were tuned once so that, on the 2-core reference host, a 14 s
timed pass repeats every cycle of a script at least four times
(twenty on the steady workloads) and set-up stays near 1.5 s (it is
repeated five times per run for a median).  They are frozen; change them
only in a PR that claims no gain.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from repro import BoundedRasterJoin, GPUDevice, PointDataset
from repro.data import generate_voronoi_regions
from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon, PolygonSet, rectangle
from repro.sql.planner import QueryPlanner

EXTENT = BBox(0.0, 0.0, 1000.0, 1000.0)
POINT_TABLE = "taxi"

#: Warm tables shared by warm_accurate / warm_bounded / tiled_scan /
#: served_swarm.
WARM_POINTS = 160_000
HOODS, ZONES = 64, 48
#: cold_rezoning: fewer points (the point pass is not the subject); 96
#: regions, because with fewer, larger ones a single edit's grid splice
#: swings from 20 ms to 900 ms with the polygon it hits.
REZONE_POINTS = 40_000
REZONE_REGIONS = 96
#: pyramid_panzoom: 4x the warm working set; overlapping pan/zoom views.
PANZOOM_POINTS = 640_000
PANZOOM_REGIONS = 24
PANZOOM_FRAMES = (
    BBox(250.0, 200.0, 750.0, 700.0),
    BBox(300.0, 250.0, 800.0, 750.0),
    BBox(400.0, 350.0, 650.0, 600.0),
    BBox(420.0, 380.0, 680.0, 640.0),
)
#: served_swarm: statements each client submits per refresh.
REFRESH_WIDTH = 8
#: Wait bound on one statement; an expiry counts as a failed op.
OP_TIMEOUT_S = 60.0

AGGREGATES = (("COUNT", None), ("SUM", "fare"), ("AVG", "fare"),
              ("MAX", "fare"))
FILTERS = (None, ("hour", ">=", 12.0), ("fare", "<", 25.0))


class WorkloadAbort(RuntimeError):
    """The run would measure the wrong regime; refuse to report it."""


@dataclass(frozen=True)
class Stmt:
    """One statement of a pool, kept structured so the oracle can answer
    it without parsing SQL."""

    function: str
    column: str | None
    table: str
    filt: tuple | None = None
    within: float | None = None

    @property
    def sql(self) -> str:
        arg = "*" if self.column is None else self.column
        where = f"{POINT_TABLE}.loc INSIDE {self.table}.geometry"
        if self.within is not None:
            where += f" WITHIN {self.within}"
        if self.filt is not None:
            where += f" AND {self.filt[0]} {self.filt[1]} {self.filt[2]}"
        return (f"SELECT {self.function}({arg}) FROM {POINT_TABLE}, "
                f"{self.table} WHERE {where} GROUP BY {self.table}.id")


@dataclass
class Op:
    """One timed operation: a SQL statement and what must come back."""

    sql: str
    #: The checked reference; every timed answer must equal it bit for bit.
    expected: np.ndarray
    #: ``stats.extra`` items the answer must report (the intended tier).
    tier: dict
    #: Rows of the point table the statement aggregates over.
    rows: int
    #: Client-side step before submit (re-registering an edited table).
    before: Callable[[], None] | None = None
    #: Population label for per-layer grouping (``full`` / ``delta``).
    tag: str = ""


def statement_pool(tables: tuple[str, ...], withins=(None,)) -> list[Stmt]:
    """{COUNT, SUM, AVG, MAX} x {no filter, hour>=12, fare<25}, dealt
    round-robin over ``tables`` and ``withins``."""
    pool = []
    for function, column in AGGREGATES:
        for filt in FILTERS:
            i = len(pool)
            pool.append(Stmt(function, column, tables[i % len(tables)],
                             filt, withins[i % len(withins)]))
    return pool


def make_points(rng: np.random.Generator, rows: int) -> PointDataset:
    """Uniform points; integer-valued attributes so float sums are exact."""
    return PointDataset(
        rng.uniform(EXTENT.xmin, EXTENT.xmax, rows),
        rng.uniform(EXTENT.ymin, EXTENT.ymax, rows),
        {
            "fare": rng.integers(1, 100, rows).astype(np.float64),
            "hour": rng.integers(0, 24, rows).astype(np.float64),
        },
    )


def anchors(inset: float = 0.0) -> list[Polygon]:
    """Two corner rectangles pinning the union bbox (the *frame*): every
    region table of a workload derives the same canvas and grid extent.
    ``inset`` moves only their inner corners, so a table can differ in
    every polygon and still share the frame."""
    return [
        rectangle(EXTENT.xmin, EXTENT.ymin, 2.0 + inset, 2.0 + inset),
        rectangle(EXTENT.xmax - 2.0 - inset, EXTENT.ymax - 2.0 - inset,
                  EXTENT.xmax, EXTENT.ymax),
    ]


def make_regions(key: tuple[int, ...], count: int, window: BBox = EXTENT,
                 inset: float = 0.0) -> PolygonSet:
    """The paper's §7.4 merged-Voronoi regions over ``window`` + anchors,
    drawn from ``key`` (the run's seed first): every seed sees other
    shapes."""
    draw = int(np.random.SeedSequence(key).generate_state(1)[0])
    regions = generate_voronoi_regions(count, window, seed=draw)
    return PolygonSet(list(regions) + anchors(inset))


def rings_of(polygons: PolygonSet) -> list[np.ndarray]:
    return [p.exterior for p in polygons]


def edit_vertex(polys: list[Polygon], pid: int, vid: int) -> list[Polygon]:
    """The rezoning stroke: one vertex of one polygon moves 30% of the
    way to the polygon's centroid (so the set's bbox cannot grow).

    Concave regions can self-intersect under such a move, and the
    engines only define answers for simple polygons; the first vertex at
    or after ``vid`` whose move keeps the ring simple is the one edited.
    """
    ring = polys[pid].exterior
    center = ring.mean(axis=0)
    for offset in range(len(ring)):
        moved = ring.copy()
        at = (vid + offset) % len(ring)
        moved[at] += (center - moved[at]) * 0.3
        edited = Polygon(moved)
        if edited.is_simple():
            out = list(polys)
            out[pid] = edited
            return out
    raise WorkloadAbort(f"no vertex of polygon {pid} can move and stay simple")


class Workload:
    """Base: one point table, named region tables, one statement pool."""

    name = ""
    why = ""
    #: Workloads of one family draw the same points for a seed.
    family = ""
    clients = 1
    #: The script repeats itself every ``period`` cycles: cycle ``i`` and
    #: cycle ``i + period`` are the same statements over the same tables.
    period = 1
    #: Cycles in the traced pass per 10 s of ``--seconds`` (a quarter of
    #: what the timed pass completes on the reference host).
    traced_cycles_per_10s = 4
    warmup_cycles = 1
    #: A single client runs the yardstick after every this-many
    #: statements of a cycle (see ``measure.Yardstick``): about 40 ms of
    #: statements per sample.
    sample_every = 1
    tier: dict = {"prepared": "hit"}
    #: Layer probes (``layers.probe_<name>``) that make sense here.
    probes: tuple = ("sql", "serve_and_core")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng(
            [seed, _name_salt(self.family or self.name)]
        )
        self.points: PointDataset | None = None
        self.tables: dict[str, PolygonSet] = {}
        self.pool: list[Stmt] = []
        self.planner: QueryPlanner | None = None
        self.server = None
        #: sql -> first (warm-up) answer; checked against the oracle once.
        self.references: dict[str, np.ndarray] = {}
        #: sql -> the oracle's exact answer (filled by verify_references).
        self.exact: dict[str, np.ndarray] = {}
        #: Warm-up results, kept so a traced set-up can be read back.
        self.warmup_results: list = []
        self.pyramid_build_s = 0.0
        self.generate()

    # -- inputs ---------------------------------------------------------
    def scaled(self, rows: int) -> int:
        return max(500, rows // 20) if self.smoke else rows

    def generate(self) -> None:
        raise NotImplementedError

    def region_fingerprint(self) -> str:
        """Content hash of the region tables alone."""
        digest = hashlib.blake2b(digest_size=16)
        for name in sorted(self.tables):
            for ring in rings_of(self.tables[name]):
                digest.update(np.ascontiguousarray(ring).tobytes())
        return digest.hexdigest()

    def fingerprint(self) -> str:
        """Content hash of everything handed to the system."""
        digest = hashlib.blake2b(digest_size=16)
        for column in ("x", "y", "fare", "hour"):
            digest.update(np.ascontiguousarray(
                self.points.column(column)).tobytes())
        digest.update(self.region_fingerprint().encode())
        digest.update(repr([s.sql for s in self.pool]).encode())
        return digest.hexdigest()

    # -- set-up (timed as setup_s) ----------------------------------------
    def make_planner(self) -> QueryPlanner:
        return QueryPlanner()

    def setup(self) -> None:
        """The system's own set-up calls, then untimed-but-counted warm-up."""
        self.planner = self.make_planner()
        self.planner.register_points(POINT_TABLE, self.points)
        for name, regions in self.tables.items():
            self.planner.register_regions(name, regions)
        self.prewarm()
        self.server = self.planner.server()
        self.references = {}
        self.warmup_results = []
        for _ in range(self.warmup_cycles):
            for stmt in self.pool:
                result = self.server.execute(stmt.sql, timeout=OP_TIMEOUT_S)
                self.warmup_results.append(result)
                self.references.setdefault(stmt.sql, result.values)

    def prewarm(self) -> None:
        """Hook: explicit cache builds a user would request up front."""

    def teardown(self) -> None:
        if self.planner is not None:
            self.planner.close()
        self.planner = self.server = None

    # -- oracle (untimed, reported as ledger.oracle_s) --------------------
    def verify_references(self) -> list[str]:
        """Check each distinct statement's reference; returns complaints."""
        xs, ys = self.points.column("x"), self.points.column("y")
        members = {
            name: oracle.membership(rings_of(regions), xs, ys)
            for name, regions in self.tables.items()
        }
        complaints = []
        for stmt in self.pool:
            keep = None
            if stmt.filt is not None:
                column, op, value = stmt.filt
                data = self.points.column(column)
                keep = data >= value if op == ">=" else data < value
            values = (None if stmt.column is None
                      else self.points.column(stmt.column))
            exact = oracle.aggregate(stmt.function, values,
                                     members[stmt.table], keep)
            self.exact[stmt.sql] = exact
            problem = self._judge(stmt, self.references[stmt.sql], exact)
            if problem:
                complaints.append(f"{stmt.sql}: {problem}")
        return complaints

    def _judge(self, stmt: Stmt, answer: np.ndarray,
               exact: np.ndarray) -> str | None:
        if stmt.within is None:
            tolerance = (0.0 if stmt.function in ("COUNT", "MAX")
                         else oracle.FLOAT_RTOL)
            if not oracle.agrees(answer, exact, tolerance):
                return "differs from the brute-force oracle"
            return None
        # Bounded answers are approximate by contract.  The unfiltered
        # COUNT must sit, with the exact count, inside the engine's own
        # 100%-confidence interval (one statement: the boundary analysis
        # costs seconds); the rest only get a sanity bound here, and
        # core.bounded_median_pct_error tracks their accuracy.
        if stmt.function == "COUNT" and stmt.filt is None:
            direct = BoundedRasterJoin(
                epsilon=stmt.within, compute_bounds=True
            ).execute(self.points, self.tables[stmt.table])
            if not np.array_equal(direct.values, answer):
                return "SQL answer differs from the bounded engine's own"
            if not direct.intervals.contains(exact).all():
                return "exact count outside the loose result interval"
            return None
        both = np.isfinite(answer) & np.isfinite(exact) & (exact != 0)
        if both.any():
            error = np.abs(answer[both] - exact[both]) / np.abs(exact[both])
            if np.median(error) > 0.10:
                return f"median relative error {np.median(error):.3f} > 10%"
        return None

    def median_pct_error(self) -> float:
        """Median percent error of the approximate (WITHIN) statements'
        references against the oracle; 0 when the pool has none."""
        errors = []
        for stmt in self.pool:
            if stmt.within is None:
                continue
            answer, exact = self.references[stmt.sql], self.exact[stmt.sql]
            both = np.isfinite(answer) & np.isfinite(exact) & (exact != 0)
            errors.append(100.0 * np.abs(answer[both] - exact[both])
                          / np.abs(exact[both]))
        return float(np.median(np.concatenate(errors))) if errors else 0.0

    # -- script -----------------------------------------------------------
    def cycle(self, index: int) -> list[Op]:
        rows = len(self.points)
        return [Op(s.sql, self.references[s.sql], self.tier, rows)
                for s in self.pool]

    def describe(self) -> dict:
        return {
            "points": len(self.points),
            "regions": {n: len(t) for n, t in self.tables.items()},
            "statements_per_cycle": len(self.cycle(0)),
            "clients": self.clients,
            "in_flight_per_client": 1,
            "loop": "closed",
        }


def _name_salt(name: str) -> int:
    return int.from_bytes(hashlib.blake2b(name.encode(),
                                          digest_size=4).digest(), "big")


class WarmTables(Workload):
    """The shared dashboard tables: 160k points, hoods 64 + zones 48."""

    family = "warm_tables"
    region_tables = ("hoods", "zones")
    withins: tuple = (None,)

    def generate(self) -> None:
        self.points = make_points(self.rng, self.scaled(WARM_POINTS))
        counts = {"hoods": HOODS, "zones": ZONES}
        for name in self.region_tables:
            count = max(6, counts[name] // 4) if self.smoke else counts[name]
            self.tables[name] = make_regions(
                (self.seed, self.region_tables.index(name) + 1), count
            )
        self.pool = statement_pool(self.region_tables, self.withins)


class WarmAccurate(WarmTables):
    name = "warm_accurate"
    why = ("interactive steady state: single-tile exact join, prepared-warm; "
           "point pass + boundary PIP + polygon pass carry the op, "
           "prepare/partition/backend/pyramid are bypassed")
    traced_cycles_per_10s = 5
    tier = {"prepared": "hit", "tiles": 1}
    probes = ("sql", "serve_and_core", "floors")


class WarmBounded(WarmTables):
    name = "warm_bounded"
    why = ("the paper's headline bounded engine: small eps-canvases, no PIP, "
           "project+scatter dominates; same core/graphics code used "
           "differently from warm_accurate")
    traced_cycles_per_10s = 8
    withins = (10.0, 2.5)
    sample_every = 3
    tier = {"prepared": "hit", "tiles": 1}


class TiledScan(WarmTables):
    name = "tiled_scan"
    why = ("16 tiles at 1024^2 under a 256-pixel device limit: the only "
           "workload where partitioning, backend dispatch, the per-tile "
           "loop and the ordered merge carry weight")
    traced_cycles_per_10s = 3
    region_tables = ("hoods",)
    #: No ``partition`` tier here: the pool needs more point partitions
    #: than the default session keeps, so statements re-partition;
    #: ``cache.partition_hit_share`` reports how often.
    tier = {"prepared": "hit", "tiles": 16}
    probes = ("sql", "serve_and_core", "floors", "exec")

    def make_planner(self) -> QueryPlanner:
        return QueryPlanner(device=GPUDevice(max_resolution=256))


class ServedSwarm(WarmTables):
    name = "served_swarm"
    why = ("the only concurrent workload: free-running closed-loop "
           "dashboard clients refreshing 8 widgets at once; admission, "
           "coalescing, fusion and lock/GIL contention decide latency and "
           "throughput")
    traced_cycles_per_10s = 4
    #: A client cycles through four refreshes of its own.
    period = 4
    tier = {"prepared": "hit", "tiles": 1}
    #: No single-statement probes: one client would measure another
    #: regime; the serial replay is this workload's baseline.
    probes = ("sql",)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.clients = min(os.cpu_count() or 1, 4)
        super().__init__(seed, smoke)

    def client_script(self, client: int, refresh: int) -> list[Op]:
        """One refresh of one client: ``REFRESH_WIDTH`` statements drawn
        without replacement by the client's own seeded RNG."""
        rng = np.random.default_rng([self.seed, client,
                                     refresh % self.period])
        ops = super().cycle(0)
        return [ops[i] for i in rng.choice(len(ops), REFRESH_WIDTH,
                                           replace=False)]

    def cycle(self, index: int) -> list[Op]:
        # One refresh of every client, flat (serial replay, counts).
        return [op for client in range(self.clients)
                for op in self.client_script(client, index)]

    def describe(self) -> dict:
        out = super().describe()
        out["in_flight_per_client"] = REFRESH_WIDTH
        return out


class PyramidPanzoom(Workload):
    name = "pyramid_panzoom"
    why = ("working set 4x the others yet the point pass is mostly skipped: "
           "pyramid block-merge plus boundary-cell fallback answer; a "
           "point-pass optimisation predicts no change here")
    traced_cycles_per_10s = 12
    sample_every = 4
    tier = {"prepared": "hit", "pyramid": "hit"}

    def generate(self) -> None:
        self.points = make_points(self.rng, self.scaled(PANZOOM_POINTS))
        count = 6 if self.smoke else PANZOOM_REGIONS
        for i, window in enumerate(PANZOOM_FRAMES):
            # Distinct anchor insets: the tables share the frame (so one
            # pyramid serves all) but no polygon, so each first touch is
            # a plain build rather than a 24-of-26 delta derivation.
            self.tables[f"frame{i}"] = make_regions(
                (self.seed, 10 + i), count, window, inset=0.1 * i
            )
        self.pool = [
            Stmt(function, column, table)
            for table in self.tables
            for function, column in AGGREGATES[:3]
        ]

    def prewarm(self) -> None:
        start = time.perf_counter()
        self.planner.prewarm(POINT_TABLE, "frame0")
        self.pyramid_build_s = time.perf_counter() - start


class ColdRezoning(Workload):
    name = "cold_rezoning"
    why = ("arbitrary polygons arriving on the fly: a zoning the session "
           "no longer holds (prepared: miss) then three one-vertex edits "
           "(delta) per cycle; triangulation, raster, grid build/splice "
           "carry the op")
    traced_cycles_per_10s = 4
    #: Six zonings in rotation.  A cycle leaves four artifacts in the
    #: session (the zoning and its three edits) and the default session
    #: keeps eight, so when a zoning comes round again nothing of it is
    #: left: it is rebuilt from its rings, as the first time.  Six,
    #: because a zoning with one sprawling region costs 1.4x the next to
    #: build: over ten seeds the mean cycle of three zonings spread by
    #: 9%, of six by 4%.
    period = 6
    probes = ("sql", "polygon_layers")
    table = "zones"
    edits_per_cycle = 3
    #: Warm-up cycles draw zonings of their own (indexes from here up
    #: are not folded into the rotation): replaying a timed one would
    #: leave its artifacts in the session.
    warmup_base = 1_000_000

    def generate(self) -> None:
        self.points = make_points(self.rng, self.scaled(REZONE_POINTS))
        self.regions = 8 if self.smoke else REZONE_REGIONS
        self.tables[self.table] = make_regions((self.seed, 20), self.regions)
        self.pool = [Stmt("SUM", "fare", self.table)]
        self._xs = self.points.column("x")
        self._ys = self.points.column("y")
        self._fare = self.points.column("fare")
        self._cycles: dict[int, list[Op]] = {}

    def _sums(self, members: list[np.ndarray]) -> np.ndarray:
        return oracle.aggregate("SUM", self._fare, members)

    def _register(self, polys: list[Polygon]) -> Callable[[], None]:
        regions = PolygonSet(polys)
        return lambda: self.planner.register_regions(self.table, regions)

    def cycle(self, index: int) -> list[Op]:
        zoning = index if index >= self.warmup_base else index % self.period
        if zoning not in self._cycles:
            self._cycles[zoning] = self._draw_cycle(zoning)
        return self._cycles[zoning]

    def _draw_cycle(self, zoning: int) -> list[Op]:
        """One zoning and three strokes on it.  Every polygon differs
        from every other zoning's (the anchors move their inner corners,
        or the two of them would make it a delta), the frame does not.
        References come straight from the oracle: fares are integers, so
        the exact sum is also the bit-exact one."""
        rng = np.random.default_rng([self.seed, 7, zoning])
        rows = len(self.points)
        polys = list(make_regions((self.seed, 21, zoning), self.regions,
                                  inset=rng.uniform(0.01, 1.0)))
        members = oracle.membership([p.exterior for p in polys],
                                    self._xs, self._ys)
        sql = self.pool[0].sql
        ops = [Op(sql, self._sums(members), {"prepared": "miss"}, rows,
                  before=self._register(polys), tag="full")]
        # What an edit costs depends on the region it hits (a large one
        # splices more grid cells), so the strokes of a zoning are
        # stratified: the seed picks one region from each third of them
        # by bounding-box area.  Over ten seeds the median statement
        # then costs the same to 4%; with free picks it moved by 15%.
        # (The two anchors, last in the set, are never edited.)
        by_size = np.argsort([p.bbox.area for p in polys[:-2]])
        for third in np.array_split(by_size, self.edits_per_cycle):
            pid = int(rng.choice(third))
            polys = edit_vertex(polys, pid, int(rng.integers(0, 64)))
            members = list(members)
            members[pid] = oracle.members_of(polys[pid].exterior,
                                             self._xs, self._ys)
            ops.append(Op(
                sql, self._sums(members),
                {"prepared": "delta", "polygons_rebuilt": 1}, rows,
                before=self._register(polys), tag="delta",
            ))
        return ops

    def setup(self) -> None:
        self.planner = self.make_planner()
        self.planner.register_points(POINT_TABLE, self.points)
        self.planner.register_regions(self.table, self.tables[self.table])
        self.server = self.planner.server()
        sql = self.pool[0].sql
        result = self.server.execute(sql, timeout=OP_TIMEOUT_S)
        self.references = {sql: result.values}
        self.warmup_results = [result]
        for i in range(self.warmup_cycles):
            for op in self.cycle(self.warmup_base + i):
                op.before()
                self.warmup_results.append(
                    self.server.execute(op.sql, timeout=OP_TIMEOUT_S)
                )


WORKLOADS = {cls.name: cls for cls in (
    WarmAccurate, WarmBounded, ColdRezoning, PyramidPanzoom, TiledScan,
    ServedSwarm,
)}
