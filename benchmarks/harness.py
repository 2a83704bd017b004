"""Shared benchmark harness: experiment tables and CPU-baseline helpers.

Every benchmark module registers the rows it measures into a global
:class:`ExperimentTable`; a terminal-summary hook in ``conftest.py`` prints
all tables after the run, reproducing the layout of the paper's tables and
figure series.  Raw rows are also dumped to ``benchmarks/results/*.tsv``.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.geometry.polygon import PolygonSet
from repro.index.grid import GridIndex

RESULTS_DIR = Path(__file__).parent / "results"

#: Global registry: experiment id -> ExperimentTable.
_TABLES: dict[str, "ExperimentTable"] = {}


class ExperimentTable:
    """Rows of one paper artifact (a table or a figure's data series)."""

    def __init__(self, experiment_id: str, title: str, columns: list[str]) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.columns = columns
        self.rows: list[list] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    # ------------------------------------------------------------------
    def _formatted(self) -> list[list[str]]:
        out = []
        for row in self.rows:
            formatted = []
            for value in row:
                if isinstance(value, float):
                    if value == 0:
                        formatted.append("0")
                    elif abs(value) >= 1000 or abs(value) < 0.001:
                        formatted.append(f"{value:.3g}")
                    else:
                        formatted.append(f"{value:.4f}".rstrip("0").rstrip("."))
                else:
                    formatted.append(str(value))
            out.append(formatted)
        return out

    def render(self) -> str:
        body = self._formatted()
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in body), 3)
            if body
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def dump_tsv(self) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment_id}.tsv"
        with open(path, "w") as handle:
            handle.write("\t".join(self.columns) + "\n")
            for row in self._formatted():
                handle.write("\t".join(row) + "\n")
        return path


def table(experiment_id: str, title: str, columns: list[str]) -> ExperimentTable:
    """Get-or-create the table for an experiment id."""
    if experiment_id not in _TABLES:
        _TABLES[experiment_id] = ExperimentTable(experiment_id, title, columns)
    return _TABLES[experiment_id]


def all_tables() -> list[ExperimentTable]:
    return [_TABLES[k] for k in sorted(_TABLES)]


# ----------------------------------------------------------------------
# Metrics snapshots for the BENCH_*.json trajectory records
# ----------------------------------------------------------------------
def metrics_snapshot() -> dict:
    """A JSON-safe dump of the process-wide metrics registry.

    Benchmarks embed this in their ``BENCH_*.json`` records so a
    trajectory point carries not just the headline timings but the work
    the run actually did — cache hit/miss counts, store traffic,
    device-memory high-water marks (see ``docs/observability.md``).
    Call ``repro.obs.metrics.REGISTRY.reset()`` at the start of a leg to
    scope the snapshot to that leg.
    """
    from repro.obs import metrics

    return metrics.snapshot()


# ----------------------------------------------------------------------
# CPU grid-index builds for Table 1 (the paper reports GPU / multi-CPU /
# single-CPU index-creation costs separately).
# ----------------------------------------------------------------------
def build_grid_python(polygons: PolygonSet, resolution: int,
                      extent=None) -> float:
    """Single-threaded pure-Python grid build (MBR assignment).

    The C++ single-CPU baseline of Table 1, transliterated: nested loops,
    one cell-list append at a time.  ``extent`` lets parallel callers pin
    the grid geometry while splitting the polygon list.
    """
    extent = extent if extent is not None else polygons.bbox
    cell_w = extent.width / resolution
    cell_h = extent.height / resolution
    start = time.perf_counter()
    # Sparse cell lists: preallocating resolution^2 Python lists would cost
    # more than the build itself and is an artifact of Python, not of the
    # algorithm being measured.
    cells: dict[int, list[int]] = {}
    for pid, poly in enumerate(polygons):
        box = poly.bbox
        x0 = min(max(int((box.xmin - extent.xmin) / cell_w), 0), resolution - 1)
        x1 = min(max(int((box.xmax - extent.xmin) / cell_w), 0), resolution - 1)
        y0 = min(max(int((box.ymin - extent.ymin) / cell_h), 0), resolution - 1)
        y1 = min(max(int((box.ymax - extent.ymin) / cell_h), 0), resolution - 1)
        for gy in range(y0, y1 + 1):
            row = gy * resolution
            for gx in range(x0, x1 + 1):
                cells.setdefault(row + gx, []).append(pid)
    return time.perf_counter() - start


_MULTICORE_STATE: dict = {}


def _build_grid_chunk(args: tuple[int, int]) -> float:
    """Worker: scalar grid build over one slice of the polygon list.

    The polygons arrive via fork-inherited module state, not pickling —
    shipping geometry to workers would swamp the build time being measured.
    """
    lo, hi = args
    polys = _MULTICORE_STATE["polygons"]
    return build_grid_python(
        PolygonSet(polys[lo:hi]),
        _MULTICORE_STATE["resolution"],
        extent=_MULTICORE_STATE["extent"],
    )


def build_grid_multicore(polygons: PolygonSet, resolution: int,
                         workers: int = 2) -> float:
    """Multi-process grid build: polygons partitioned across workers
    (the paper parallelizes the build per polygon)."""
    import multiprocessing as mp

    polys = list(polygons)
    chunk = -(-len(polys) // workers)
    ranges = [
        (i, min(i + chunk, len(polys))) for i in range(0, len(polys), chunk)
    ]
    _MULTICORE_STATE.update(
        polygons=polys, resolution=resolution, extent=polygons.bbox
    )
    try:
        start = time.perf_counter()
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=len(ranges)) as pool:
            pool.map(_build_grid_chunk, ranges)
        return time.perf_counter() - start
    finally:
        _MULTICORE_STATE.clear()


def build_grid_gpu(polygons: PolygonSet, resolution: int) -> float:
    """The vectorized two-pass build (the paper's on-the-fly GPU build)."""
    return GridIndex(polygons, resolution=resolution).build_seconds


# ----------------------------------------------------------------------
# CPU query-time anchor for speedup plots
# ----------------------------------------------------------------------
def single_cpu_seconds_per_point(points, polygons, sample: int = 20_000) -> float:
    """Measured single-CPU join cost per point (linear in N, so one sample
    anchors the whole speedup axis)."""
    from repro.core.index_join import IndexJoin

    subset = points.head(min(sample, len(points)))
    engine = IndexJoin(mode="cpu", grid_resolution=1024)
    result = engine.execute(subset, polygons)
    return result.stats.query_s / len(subset)
