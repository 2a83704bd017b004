"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import settings

from repro import PointDataset, Polygon, PolygonSet, Sum
from repro.cache.prepared import PreparedPolygons
from repro.exec import backend as exec_backend
from repro.exec.partition import route_chunk
from repro.index.grid import ragged_positions
from repro.store.store import STORE_DIR_ENV_VAR
from tests.graphics.reference_raster import covered_pixels


# A failing example prints its ``@reproduce_failure`` blob, so a
# counterexample one run finds can be replayed wherever it was seen.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture(params=["native", "numpy"])
def raster_kernels(request, monkeypatch):
    """Run the test on the compiled triangle scan and outline supercover
    (skipped where none was built), then on their numpy forms."""
    from repro.graphics import raster_batch, raster_line

    if request.param == "native":
        if raster_batch._NATIVE is None or raster_line._NATIVE is None:
            pytest.skip("no compiled raster kernels on this platform")
        scan, supercover = raster_batch._NATIVE, raster_line._NATIVE
    else:
        scan = raster_batch._scan_numpy
        supercover = raster_line._supercover_numpy
    monkeypatch.setattr(raster_batch, "_scan", scan)
    monkeypatch.setattr(raster_line, "_supercover", supercover)
    return request.param


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="run the test modules in the random order seed N draws "
             "(tests keep their order within a module)",
    )


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        return f"test modules shuffled: --shuffle-seed {seed}"


def pytest_collection_modifyitems(config, items):
    """Order-dependence between modules (state one test leaves for the
    next: stores, backends, registries) shows up as a failure under some
    seed; the seed is in the report header, so it reproduces."""
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    by_module: dict[str, list] = {}
    for item in items:
        by_module.setdefault(item.module.__name__, []).append(item)
    order = sorted(by_module)
    random.Random(seed).shuffle(order)
    items[:] = [item for name in order for item in by_module[name]]


@pytest.fixture(autouse=True)
def _isolated_process_state(monkeypatch):
    """Keep one test's backends and store contents out of the next.

    * When the environment supplies ``$REPRO_STORE_DIR`` (the store CI
      legs), each test gets its own sub-root, so a session's cold / miss
      / pool events are the test's own and not whatever an earlier test
      left on disk.
    * Every execution backend a test created and left open is closed
      afterwards, so its thread pool does not outlive the test.
    """
    root = os.environ.get(STORE_DIR_ENV_VAR)
    if root:
        os.makedirs(root, exist_ok=True)
        monkeypatch.setenv(STORE_DIR_ENV_VAR, tempfile.mkdtemp(dir=root))
    before = weakref.WeakSet(exec_backend._LIVE_BACKENDS)
    yield
    for backend in list(exec_backend._LIVE_BACKENDS):
        if backend not in before:
            backend.close()


class FatalColumn(str):
    """A column name that ends any forked child looking it up: by
    ``os._exit``, as a worker lost mid-dispatch would, or, given
    ``raises``, by raising it there.  The process that named it reads it
    as the plain name."""

    def __new__(cls, name: str,
                raises: Exception | None = None) -> "FatalColumn":
        column = super().__new__(cls, name)
        column.parent_pid = os.getpid()
        column.raises = raises
        return column

    def __hash__(self) -> int:
        if os.getpid() != self.parent_pid:
            if self.raises is not None:
                raise self.raises
            os._exit(3)
        return str.__hash__(self)


class WorkerKiller(Sum):
    """A Sum whose tile task ends the forked child running it: the
    point pass looks its :class:`FatalColumn` up in the child, alone or
    as a channel of a shared group."""

    def __init__(self, column: str,
                 raises: Exception | None = None) -> None:
        super().__init__(FatalColumn(column, raises))


def edge_table_for(polygons: PolygonSet, rows: int):
    """The boundary PIP's edge table in ``rows`` bands, built the way
    the engines build it: by a prepared artifact, from its own MBR
    columns."""
    return PreparedPolygons(polygons).ensure_edge_table(polygons, rows)


def scalar_pixels(viewport, triangles) -> np.ndarray:
    """One polygon's flat ``iy * width + ix`` coverage from the scalar
    per-triangle kernel — the oracle for the batched builders:
    triangulation order, row-major within a triangle."""
    flat = [np.zeros(0, dtype=np.int64)]
    for tri in triangles:
        xs, ys = covered_pixels(viewport, tri)
        flat.append(ys * viewport.width + xs)
    return np.concatenate(flat)


def run_pixels(runs: np.ndarray) -> np.ndarray:
    """The flat pixels a ``(k, 2)`` array of ``[lo, hi)`` coverage runs
    expands to, run after run."""
    runs = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    return ragged_positions(runs[:, 0], runs[:, 1] - runs[:, 0])


def assert_views_equal(got, cold, label=None) -> None:
    """Two artifacts hold the same tiles' records, array for array
    (dtypes included): the mask, the run table with every field of its
    plan, and the candidates — ``None`` on both sides where the kernel
    has none."""
    assert set(got.views) == set(cold.views), label
    for idx, theirs in cold.views.items():
        for field, mine, held in zip(theirs._fields, got.views[idx], theirs):
            assert (mine is None) == (held is None), (label, idx, field)
            if isinstance(held, np.ndarray):
                mine, held = (mine,), (held,)
            for left, right in zip(mine or (), held or ()):
                assert left.dtype == right.dtype, (label, idx, field)
                assert np.array_equal(left, right), (label, idx, field)


def concat_points(first: PointDataset, second: PointDataset) -> PointDataset:
    """``first``'s rows followed by ``second``'s (same attribute columns)."""
    assert set(first.attributes) == set(second.attributes)
    return PointDataset(
        np.concatenate([first.xs, second.xs]),
        np.concatenate([first.ys, second.ys]),
        {
            n: np.concatenate([a, second.attributes[n]])
            for n, a in first.attributes.items()
        },
        name=first.name,
    )


def routed_tile_rows(engine, points: PointDataset,
                     polygons: PolygonSet) -> np.ndarray:
    """How many rows ``engine`` routes to each tile of the canvas it
    renders ``polygons`` on: the rows a device cuts into a tile's
    batches."""
    canvas = engine._make_canvas(polygons)
    limit = engine.max_resolution
    tiles = list(canvas.tiles(limit))
    return np.diff(route_chunk(points, canvas, tiles, limit).bounds)


def cutting_capacity(engine, points: PointDataset, polygons: PolygonSet,
                     aggregate, filters, rows: int) -> int:
    """Device bytes that hold the statement's largest framebuffer on
    ``engine`` plus ``rows`` rows of its columns: on a layout of equal
    tiles, a device of that capacity cuts each tile every ``rows``
    rows."""
    footprint = engine.footprint(points, polygons, aggregate, filters)
    columns = engine.required_columns(aggregate, filters)
    row_bytes = sum(points.column(name).dtype.itemsize for name in columns)
    return max(footprint.fbo_bytes) + rows * row_bytes


def regular_polygon(cx: float, cy: float, radius: float, sides: int) -> Polygon:
    """A regular ``sides``-gon inscribed in the circle (cx, cy, radius)."""
    angles = 2.0 * np.pi * np.arange(sides) / sides
    return Polygon(np.column_stack(
        [cx + radius * np.cos(angles), cy + radius * np.sin(angles)]
    ))


def random_star_polygon(
    rng: np.random.Generator,
    center: tuple[float, float] = (50.0, 50.0),
    radius_range: tuple[float, float] = (5.0, 40.0),
    vertices: int = 10,
) -> Polygon:
    """A guaranteed-simple random polygon (star-shaped about its center).

    Angle gaps are capped below pi so no edge can swing around the center;
    the construction is then always simple.
    """
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, vertices))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.max() < 0.9 * np.pi:
            break
    radii = rng.uniform(*radius_range, vertices)
    ring = np.column_stack(
        [
            center[0] + radii * np.cos(angles),
            center[1] + radii * np.sin(angles),
        ]
    )
    return Polygon(ring)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def unit_square() -> Polygon:
    return Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])


@pytest.fixture
def concave_polygon() -> Polygon:
    """An arrow-head shaped concave polygon."""
    return Polygon([(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)])


@pytest.fixture
def holed_polygon() -> Polygon:
    return Polygon(
        [(0, 0), (20, 0), (20, 20), (0, 20)],
        holes=[[(5, 5), (15, 5), (15, 15), (5, 15)]],
    )


@pytest.fixture
def three_regions() -> PolygonSet:
    """A small mixed polygon set: convex, concave, holed."""
    return PolygonSet(
        [
            Polygon([(10, 10), (40, 12), (35, 40), (15, 35)]),
            Polygon([(50, 50), (90, 55), (80, 95), (45, 80), (60, 65)]),
            Polygon(
                [(20, 60), (40, 60), (40, 90), (20, 90)],
                holes=[[(25, 65), (35, 65), (35, 85), (25, 85)]],
            ),
        ]
    )


@pytest.fixture
def uniform_points(rng: np.random.Generator) -> PointDataset:
    """20k uniform points over [0, 100]^2 with two attributes."""
    n = 20_000
    return PointDataset(
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
        {
            "fare": rng.uniform(1.0, 30.0, n),
            "hour": rng.integers(0, 24, n).astype(np.int32),
        },
    )


def brute_force_counts(points: PointDataset, polygons: PolygonSet) -> np.ndarray:
    """Reference join: exhaustive vectorized PIP per polygon."""
    return np.asarray(
        [
            float(np.count_nonzero(p.contains_points(points.xs, points.ys)))
            for p in polygons
        ]
    )


def brute_force_sums(
    points: PointDataset, polygons: PolygonSet, column: str
) -> np.ndarray:
    values = points.column(column)
    return np.asarray(
        [
            float(np.sum(values[p.contains_points(points.xs, points.ys)]))
            for p in polygons
        ]
    )


def brute_force_values(
    points: PointDataset,
    polygons: PolygonSet,
    function: str,
    column: str | None = None,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Reference answer for any supported aggregate: exhaustive PIP per
    polygon over the points ``keep`` selects, reduced with plain NumPy
    (``count`` / ``sum`` / ``avg`` / ``min`` / ``max``; an empty ``avg``,
    ``min`` or ``max`` is NaN, as the engines report it)."""
    keep = np.ones(len(points), dtype=bool) if keep is None else keep
    values = None if column is None else points.column(column)
    out = []
    for polygon in polygons:
        inside = polygon.contains_points(points.xs, points.ys) & keep
        if function == "count":
            out.append(float(np.count_nonzero(inside)))
        elif function == "sum":
            out.append(float(np.sum(values[inside], dtype=np.float64)))
        elif not inside.any():
            out.append(np.nan)
        elif function == "avg":
            out.append(float(np.sum(values[inside], dtype=np.float64))
                       / float(np.count_nonzero(inside)))
        else:
            out.append(float(getattr(np, function)(values[inside])))
    return np.asarray(out)
