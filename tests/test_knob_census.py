"""Knob census: every independently settable option, pinned by name.

Each option doubles the configurations the suites and the ledger must
cover, so adding one is a decision, not a side effect: a new
``EngineConfig`` or ``ServeConfig`` field, ``QuerySession`` parameter or
``REPRO_*`` variable fails tier-1 here until the literal below is edited
in the same diff (ROADMAP aim 2 tracks these counts downwards).
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro
from repro.cache.prepared import PolygonUnit, PreparedPolygons
from repro.cache.session import QuerySession
from repro.core.tiles import TileViews
from repro.exec.config import EngineConfig
from repro.serve import ServeConfig
from repro.store import ArtifactStore

SRC = Path(repro.__file__).resolve().parent


def test_engine_config_fields():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "backend", "workers", "store_dir", "store_budget", "shm",
    ]


def test_serve_config_fields():
    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "max_workers", "max_queue", "timeout_s",
    ]


def test_query_session_parameters():
    params = list(inspect.signature(QuerySession.__init__).parameters)
    assert params == ["self", "capacity", "byte_budget", "store"]


def test_engine_constructor_parameters():
    """The raster joins' own options (the bounded join's scanline
    coverage switch went: 7 -> 6)."""
    assert list(inspect.signature(
        repro.AccurateRasterJoin.__init__
    ).parameters)[1:] == [
        "resolution", "device", "grid_resolution", "session", "config",
    ]
    assert list(inspect.signature(
        repro.BoundedRasterJoin.__init__
    ).parameters)[1:] == [
        "epsilon", "resolution", "device", "compute_bounds", "session",
        "config",
    ]


def test_artifact_store_persists_one_kind():
    """Every extra pair kind on disk is another format, another
    fault-injection matrix and another restart path (shapes went 4 -> 2
    in PR 19, 2 -> 1 in PR 22)."""
    assert {
        name for name, member in vars(ArtifactStore).items()
        if callable(member) and name.startswith(("save", "load"))
    } == {"save", "load"}


def test_polygon_unit_representations():
    """Every per-polygon representation is something an edit must
    re-derive, a store must encode and a byte budget must count (the
    grid-cell list went in PR 23: 6 -> 5)."""
    assert PolygonUnit.__slots__ == (
        "fingerprint", "bbox", "triangles", "boundary", "coverage",
    )


def test_prepared_artifact_slots():
    """Every artifact slot is state a session holds, an edit carries and
    a byte budget may count; the per-tile views are what a tile task
    composes (the boundary-fragment index went when coverage became
    runs: 18 -> 17 slots, 4 -> 3 views; the per-polygon fingerprint
    list went when polygons came to carry their own: 17 -> 16)."""
    assert PreparedPolygons.__slots__ == (
        "key", "canvas", "tiles", "triangles", "grid", "boundary_masks",
        "coverage", "candidates", "mbr_arrays", "edge_table", "units",
        "source_bbox", "delta_dirty", "version", "triangulation_s", "uses",
    )
    assert TileViews._fields == ("boundary", "coverage", "candidates")


def test_environment_variables_referenced_under_src():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {
        "REPRO_EXEC_BACKEND", "REPRO_EXEC_WORKERS", "REPRO_SHM",
        "REPRO_STORE_BUDGET", "REPRO_STORE_DIR", "REPRO_TRACE",
    }


def test_repro_shm_is_read_at_one_site():
    """The shm plane keeps one switch: only the process backend's
    constructor resolves ``$REPRO_SHM`` (``EngineConfig.shm`` feeds it,
    the tile loop observes the backend)."""
    reads = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\(\s*SHM_ENV_VAR\b", line)
    ]
    assert len(reads) == 1 and reads[0].startswith("exec/backend.py:"), reads
