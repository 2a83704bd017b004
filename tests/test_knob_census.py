"""Knob census: every independently settable option, pinned by name.

Each option doubles the configurations the suites and the ledger must
cover, so adding one is a decision, not a side effect: a new
``EngineConfig`` or ``ServeConfig`` field, ``QuerySession`` parameter or
``REPRO_*`` variable fails tier-1 here until the literal below is edited
in the same diff (ROADMAP aim 2 tracks these counts downwards).

The surface census at the end does the same for library code: a
definition nothing outside ``tests/`` calls fails tier-1 instead of
piling up.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache.prepared import PolygonUnit, PreparedPolygons, TileViews
from repro.cache.session import QuerySession
from repro.exec.config import EngineConfig
from repro.serve import ServeConfig
from repro.store import ArtifactStore

SRC = Path(repro.__file__).resolve().parent


def test_engine_config_fields():
    """``shm`` no longer selects anything (the resident pool it switched
    on is gone, ``test_nothing_reads_engine_config_shm``); it stays only
    while the perf ledger's ``resident`` cell constructs it."""
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


def test_optimizer_constructor_parameters():
    """EXPLAIN's cost model reads canvas, workers and session off the
    engine it costs; only the calibration device is its own (the
    chooser's ``accurate_resolution``, ``session`` and ``config`` went:
    4 -> 1)."""
    assert list(inspect.signature(
        repro.RasterJoinOptimizer.__init__
    ).parameters)[1:] == ["device"]


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
    list went when polygons came to carry their own: 17 -> 16; the
    delta record — rebuilt ids plus the base a delta patches its views
    from — took the rebuilt-id list's slot: still 16; the statements'
    recorded per-tile answers a delta re-aggregates its window against:
    16 -> 17; the three per-tile view dicts, kept in lockstep, became one
    record per tile: 17 -> 15)."""
    assert PreparedPolygons.__slots__ == (
        "key", "canvas", "tiles", "triangles", "grid", "views",
        "mbr_arrays", "edge_table", "units", "source_bbox", "delta",
        "answers", "version", "triangulation_s", "uses",
    )
    assert TileViews._fields == ("boundary", "coverage", "candidates")


def test_environment_variables_referenced_under_src():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {
        "REPRO_EXEC_BACKEND", "REPRO_EXEC_WORKERS",
        "REPRO_STORE_BUDGET", "REPRO_STORE_DIR", "REPRO_TRACE",
    }


def test_nothing_reads_engine_config_shm():
    """``EngineConfig.shm`` is inert: no code under ``src`` reads an
    attribute named ``shm`` (or fetches one by name), so no dispatch
    mode can grow back behind the field."""
    reads = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "shm")
        or (isinstance(node, ast.Constant) and node.value == "shm")
    ]
    assert reads == []


# ----------------------------------------------------------------------
# Surface census
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "examples", "benchmarks")

#: The only definitions no caller outside ``tests/`` references, each with
#: the test that needs it: the scalar kernels are the references the
#: vectorized production paths are checked against; the device-wide byte
#: totals are how the concurrency tests read what the
#: ``device_peak_bytes{device="all"}`` gauge records; ``reset`` is how
#: the tests isolate metrics and ``partition_nbytes`` how they read the
#: routing cache; the asyncio facade is the serving layer's entry for
#: asyncio clients, which the serving tests drive; and ``invalidate`` is
#: a session's explicit drop (``docs/query_sessions.md``), which the
#: session tests drive.
TEST_ONLY = {
    "accumulate_polygon_sum": "tests/graphics/test_raster_polygon.py",
    "aggregate_allocated_bytes": "tests/exec/test_concurrent_backend.py",
    "aggregate_peak_bytes": "tests/exec/test_concurrent_backend.py",
    "point_in_triangle": "tests/geometry/reference_earclip.py",
    "triangulate_ring": "tests/property/test_prop_triangulate.py",
    "MetricsRegistry.reset": "tests/obs/test_metrics.py",
    "QueryPlanner.execute_async": "tests/serve/test_server.py",
    "QuerySession.invalidate": "tests/cache/test_query_session.py",
    "QuerySession.partition_nbytes": "tests/exec/test_partition.py",
    "Server.execute_async": "tests/serve/test_server.py",
}

#: Surface methods whose bare name is also an attribute of a builtin or
#: numpy type (``np.ndarray``, ``np.ufunc``, ``dict``, ``list``, ``set``,
#: ``str``, an open file).  The census matches a method by that bare
#: name, so any ``.close()`` on a file or ``.take()`` on an array counts
#: as its caller: the census cannot see one of these die.  A new one is
#: entered here on purpose (``test_homonyms_are_committed``).
HOMONYMS = {
    "Aggregate.identity", "AnswerBook.clear", "AnswerBook.get",
    "ArtifactStore.clear", "BBox.center", "BBox.union", "ColumnStore.write", "DeviceBuffer.nbytes",
    "EdgeTable.nbytes", "ExecutionBackend.close", "IndexJoin.close",
    "MultiAggregate.split", "PointDataset.take", "PreparedPolygons.nbytes",
    "QueryPlanner.close", "QuerySession.nbytes", "Routing.nbytes",
    "Server.close", "Span.find",
    "SpatialAggregationEngine.close",
    "ThreadBackend.close", "Tracer.close", "_Parser.peek",
    "_PointState.nbytes", "_QuadNode.count", "_Window.shape",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _member(name: str) -> str:
    """What a caller writes: a method's own name, not its class's."""
    return name.rsplit(".", 1)[-1]


def _surface(root: Path = ROOT) -> dict[str, list[str]]:
    """Each name in a package ``__all__``, each module-level function or
    class under ``src/repro``, and each method or property in such a
    class's body (as ``Class.method``), with where it is defined.
    Dunders (``__version__``, ``__len__``) are read by tools and the
    interpreter, not code, and a function an ``atexit.register``
    decorator registers is called by the interpreter; none is counted."""
    defined: dict[str, list[str]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        where = str(path.relative_to(root))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                if not any(ast.unparse(d).endswith(".register")
                           for d in node.decorator_list):
                    defined.setdefault(node.name, []).append(where)
            elif (isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "__all__"):
                for name in ast.literal_eval(node.value):
                    if not name.startswith("__"):
                        defined.setdefault(name, []).append(where)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, _FUNCTIONS)
                            and not _dunder(member.name)):
                        defined.setdefault(
                            f"{node.name}.{member.name}", []
                        ).append(where)
    return defined


def _references(root: Path = ROOT) -> set[str]:
    """Every name loaded, attribute read or name imported by code under
    ``CALLER_DIRS`` — except a definition's uses of itself (recursion, a
    class building its own instances, a method calling itself), an
    ``__init__`` re-export, and, outside ``src/``, a bare name the module
    defines itself at module level (a benchmark's own ``timed`` is not
    a call of the library's)."""
    used: set[str] = set()
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            definitions = [
                node for node in tree.body
                if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
            ]
            local = set() if top == "src" else {
                node.name for node in definitions
            }
            definitions += [
                member for node in definitions
                if isinstance(node, ast.ClassDef)
                for member in node.body if isinstance(member, _FUNCTIONS)
            ]
            own: dict[int, set[str]] = {}
            for definition in definitions:
                for node in ast.walk(definition):
                    own.setdefault(id(node), set()).add(definition.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in local:
                        continue
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    name = node.attr
                elif (isinstance(node, ast.alias)
                      and path.name != "__init__.py"):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                if name not in own.get(id(node), ()):
                    used.add(name)
    return used


def _dead(root: Path = ROOT, pins: dict = TEST_ONLY) -> dict[str, list[str]]:
    used = _references(root)
    return {
        name: where for name, where in _surface(root).items()
        if _member(name) not in used and name not in pins
    }


def _stale_pins(root: Path = ROOT, pins: dict = TEST_ONLY) -> list[str]:
    """The pins that are no longer current: gone, called outside tests
    — a caller makes it ordinary surface — or not read by their test."""
    surface, used = _surface(root), _references(root)
    return [
        name for name, test in pins.items()
        if name not in surface or _member(name) in used
        or not re.search(rf"\b{_member(name)}\b", (root / test).read_text())
    ]


def test_every_definition_has_a_caller_outside_tests():
    """A definition only ``tests/`` calls is dead surface: delete it with
    its tests, or — when a test needs it as the reference for a
    production path — list it in ``TEST_ONLY`` with that test."""
    dead = _dead()
    assert not dead, dead


def test_test_only_exceptions_are_current():
    """Each exception is still defined, still uncalled outside tests
    and still read by its test."""
    assert not _stale_pins()


def _homonyms(root: Path = ROOT) -> set[str]:
    """The surface methods whose bare name a builtin or numpy type, or
    an open file, also carries."""
    names = set()
    for kind in (np.ndarray, np.ufunc, dict, list, set, str):
        names.update(dir(kind))
    for mode in ("r", "rb"):
        with open(__file__, mode) as handle:
            names.update(dir(handle))
    return {
        name for name in _surface(root)
        if "." in name and _member(name) in names
    }


def test_homonyms_are_committed():
    """The census's blind spot is listed: a method a builtin's name
    shadows has callers everywhere, so adding one is a decision."""
    assert _homonyms() == HOMONYMS


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside the module's string annotations (``"np.ndarray"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, _FUNCTIONS):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for leaf in ast.walk(annotation):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    names.update(
                        name.id for name in ast.walk(ast.parse(leaf.value))
                        if isinstance(name, ast.Name)
                    )
    return names


def _unused_imports(root: Path = ROOT) -> list[str]:
    """Each import under ``src/repro`` whose bound name its module never
    loads, nor names in a string annotation, as ``path:line import``.
    ``__init__.py`` re-exports and ``__future__`` are exempt."""
    package = root / "src" / "repro"
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = _annotation_names(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in loaded:
                    unused.append(
                        f"{path.relative_to(package).as_posix()}:"
                        f"{node.lineno} {ast.unparse(node)}"
                    )
    return unused


def test_every_import_is_used():
    """An import its module never uses is left over from a deletion or
    a fold; no linter runs here, so this check does."""
    assert not _unused_imports(), _unused_imports()


PACKAGES = sorted(
    ".".join(path.parent.relative_to(ROOT / "src").parts)
    for path in (ROOT / "src" / "repro").rglob("__init__.py")
    if "__all__" in path.read_text()
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """``__all__`` names only what the package really binds, so deleting a
    definition cannot leave its export behind for ``import *`` to trip
    over."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__), package


# ----------------------------------------------------------------------
# The census on a synthetic tree: what it counts as a caller
# ----------------------------------------------------------------------
def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for top in CALLER_DIRS:
        (tmp_path / top).mkdir(exist_ok=True)
    return tmp_path


def test_census_flags_an_unreferenced_definition(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def used():\n    pass\n\n\n"
                            "def orphan():\n    pass\n",
        "examples/demo.py": "from repro.mod import used\nused()\n",
    })
    assert _dead(root) == {"orphan": ["src/repro/mod.py"]}


def test_census_does_not_count_tests_as_callers(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Helper:\n    pass\n",
        "tests/test_mod.py": "from repro.mod import Helper\nHelper()\n",
    })
    assert _dead(root) == {"Helper": ["src/repro/mod.py"]}


def test_census_does_not_count_self_reference(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def walk(n):\n"
                            "    return walk(n - 1) if n else 0\n",
    })
    assert _dead(root) == {"walk": ["src/repro/mod.py"]}


def test_census_does_not_count_a_reexport(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "from repro.mod import orphan\n\n"
                                 "__all__ = [\"orphan\", \"__version__\"]\n",
        "src/repro/mod.py": "def orphan():\n    pass\n",
    })
    assert _dead(root) == {
        "orphan": ["src/repro/__init__.py", "src/repro/mod.py"],
    }


def test_census_counts_attribute_reads_from_benchmarks(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def helper():\n    pass\n",
        "benchmarks/bench.py": "import repro.mod\nrepro.mod.helper()\n",
    })
    assert _dead(root) == {}


def test_census_skips_functions_the_interpreter_calls(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "import atexit\n\n\n@atexit.register\n"
                            "def _cleanup():\n    pass\n",
    })
    assert _dead(root) == {}


def test_census_flags_an_unreferenced_method(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Table:\n"
                            "    def used(self):\n        pass\n\n"
                            "    @property\n"
                            "    def orphan(self):\n        return 0\n",
        "examples/demo.py": "from repro.mod import Table\nTable().used()\n",
    })
    assert _dead(root) == {"Table.orphan": ["src/repro/mod.py"]}


def test_census_flags_a_method_that_only_calls_itself(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Walker:\n"
                            "    def walk(self, n):\n"
                            "        return self.walk(n - 1) if n else 0\n",
        "examples/demo.py": "from repro.mod import Walker\nWalker()\n",
    })
    assert _dead(root) == {"Walker.walk": ["src/repro/mod.py"]}


def test_census_skips_dunders(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Table:\n"
                            "    def __len__(self):\n        return 0\n",
        "examples/demo.py": "from repro.mod import Table\nTable()\n",
    })
    assert _dead(root) == {}


def test_census_does_not_count_a_callers_own_namesake(tmp_path):
    """A benchmark that defines and calls its own ``timed`` calls
    nothing of the library's; reading the library's through a module
    still counts."""
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def timed():\n    pass\n\n\n"
                            "def probe():\n    pass\n",
        "benchmarks/layers.py": "import repro.mod\n\n\n"
                                "def timed():\n    pass\n\n\n"
                                "def probe():\n    pass\n\n\n"
                                "timed()\nrepro.mod.probe()\n",
    })
    assert _dead(root) == {"timed": ["src/repro/mod.py"]}


def test_census_counts_a_method_read_from_benchmarks(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Table:\n    @property\n"
                            "    def size(self):\n        return 1\n",
        "benchmarks/bench.py": "from repro.mod import Table\nTable().size\n",
    })
    assert _dead(root) == {}


def test_census_checks_a_pinned_method_is_current(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Registry:\n"
                            "    def reset(self):\n        pass\n",
        "examples/demo.py": "from repro.mod import Registry\nRegistry()\n",
        "tests/test_mod.py": "from repro.mod import Registry\n"
                             "Registry().reset()\n",
    })
    pins = {"Registry.reset": "tests/test_mod.py"}
    assert _dead(root, pins) == {} and _stale_pins(root, pins) == []
    assert _stale_pins(root, {"Registry.clear": "tests/test_mod.py"}) == [
        "Registry.clear",
    ]
    (root / "examples" / "demo.py").write_text(
        "from repro.mod import Registry\nRegistry().reset()\n"
    )
    assert _stale_pins(root, pins) == ["Registry.reset"]


def test_census_counts_a_method_its_sibling_calls(tmp_path):
    """Only a method's own body is excluded: a call from another method
    of the same class is a caller."""
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Table:\n"
                            "    def run(self):\n"
                            "        return self._helper()\n\n"
                            "    def _helper(self):\n        return 0\n",
        "examples/demo.py": "from repro.mod import Table\nTable().run()\n",
    })
    assert _dead(root) == {}


def test_census_flags_a_method_only_tests_call(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Table:\n"
                            "    def rows(self):\n        return 0\n",
        "examples/demo.py": "from repro.mod import Table\nTable()\n",
        "tests/test_mod.py": "from repro.mod import Table\nTable().rows()\n",
    })
    assert _dead(root) == {"Table.rows": ["src/repro/mod.py"]}


def test_census_counts_async_methods(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Server:\n"
                            "    async def serve(self):\n        pass\n\n"
                            "    async def drain(self):\n        pass\n",
        "examples/demo.py": "from repro.mod import Server\n"
                            "Server().serve()\n",
    })
    assert _dead(root) == {"Server.drain": ["src/repro/mod.py"]}


def test_census_flags_a_pin_its_test_never_reads(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "class Registry:\n"
                            "    def reset(self):\n        pass\n",
        "examples/demo.py": "from repro.mod import Registry\nRegistry()\n",
        "tests/test_mod.py": "from repro.mod import Registry\nRegistry()\n",
    })
    pins = {"Registry.reset": "tests/test_mod.py"}
    assert _dead(root, pins) == {}
    assert _stale_pins(root, pins) == ["Registry.reset"]


def test_import_check_on_a_synthetic_tree(tmp_path):
    """A name loaded or named in a string annotation is used; a
    re-export and ``__future__`` are exempt."""
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "from repro.mod import helper\n",
        "src/repro/mod.py": "from __future__ import annotations\n\n"
                            "import os\nimport os.path as osp\n"
                            "import numpy as np\n"
                            "from typing import Sequence\n\n\n"
                            "def helper(xs: \"Sequence[int]\") -> None:\n"
                            "    return np.asarray(xs)\n",
    })
    assert _unused_imports(root) == [
        "mod.py:3 import os", "mod.py:4 import os.path as osp",
    ]
