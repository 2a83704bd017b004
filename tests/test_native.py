"""The compiled-kernel loader: built once, reused without a process,
refused when not private, and replaced by the Python kernel — same bits,
no warning — where it cannot be built."""

import ast
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.data import generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.geometry import triangulate

SOURCE = os.path.join("geometry", "earclip.c")
SRC = Path(native.__file__).resolve().parents[1]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this host")


def run_python(code: str, cache: Path, **env) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with its kernel cache at ``cache``."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC),
             "XDG_CACHE_HOME": str(cache), **env},
        capture_output=True, text=True, timeout=300, check=True,
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_the_loader_is_a_leaf():
    """It imports nothing of repro and no numpy, so ``import repro`` can
    run it first and ``repro.geometry`` cannot cycle through it."""
    tree = ast.parse(Path(native.__file__).read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


@needs_cc
def test_built_once_into_a_private_directory(cache):
    library = native.load(SOURCE)
    assert library is not None
    path = Path(native.library_path(SOURCE))
    assert path.parent == cache / "repro"
    assert path.parent.stat().st_mode & 0o777 == 0o700
    assert path.stat().st_mode & 0o077 == 0
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert native.load(SOURCE) is not None


@needs_cc
def test_a_library_someone_else_could_write_is_not_loaded(cache,
                                                          monkeypatch):
    assert native.load(SOURCE) is not None
    path = native.library_path(SOURCE)
    uid = os.getuid()
    with monkeypatch.context() as patch:
        patch.setattr(os, "getuid", lambda: uid + 1)
        assert native.load(SOURCE) is None  # owned by another user
    os.chmod(path, 0o720)
    assert native.load(SOURCE) is None  # group-writable
    os.chmod(path, 0o700)
    os.chmod(os.path.dirname(path), 0o707)
    assert native.load(SOURCE) is None  # in a world-writable directory


def test_a_corrupt_library_is_not_loaded(cache):
    path = Path(native.library_path(SOURCE))
    path.parent.mkdir(mode=0o700, parents=True)
    path.write_bytes(b"\x7fELF not a library")
    path.chmod(0o700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.load(SOURCE) is None
    assert path.read_bytes() == b"\x7fELF not a library"


def test_without_a_compiler_python_answers_the_same_bits(cache, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(native, "_COMPILER", "no-such-compiler")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.load(SOURCE) is None
    assert not (cache / "repro").exists() or not any(
        (cache / "repro").iterdir()
    )
    # A fresh process with no compiler on its path: the Python kernel,
    # silently (-W error), with the bits this process gets.
    out = tmp_path / "triangles.npz"
    done = run_python(
        "import numpy as np\n"
        "from repro.data import generate_voronoi_regions\n"
        "from repro.data.regions import NYC_REGION_EXTENT\n"
        "from repro.geometry import triangulate as t\n"
        "polys = list(generate_voronoi_regions(96, NYC_REGION_EXTENT, seed=5))\n"
        f"np.savez({str(out)!r}, *t.triangulate_set(polys))\n"
        "print(t.KERNEL)\n",
        cache, PATH=str(tmp_path),
    )
    assert done.stdout.split() == ["python"] and done.stderr == ""
    polygons = list(generate_voronoi_regions(96, NYC_REGION_EXTENT, seed=5))
    want = triangulate.triangulate_set(polygons)
    with np.load(out) as got:
        for name, array in zip(("arr_0", "arr_1"), want):
            assert got[name].dtype == array.dtype
            assert got[name].tobytes() == array.tobytes()


def test_a_warm_cache_spawns_no_process(cache):
    """A child of a measured process lands in its ``RUSAGE_CHILDREN``
    peak RSS: after the one compile, ``import repro`` starts none."""
    code = (
        "import resource, repro\n"
        "from repro.geometry import triangulate\n"
        "print(triangulate.KERNEL,"
        " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    run_python(code, cache)  # cold: compiles, if it can
    kernel, children = run_python(code, cache).stdout.split()
    assert children == "0"
    if shutil.which("cc") is not None:
        assert kernel == "native"
