"""Compiled kernels: C sources shipped in the package, built once per user.

A kernel's library lives in ``$XDG_CACHE_HOME/repro/`` (``~/.cache/repro/``
by default) under a name that carries a hash of its source, the compiler
flags and the platform, so an edited source or another platform builds
anew and nothing is ever rebuilt in place.  A build goes to a scratch file
the compiler writes, which is then ``os.replace``-d into place.  The
directory is made 0700, and a directory or library owned by another user,
or writable by group or others, is never loaded.

A warm cache spawns no process (a child of a measured process would land
in its ``RUSAGE_CHILDREN`` peak RSS), so the only child is the one compile
per user and source version; ``repro`` imports this module first, so that
compile runs before any statement or set-up.  When no ``cc`` is on the
path, or the build or the load fails, :func:`load` answers None and the
caller runs its Python form of the same kernel, which gives the same bits.

A leaf module: it imports nothing of ``repro`` and no numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig

#: No -ffast-math and no -march=native: a fused multiply-add rounds once
#: where Python rounds twice, and would change bits.  -fwrapv: numpy's
#: int64 arithmetic wraps, C's signed overflow is undefined, and the
#: raster's edge functions can overflow.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv")
_COMPILER = "cc"
_PACKAGE = os.path.dirname(os.path.abspath(__file__))


def library_path(source: str) -> str:
    """Where the library built from package file ``source`` is cached."""
    with open(os.path.join(_PACKAGE, source), "rb") as handle:
        digest = hashlib.sha256(handle.read())
    digest.update(" ".join(FLAGS).encode())
    digest.update(sysconfig.get_platform().encode())
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    name = os.path.splitext(os.path.basename(source))[0]
    return os.path.join(base, "repro", f"{name}-{digest.hexdigest()[:16]}.so")


def _private(path: str) -> bool:
    """Whether ``path`` (not followed if a link) is this user's and
    writable by no one else."""
    info = os.lstat(path)
    return (
        info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        and not stat.S_ISLNK(info.st_mode)
    )


def _build(source: str, library: str) -> None:
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        return
    scratch = f"{library}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", scratch, os.path.join(_PACKAGE, source)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, check=True, timeout=120,
        )
        os.chmod(scratch, 0o700)
        os.replace(scratch, library)
    finally:
        if os.path.lexists(scratch):
            os.remove(scratch)


def load(source: str) -> ctypes.CDLL | None:
    """The library built from package file ``source``, compiled on first
    use; None when it cannot be built or loaded safely."""
    try:
        library = library_path(source)
        directory = os.path.dirname(library)
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _private(directory):
            return None
        if not os.path.lexists(library):
            _build(source, library)
        if not (os.path.lexists(library) and _private(library)):
            return None
        return ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


#: The kernels, loaded (built one after another on a cold cache) at
#: import: the ear clipper (``repro.geometry.triangulate``), the triangle
#: row scan (``repro.graphics.raster_batch``) and the outline supercover
#: (``repro.graphics.raster_line``).
EARCLIP = load(os.path.join("geometry", "earclip.c"))
TRIANGLE_SCAN = load(os.path.join("graphics", "triangle_scan.c"))
SUPERCOVER = load(os.path.join("graphics", "supercover.c"))
