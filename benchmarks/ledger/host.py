"""Host hygiene: environment scrub, host record, leak checks.

Everything here is stdlib-only so :mod:`run` can call
:func:`scrub_environment` before numpy (and its BLAS thread pool) loads.
"""

from __future__ import annotations

import glob
import os
import platform
import resource
import sys

#: Thread pools pinned to one thread: the numbers measure the library's
#: own parallelism decisions, not the BLAS runtime's.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def scrub_environment(environ=os.environ) -> list[str]:
    """Drop every ``REPRO_*`` knob and pin BLAS/OMP threads to 1.

    Returns the names that were removed, so the record can show that a
    run started from a dirty shell.
    """
    removed = sorted(k for k in environ if k.startswith("REPRO_"))
    for key in removed:
        del environ[key]
    for key in THREAD_VARS:
        environ[key] = "1"
    return removed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    """Who measured: cores, CPU, interpreter, numpy, load at start."""
    import numpy

    nproc = os.cpu_count() or 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = 0.0
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "loadavg_1m": load1,
        # Another busy core's worth of load on an nproc-core host means
        # the timings below shared their cores.
        "noisy": load1 > nproc - 1,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def shm_segments(pid: int | None = None) -> list[str]:
    """``/dev/shm`` entries the library created (for ``pid``, or any).

    Segments are named ``repro-shm-<pid>-<seq>-<nonce>``
    (``repro.exec.shm.SHM_PREFIX``; spelled out here so the parent
    process can scan without importing the library).
    """
    owner = f"{pid}-" if pid is not None else ""
    return sorted(glob.glob(f"/dev/shm/repro-shm-{owner}*"))


def live_children() -> list[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = str(os.getpid())
    children = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited while we were listing
        if fields[1] == me:
            children.append(int(stat.split("/")[2]))
    return children
