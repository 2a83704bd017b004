"""Execution backends: serial, threaded, and process tile parallelism.

The per-tile stages of both raster engines are independent across tiles;
this package decides where they run — and, via :mod:`repro.exec.partition`,
which points each tile task even has to look at, and at which pixel.  See
:mod:`repro.exec.backend` for the task contract and pool lifecycle,
:mod:`repro.exec.config` for the engine-facing configuration object, and
:mod:`repro.exec.shm` / :mod:`repro.exec.resident` for the zero-copy
shared-memory data plane and the resident spawn pool it feeds
(``EngineConfig(shm=True)`` / ``$REPRO_SHM=1``).
"""

from repro.exec.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    TilePartial,
    default_workers,
    resolve_backend,
)
from repro.exec.config import EngineConfig
from repro.exec.partition import partition_chunk, route_chunk

__all__ = [
    "EngineConfig",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "TilePartial",
    "default_workers",
    "partition_chunk",
    "resolve_backend",
    "route_chunk",
]
