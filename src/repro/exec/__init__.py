"""Execution backends: serial, threaded, and process tile parallelism.

The per-tile stages of both raster engines are independent across tiles;
this package decides where they run — and, via :mod:`repro.exec.partition`,
which points each tile task even has to look at, and at which pixel.  See
:mod:`repro.exec.backend` for the task contract and pool lifecycle, and
:mod:`repro.exec.config` for the engine-facing configuration object.
Each backend has one dispatch path: inline, a thread pool, or a fork per
dispatch.
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
