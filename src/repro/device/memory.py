"""Device memory model: buffers, uploads, and residency.

:class:`GPUDevice` plays the role of the GPU in this reproduction.  It
enforces a memory capacity (default 3 GB, the paper's configuration) and
implements ``upload`` as an actual ``np.copyto`` into preallocated
device-side arrays, timed with a monotonic clock.  The copy is real work on
real memory, so transfer time scales with bytes moved just like a PCIe
transfer does — which is all the out-of-core experiments need from it.
Importing it pins glibc's allocator (:func:`_pin_glibc_allocator`).
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
import weakref
from typing import Mapping

import numpy as np

from repro.errors import DeviceError, OutOfDeviceMemoryError
from repro.obs import metrics


def _pin_glibc_allocator() -> None:
    """Fix glibc's mmap threshold at 32 MiB and trim threshold at 128 MiB.

    Their dynamic rule made a warm statement re-fault its framebuffer or
    not by what the process had freed before (docs/rasterization.md,
    "Framebuffer memory").  Process-wide; nothing happens off glibc.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


_pin_glibc_allocator()

#: Live devices whose locks must be re-armed in forked children: a fork
#: taken while another thread holds a device lock would otherwise hand
#: every child a permanently-held lock (the process execution backend
#: forks mid-query by design).
_LIVE_DEVICES: "weakref.WeakSet[GPUDevice]" = weakref.WeakSet()


def _rearm_device_locks_after_fork() -> None:  # pragma: no cover - fork path
    global _TOTALS_LOCK
    _TOTALS_LOCK = threading.Lock()
    for device in _LIVE_DEVICES:
        device._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_device_locks_after_fork)

# Cross-device allocation totals.  The per-device peak gauge assumes one
# query at a time per device; when the serving layer runs many queries
# concurrently their batch buffers coexist, so capacity pressure is a
# property of the *sum* of live allocations.  The module-level aggregate
# tracks that sum and publishes it under ``device="all"``.
_TOTALS_LOCK = threading.Lock()
_total_allocated = 0
_total_peak = 0


def _account(delta: int) -> None:
    global _total_allocated, _total_peak
    with _TOTALS_LOCK:
        _total_allocated = max(0, _total_allocated + delta)
        if _total_allocated > _total_peak:
            _total_peak = _total_allocated
            metrics.gauge_max(
                "device_peak_bytes", _total_peak, device="all",
            )


def aggregate_allocated_bytes() -> int:
    """Bytes currently allocated across every live device."""
    with _TOTALS_LOCK:
        return _total_allocated


def aggregate_peak_bytes() -> int:
    """High-water mark of concurrent allocation across every device.

    Unlike the per-device ``peak_allocated_bytes`` attribute this counts
    overlapping queries: two queries each holding 1 GiB at the same time
    report a 2 GiB aggregate peak even if each device-local peak is 1 GiB.
    """
    with _TOTALS_LOCK:
        return _total_peak

#: The paper limits GPU memory usage to 3 GB (§7.1).
DEFAULT_CAPACITY_BYTES = 3 * 1024**3

#: The paper limits FBO resolution to 8192 x 8192 (§7.1).
DEFAULT_MAX_RESOLUTION = 8192


class DeviceBuffer:
    """A named device-resident array (a VBO/SSBO stand-in)."""

    def __init__(self, device: "GPUDevice", name: str, array: np.ndarray) -> None:
        self._device = device
        self.name = name
        self.array = array

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def free(self) -> None:
        self._device._release(self.nbytes)
        self.array = np.zeros(0, dtype=self.array.dtype)


class ResidentPointSet:
    """Point columns pinned in device memory.

    Used for the in-memory experiments: "the GPU memory holds the entire
    data set and data need not be transferred" (§7.3).  Engines receiving a
    resident set skip the per-query upload and report zero transfer time.
    """

    def __init__(self, device: "GPUDevice", columns: dict[str, DeviceBuffer]) -> None:
        self.device = device
        self._columns = columns
        lengths = {len(b.array) for b in columns.values()}
        if len(lengths) > 1:
            raise DeviceError("resident columns have inconsistent lengths")
        self.length = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name].array
        except KeyError:
            raise DeviceError(f"column {name!r} is not resident") from None

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def free(self) -> None:
        for buf in self._columns.values():
            buf.free()
        self._columns = {}
        self.length = 0


class GPUDevice:
    """A capacity-limited device with measured host-to-device transfers."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        max_resolution: int = DEFAULT_MAX_RESOLUTION,
        name: str = "software-gpu",
    ) -> None:
        if capacity_bytes < 1:
            raise DeviceError(f"capacity must be positive, got {capacity_bytes}")
        if max_resolution < 1:
            raise DeviceError(f"max resolution must be positive, got {max_resolution}")
        self.capacity_bytes = capacity_bytes
        self.max_resolution = max_resolution
        self.name = name
        self.allocated_bytes = 0
        self.peak_allocated_bytes = 0
        self.total_bytes_transferred = 0
        # Concurrent tile workers allocate and free batch buffers from
        # several threads at once; the capacity check and the counters
        # must observe a consistent allocation total.
        self._lock = threading.Lock()
        _LIVE_DEVICES.add(self)

    # ------------------------------------------------------------------
    # Allocation accounting
    # ------------------------------------------------------------------
    def _reserve(self, nbytes: int) -> None:
        with self._lock:
            if self.allocated_bytes + nbytes > self.capacity_bytes:
                raise OutOfDeviceMemoryError(
                    f"allocation of {nbytes} bytes exceeds capacity "
                    f"({self.allocated_bytes}/{self.capacity_bytes} in use)"
                )
            self.allocated_bytes += nbytes
            if self.allocated_bytes > self.peak_allocated_bytes:
                self.peak_allocated_bytes = self.allocated_bytes
                metrics.gauge_max(
                    "device_peak_bytes", self.allocated_bytes,
                    device=self.name,
                )
        _account(nbytes)

    def _release(self, nbytes: int) -> None:
        with self._lock:
            released = min(nbytes, self.allocated_bytes)
            self.allocated_bytes -= released
        _account(-released)

    # ------------------------------------------------------------------
    # Pickling (ProcessBackend forks carry copy-on-write device clones;
    # locks do not survive pickling, so they are recreated on load)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        _LIVE_DEVICES.add(self)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def upload(self, name: str, host_array: np.ndarray) -> tuple[DeviceBuffer, float]:
        """Copy a host array into a fresh device buffer.

        Returns the buffer and the measured transfer seconds.  The copy is
        a real allocation plus ``np.copyto`` — the persistent-mapped-buffer
        write of the paper's implementation.
        """
        host_array = np.ascontiguousarray(host_array)
        self._reserve(host_array.nbytes)
        start = time.perf_counter()
        dev = np.empty_like(host_array)
        np.copyto(dev, host_array)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.total_bytes_transferred += host_array.nbytes
        return DeviceBuffer(self, name, dev), elapsed

    def upload_columns(
        self, columns: Mapping[str, np.ndarray]
    ) -> tuple[dict[str, DeviceBuffer], float]:
        """Upload several columns, returning buffers and total seconds."""
        out: dict[str, DeviceBuffer] = {}
        total = 0.0
        for name, arr in columns.items():
            buf, secs = self.upload(name, arr)
            out[name] = buf
            total += secs
        return out, total

    def make_resident(self, columns: Mapping[str, np.ndarray]) -> ResidentPointSet:
        """Pin whole columns on the device (in-memory experiment setup).

        Raises :class:`OutOfDeviceMemoryError` when the data genuinely does
        not fit, in which case the caller must fall back to batching.
        """
        buffers, _ = self.upload_columns(columns)
        return ResidentPointSet(self, buffers)

    def __repr__(self) -> str:
        return (
            f"GPUDevice({self.name!r}, capacity={self.capacity_bytes >> 20} MiB, "
            f"allocated={self.allocated_bytes >> 20} MiB, "
            f"max FBO {self.max_resolution})"
        )
