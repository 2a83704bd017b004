"""Zero-copy shared-memory data plane for multi-process execution.

The fork-per-dispatch :class:`~repro.exec.backend.ProcessBackend` shares
parent memory copy-on-write, but everything a worker *produces* — and,
for resident (spawned) workers, everything it *consumes* — must cross a
pickle boundary.  This module removes that boundary for the bulk data:

* :class:`ShmArray` — a tiny picklable descriptor (segment name, dtype,
  shape, byte offset) that rehydrates into a zero-copy NumPy view over a
  named POSIX shared-memory segment in any process on the host;
* :class:`ShmRegistry` — the parent-side owner of every segment this
  process creates: refcounted leases, ``weakref.finalize`` hooks on the
  objects that hold them, and an ``atexit`` sweep, so no ``/dev/shm``
  entry outlives the interpreter (segment names all carry
  :data:`SHM_PREFIX`, which the CI leak check globs for);
* :class:`SegmentCache` — the worker-side attach cache: segments map
  once per worker and are reused across queries (keyed by name, which is
  unique per export, so a cached mapping can never be stale — only
  unused, which the byte-bounded LRU reclaims);
* :class:`ShmChunk` — point rows whose columns live in shared
  segments.  It quacks like the routed batch a tile task consumes
  (``column`` / ``pix`` / ``inside`` / ``__len__``), one zero-transfer
  batch, and it pickles as descriptors only — shipping a tile's batch
  to a resident worker costs a few hundred bytes however many points
  it holds.

Ownership protocol: the process that *creates* a segment is the only
one that ever unlinks it.  Forked children inherit the registry object
but every mutating entry point is PID-guarded into a no-op, so a child
exiting (or a finalizer firing in one) can never tear down segments the
parent still serves.  Spawned workers share the owner's
``multiprocessing.resource_tracker`` process, so their attaches neither
add tracker state (registering an already-registered name is a set-add
no-op) nor remove it — the owner's registration survives until its own
unlink, and a worker's exit can never unlink a segment it merely mapped.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.obs import metrics

#: Environment flag for the shared-memory data plane; read at one
#: site, ``ProcessBackend(resident=None)`` — which is where
#: ``EngineConfig(shm=None)`` lands.  Defaults to off: the shm tier is
#: a host-local performance feature, and results are bit-identical
#: with it on or off.
SHM_ENV_VAR = "REPRO_SHM"

#: Every segment this module creates is named
#: ``{SHM_PREFIX}-{pid}-{seq}-{nonce}``; the post-suite leak check
#: asserts nothing matching ``/dev/shm/{SHM_PREFIX}-*`` survives.
SHM_PREFIX = "repro-shm"

#: Column starts inside a packed segment are aligned for any dtype.
_ALIGN = 64


@dataclass(frozen=True)
class ShmArray:
    """A picklable address of one array inside a shared segment."""

    segment: str
    dtype: str
    shape: tuple
    offset: int = 0

    def __getitem__(self, rows: slice) -> "ShmArray":
        """A contiguous row range of a 1-D array, as its own descriptor
        (no lease of its own: the segment's owner outlives its users)."""
        start, stop, _ = rows.indices(self.shape[0])
        return ShmArray(
            self.segment, self.dtype, (max(stop - start, 0),),
            self.offset + start * np.dtype(self.dtype).itemsize,
        )


class ShmRegistry:
    """Refcounted owner of the shared segments this process created."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: name -> [SharedMemory, refcount, nbytes]
        self._segments: dict[str, list] = {}
        self._seq = 0

    # -- accounting ----------------------------------------------------
    def _owned(self) -> bool:
        # A forked child inherits this object; its mutations must not
        # touch the parent's segments (and its exit must not unlink
        # them), so every entry point no-ops off-PID.
        return os.getpid() == self._pid

    def _publish_gauges(self) -> None:
        metrics.gauge_set("shm_segments", len(self._segments))
        metrics.gauge_set(
            "shm_bytes", sum(entry[2] for entry in self._segments.values())
        )

    # -- lifecycle -----------------------------------------------------
    def create(self, nbytes: int) -> tuple[str, memoryview]:
        """A fresh owned segment with refcount 1; returns (name, buffer)."""
        if not self._owned():  # pragma: no cover - fork-child guard
            raise RuntimeError("shm segments are created by the owner only")
        with self._lock:
            self._seq += 1
            name = (
                f"{SHM_PREFIX}-{self._pid}-{self._seq}-"
                f"{secrets.token_hex(4)}"
            )
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, int(nbytes))
            )
            self._segments[name] = [seg, 1, seg.size]
            metrics.counter("shm_segments_created")
            self._publish_gauges()
        return name, seg.buf

    def retain(self, name: str) -> None:
        if not self._owned():  # pragma: no cover - fork-child guard
            return
        with self._lock:
            self._segments[name][1] += 1

    def release(self, name: str) -> None:
        """Drop one lease; the last one unmaps and unlinks the segment."""
        if not self._owned():  # pragma: no cover - fork-child guard
            return
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._segments[name]
            self._publish_gauges()
        seg = entry[0]
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def buffer(self, name: str) -> memoryview | None:
        """The owner-side mapping of a live segment, or ``None``."""
        with self._lock:
            entry = self._segments.get(name)
            return None if entry is None else entry[0].buf

    def live_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def close_all(self) -> None:
        """Unlink everything still owned (interpreter-exit sweep)."""
        if not self._owned():  # pragma: no cover - fork-child guard
            return
        with self._lock:
            segments, self._segments = self._segments, {}
        for entry in segments.values():
            try:
                entry[0].close()
                entry[0].unlink()
            except Exception:  # pragma: no cover - exit path
                pass

    # -- exports -------------------------------------------------------
    def export_array(self, array: np.ndarray) -> ShmArray:
        """Copy one array into its own segment (refcount 1)."""
        array = np.ascontiguousarray(array)
        name, buf = self.create(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=buf)
        np.copyto(view, array)
        return ShmArray(name, array.dtype.str, tuple(array.shape), 0)

    def export_bytes(self, blob: bytes) -> ShmArray:
        """Copy a byte string into its own segment (refcount 1)."""
        name, buf = self.create(len(blob))
        buf[: len(blob)] = blob
        return ShmArray(name, "|u1", (len(blob),), 0)

    def export_columns(self, columns: dict[str, np.ndarray]) -> dict[str, ShmArray]:
        """Pack several columns into ONE segment, aligned per column.

        One segment per export keeps the ``/dev/shm`` entry count (and
        the per-worker attach count) proportional to chunks, not
        chunks x columns.
        """
        arrays = {
            name: np.ascontiguousarray(arr) for name, arr in columns.items()
        }
        offsets: dict[str, int] = {}
        cursor = 0
        for name, arr in arrays.items():
            cursor = -(-cursor // _ALIGN) * _ALIGN
            offsets[name] = cursor
            cursor += arr.nbytes
        segment, buf = self.create(cursor)
        refs: dict[str, ShmArray] = {}
        for name, arr in arrays.items():
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=buf, offset=offsets[name]
            )
            np.copyto(view, arr)
            refs[name] = ShmArray(
                segment, arr.dtype.str, tuple(arr.shape), offsets[name]
            )
        return refs


#: The process-wide segment owner.  Forked children inherit it inert
#: (PID guards); spawned workers start their own empty one and attach
#: through SEGMENT_CACHE instead.
REGISTRY = ShmRegistry()


@atexit.register
def _close_registry_at_exit() -> None:  # pragma: no cover - exit path
    REGISTRY.close_all()


class SegmentCache:
    """Worker-side attach cache: map once, reuse across queries.

    Names are unique per export, so a cached mapping is never *stale*;
    a mapping whose segment the owner has since unlinked is merely dead
    weight until the byte-bounded LRU drops it.  Attaching re-registers
    the name with the resource tracker, which is deliberately left
    alone: spawned workers share the owner's tracker process, so the
    registration is an idempotent set-add — whereas unregistering here
    would erase the owner's sole entry and make its eventual unlink a
    double-unregister (tracker KeyError spam at every teardown).
    """

    def __init__(self, byte_cap: int = 1 << 30) -> None:
        self.byte_cap = byte_cap
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._order: list[str] = []

    def buffer(self, name: str) -> memoryview:
        with self._lock:
            seg = self._segments.get(name)
            if seg is not None:
                self._order.remove(name)
                self._order.append(name)
                metrics.counter("shm_segment_attach", event="reused")
                return seg.buf
            seg = shared_memory.SharedMemory(name=name)
            self._segments[name] = seg
            self._order.append(name)
            metrics.counter("shm_segment_attach", event="mapped")
            while (
                len(self._order) > 1
                and sum(s.size for s in self._segments.values()) > self.byte_cap
            ):
                oldest = self._order.pop(0)
                self._segments.pop(oldest).close()
            return seg.buf


#: This process's attach cache (used when resolving a descriptor whose
#: segment some *other* process owns — i.e. inside resident workers).
SEGMENT_CACHE = SegmentCache()


def view(ref: ShmArray, writable: bool = False) -> np.ndarray:
    """Rehydrate a descriptor into a zero-copy NumPy view.

    The owner resolves through its registry mapping; any other process
    attaches (once) through the segment cache.  Read views are marked
    non-writable so an engine bug cannot silently corrupt a segment a
    sibling query is reading.
    """
    buf = REGISTRY.buffer(ref.segment)
    if buf is None:
        buf = SEGMENT_CACHE.buffer(ref.segment)
    arr = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=buf, offset=ref.offset
    )
    if not writable:
        arr.flags.writeable = False
    return arr


class ShmChunk:
    """A point chunk whose columns live in shared segments.

    Duck-types the resident point-set protocol, and — with ``routed``,
    the descriptors of a routed batch's ``(pix, inside)`` — the
    :class:`~repro.exec.partition.RoutedChunk` a tile task consumes: one
    zero-transfer batch, which preserves bit-identity because the tile
    loop only emits batches cut on the device batch plan anyway (see
    :mod:`repro.exec.partition`, property 3).  Pickles as descriptors +
    length only; rehydrated copies (workers) and descriptor slices never
    own leases, so their GC can't unlink anything.
    """

    __slots__ = ("refs", "length", "routed", "_views", "_finalizer",
                 "__weakref__")

    #: Shared segments are mapped, never uploaded.
    resident = True

    def __init__(self, refs: dict[str, ShmArray], length: int,
                 routed: tuple | None = None) -> None:
        self.refs = refs
        self.length = length
        self.routed = routed
        self._views: dict[str, np.ndarray] = {}
        self._finalizer = None

    def __len__(self) -> int:
        return self.length

    @property
    def segments(self) -> tuple[str, ...]:
        """Distinct segment names backing this chunk (usually one)."""
        return tuple(dict.fromkeys(ref.segment for ref in self.refs.values()))

    def column(self, name: str) -> np.ndarray:
        arr = self._views.get(name)
        if arr is None:
            arr = self._views[name] = view(self.refs[name])
        return arr

    @property
    def pix(self) -> np.ndarray:
        return view(self.routed[0])

    @property
    def inside(self) -> np.ndarray | None:
        ref = self.routed[1]
        return None if ref is None else view(ref)

    def release(self) -> None:
        """Drop this chunk's leases now (idempotent; owner-side only)."""
        if self._finalizer is not None:
            self._finalizer()

    # Descriptors only — views and finalizers are per-process state.
    def __getstate__(self) -> tuple:
        return (self.refs, self.length, self.routed)

    def __setstate__(self, state: tuple) -> None:
        self.refs, self.length, self.routed = state
        self._views = {}
        self._finalizer = None


def export_arrays(arrays: dict[str, np.ndarray]) -> ShmChunk:
    """Copy equally long arrays into one shared segment (owner-side).

    The returned chunk holds the segment's registry lease, released by
    an explicit :meth:`ShmChunk.release` or — because eviction from the
    session's routing cache just drops the reference — by a
    ``weakref.finalize`` hook when the chunk is garbage collected.
    """
    refs = REGISTRY.export_columns(arrays)
    out = ShmChunk(refs, len(next(iter(arrays.values()))))
    out._finalizer = weakref.finalize(
        out, release_leases, set(out.segments)
    )
    return out


def release_leases(leases: set[str]) -> None:
    """Give back every lease in ``leases``, emptying it in place
    (releasing an already-swept segment is a no-op)."""
    while leases:
        REGISTRY.release(leases.pop())
