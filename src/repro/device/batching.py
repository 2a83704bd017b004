"""Out-of-core batch sizing.

When the point columns needed by a query do not fit in device memory, they
are split into contiguous row ranges that do (§5, "Out-of-Core
Processing").  Each batch is transferred exactly once per rendering pass;
the size reserves headroom for the framebuffer and result buffers so a
batch never over-commits the device.
"""

from __future__ import annotations

from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.errors import DeviceError


def _row_bytes(points: PointDataset, columns: tuple[str, ...]) -> int:
    return sum(points.column(name).dtype.itemsize for name in columns)


def rows_per_batch(
    points: PointDataset,
    columns: tuple[str, ...],
    device: GPUDevice | None,
    reserved_bytes: int = 0,
) -> int:
    """How many rows of ``points`` one device batch holds.

    ``columns`` are the columns the query actually touches — locations
    plus filter/aggregate attributes.  Only those are transferred, which is
    why adding constraints increases transfer time in Figure 11.
    ``reserved_bytes`` accounts for FBOs and result arrays already living
    on the device.  Without a device model every row fits one batch (a
    pure in-memory run).
    """
    if device is None:
        return max(1, len(points))
    budget = device.capacity_bytes - reserved_bytes
    if budget <= 0:
        raise DeviceError(
            f"device has no memory left for points "
            f"(reserved {reserved_bytes} of {device.capacity_bytes})"
        )
    return max(1, budget // max(_row_bytes(points, columns), 1))


def tile_parallelism(
    device: GPUDevice | None,
    fbo_bytes: int,
    points: PointDataset | None,
    columns: tuple[str, ...],
    workers: int,
) -> int:
    """How many tile tasks may hold device batches concurrently.

    Batch sizes are identical across backends (they depend only on the
    device capacity, never on the worker count).  What parallel execution
    must bound instead is the number of tiles holding a batch plus its
    framebuffer headroom at once: each concurrent tile's worst-case
    footprint is one full batch of ``points`` plus its FBO reservation,
    and the sum of those per-worker budgets must stay inside the global
    device budget.  Without a device (or without known points, e.g. a
    streamed chunk source whose sizes are unknown up front with a device
    present) the answer is conservative: unlimited without a device, one
    at a time with one.
    """
    if device is None:
        return workers
    if points is None:
        return 1
    rows = min(len(points),
               rows_per_batch(points, columns, device, fbo_bytes))
    footprint = fbo_bytes + rows * _row_bytes(points, columns)
    if footprint <= 0:
        return workers
    return max(1, min(workers, device.capacity_bytes // footprint))
