"""Out-of-core batch planning.

When the point columns needed by a query do not fit in device memory, they
are split into contiguous row ranges that do (§5, "Out-of-Core
Processing").  Each batch is transferred exactly once per rendering pass;
the planner also reserves headroom for the framebuffer and result buffers
so a plan never over-commits the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.errors import DeviceError


@dataclass(frozen=True)
class BatchPlan:
    """Row ranges into which a dataset is split for device uploads."""

    num_points: int
    rows_per_batch: int
    columns: tuple[str, ...]
    row_bytes: int

    def ranges(self) -> list[tuple[int, int]]:
        return [
            (start, min(start + self.rows_per_batch, self.num_points))
            for start in range(0, self.num_points, self.rows_per_batch)
        ]


def plan_batches(
    points: PointDataset,
    columns: tuple[str, ...],
    device: GPUDevice | None,
    reserved_bytes: int = 0,
) -> BatchPlan:
    """Split ``points`` into batches whose columns fit on the device.

    ``columns`` are the columns the query actually touches — locations
    plus filter/aggregate attributes.  Only those are transferred, which is
    why adding constraints increases transfer time in Figure 11.
    ``reserved_bytes`` accounts for FBOs and result arrays already living
    on the device.
    """
    row_bytes = sum(points.column(name).dtype.itemsize for name in columns)
    if device is None:
        # No device model: a single logical batch (pure in-memory run).
        return BatchPlan(len(points), max(1, len(points)), columns, row_bytes)
    budget = device.capacity_bytes - reserved_bytes
    if budget <= 0:
        raise DeviceError(
            f"device has no memory left for points "
            f"(reserved {reserved_bytes} of {device.capacity_bytes})"
        )
    rows = max(1, budget // max(row_bytes, 1))
    return BatchPlan(len(points), int(rows), columns, row_bytes)


def tile_parallelism(
    device: GPUDevice | None,
    fbo_bytes: int,
    plan: BatchPlan | None,
    workers: int,
) -> int:
    """How many tile tasks may hold device batches concurrently.

    Batch *plans* are identical across backends (they depend only on the
    device capacity, never on the worker count).  What parallel execution
    must bound instead is the number of tiles holding a batch plus its
    framebuffer headroom at once: each concurrent tile's worst-case
    footprint is one planned batch plus its FBO reservation, and the sum
    of those per-worker budgets must stay inside the global device
    budget.  Without a device (or without a known plan, e.g. a streamed
    chunk source whose sizes are unknown up front with a device present)
    the answer is conservative: unlimited without a device, one at a time
    with one.
    """
    if device is None:
        return workers
    if plan is None:
        return 1
    batch_bytes = min(plan.num_points, plan.rows_per_batch) * plan.row_bytes
    footprint = fbo_bytes + batch_bytes
    if footprint <= 0:
        return workers
    return max(1, min(workers, device.capacity_bytes // footprint))
