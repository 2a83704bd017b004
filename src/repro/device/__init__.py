"""Simulated GPU device: capacity-limited memory and measured transfers.

The paper's out-of-core behaviour (Figures 9, 11, 13) is driven by two
hardware facts: device memory is finite (they cap it at 3 GB), and host-to-
device copies cost real time that can dominate a fast query.  This package
models both — allocations fail past capacity, point batches are physically
copied into device-resident buffers with the copy time recorded — so the
engines exhibit the same batching structure and transfer/processing splits
as the paper's OpenGL implementation.
"""

from repro.device.memory import GPUDevice, DeviceBuffer, ResidentPointSet
from repro.device.batching import rows_per_batch

__all__ = [
    "GPUDevice",
    "DeviceBuffer",
    "ResidentPointSet",
    "rows_per_batch",
]
