"""Unit tests for the simulated GPU device."""

import numpy as np
import pytest

from repro.device.memory import GPUDevice, ResidentPointSet
from repro.errors import DeviceError, OutOfDeviceMemoryError


class TestAllocation:
    def test_capacity_enforced(self):
        dev = GPUDevice(capacity_bytes=1000)
        with pytest.raises(OutOfDeviceMemoryError):
            dev.upload("big", np.zeros(1000, dtype=np.float64))

    def test_free_releases(self):
        dev = GPUDevice(capacity_bytes=1000)
        buf, _ = dev.upload("a", np.zeros(100, dtype=np.float64))
        assert dev.allocated_bytes == 800
        buf.free()
        assert dev.allocated_bytes == 0

    def test_invalid_capacity(self):
        with pytest.raises(DeviceError):
            GPUDevice(capacity_bytes=0)


class TestTransfers:
    def test_upload_copies(self):
        """Device buffers are real copies — mutating the host later must
        not change the device-resident data (PCIe semantics)."""
        dev = GPUDevice(capacity_bytes=10_000)
        host = np.arange(10, dtype=np.float64)
        buf, seconds = dev.upload("col", host)
        host[0] = 999.0
        assert buf.array[0] == 0.0
        assert seconds >= 0.0

    def test_transfer_accounting(self):
        dev = GPUDevice(capacity_bytes=10_000)
        dev.upload("a", np.zeros(100, dtype=np.float64))
        dev.upload("b", np.zeros(50, dtype=np.float32))
        assert dev.total_bytes_transferred == 800 + 200

    def test_upload_columns(self):
        dev = GPUDevice(capacity_bytes=10_000)
        bufs, total = dev.upload_columns(
            {"x": np.zeros(10), "y": np.ones(10)}
        )
        assert set(bufs) == {"x", "y"}
        assert total >= 0.0


class TestResidentPointSet:
    def test_round_trip(self):
        dev = GPUDevice()
        resident = dev.make_resident(
            {"x": np.arange(5.0), "y": np.arange(5.0) * 2}
        )
        assert len(resident) == 5
        assert resident.column("y")[4] == 8.0

    def test_missing_column(self):
        dev = GPUDevice()
        resident = dev.make_resident({"x": np.arange(5.0), "y": np.arange(5.0)})
        with pytest.raises(DeviceError):
            resident.column("fare")

    def test_inconsistent_lengths_rejected(self):
        dev = GPUDevice()
        with pytest.raises(DeviceError):
            ResidentPointSet(
                dev,
                {
                    "x": dev.upload("x", np.arange(5.0))[0],
                    "y": dev.upload("y", np.arange(4.0))[0],
                },
            )

    def test_free_releases_device_memory(self):
        dev = GPUDevice(capacity_bytes=10_000)
        resident = dev.make_resident({"x": np.arange(100.0)})
        assert dev.allocated_bytes == 800
        resident.free()
        assert dev.allocated_bytes == 0
        assert len(resident) == 0
