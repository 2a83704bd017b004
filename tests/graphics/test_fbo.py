"""Unit tests for the framebuffer object."""

import numpy as np
import pytest

from repro.errors import ResolutionError
from repro.graphics.fbo import FrameBuffer


class TestConstruction:
    def test_channels_allocated(self):
        fbo = FrameBuffer(8, 4, channels=("count", "sum"))
        assert fbo.channel("count").shape == (4, 8)
        assert fbo.channel_names == ("count", "sum")

    def test_default_dtype_float32(self):
        """32-bit channels match the GL color channels of the paper."""
        fbo = FrameBuffer(4, 4)
        assert fbo.channel("count").dtype == np.float32

    def test_invalid_size(self):
        with pytest.raises(ResolutionError):
            FrameBuffer(0, 4)


class TestBlending:
    def test_accumulate_counts_duplicates(self):
        """np.add.at semantics: repeated fragments at one pixel all land."""
        fbo = FrameBuffer(4, 4)
        ix = np.asarray([1, 1, 1, 2])
        iy = np.asarray([2, 2, 2, 3])
        fbo.accumulate(ix, iy)
        assert fbo.channel("count")[2, 1] == 3
        assert fbo.channel("count")[3, 2] == 1

    def test_accumulate_values(self):
        fbo = FrameBuffer(4, 4, channels=("count", "sum"))
        ix = np.asarray([0, 0])
        iy = np.asarray([0, 0])
        fbo.accumulate(ix, iy, {"count": 1.0, "sum": np.asarray([2.5, 3.5])})
        assert fbo.channel("count")[0, 0] == 2
        assert fbo.channel("sum")[0, 0] == 6.0

    def test_accumulate_rejects_a_pixel_past_the_row_end(self):
        """An unclipped ``ix == width`` raises; it must never blend into
        the next row's first pixel."""
        fbo = FrameBuffer(4, 4)
        with pytest.raises(IndexError):
            fbo.accumulate(np.asarray([4]), np.asarray([0]))
        assert fbo.total("count") == 0.0

    def test_clear(self):
        fbo = FrameBuffer(4, 4)
        fbo.accumulate(np.asarray([1]), np.asarray([1]))
        fbo.clear()
        assert fbo.total("count") == 0.0

    def test_write_overwrites(self):
        fbo = FrameBuffer(4, 4, channels=("mask",))
        fbo.write(np.asarray([1, 2]), np.asarray([1, 2]), "mask", 7.0)
        fbo.write(np.asarray([1]), np.asarray([1]), "mask", 9.0)
        assert fbo.channel("mask")[1, 1] == 9.0


class TestReads:
    def test_total_reduces_in_float64(self):
        """Summing many float32 ones must not saturate."""
        fbo = FrameBuffer(256, 256)
        fbo.channel("count")[:] = 1.0
        assert fbo.total("count") == 256 * 256

    def test_nbytes(self):
        fbo = FrameBuffer(16, 16, channels=("a", "b"))
        assert fbo.nbytes == 2 * 16 * 16 * 4
