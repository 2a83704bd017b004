"""Unit tests for the framebuffer object."""

import time
import warnings

import numpy as np
import pytest

from repro.errors import ResolutionError
from repro.graphics.fbo import FrameBuffer


class TestConstruction:
    def test_channels_allocated(self):
        fbo = FrameBuffer(8, 4, channels=("count", "sum"))
        assert fbo.channel("count").shape == (4, 8)
        assert fbo.channel("sum").shape == (4, 8)

    def test_default_dtype_float32(self):
        """32-bit channels match the GL color channels of the paper."""
        fbo = FrameBuffer(4, 4)
        assert fbo.channel("count").dtype == np.float32

    def test_invalid_size(self):
        with pytest.raises(ResolutionError):
            FrameBuffer(0, 4)


class TestBlending:
    def test_scatter_counts_duplicates(self):
        """ufunc.at semantics: repeated fragments at one pixel all land."""
        fbo = FrameBuffer(4, 4)
        fbo.scatter(np.asarray([9, 9, 9, 14]), {"count": 1.0})
        assert fbo.channel("count")[2, 1] == 3
        assert fbo.channel("count")[3, 2] == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_values(self, dtype):
        fbo = FrameBuffer(4, 4, channels=("count", "sum"), dtype=dtype)
        fbo.scatter(np.asarray([0, 0]),
                    {"count": 1.0, "sum": np.asarray([2.5, 3.5])})
        assert fbo.channel("count")[0, 0] == 2
        assert fbo.channel("sum")[0, 0] == 6.0
        assert fbo.channel("sum").dtype == dtype

    def test_scatter_rejects_a_pixel_past_the_end(self):
        fbo = FrameBuffer(4, 4)
        with pytest.raises(IndexError):
            fbo.scatter(np.asarray([16]), {"count": 1.0})

    @pytest.mark.parametrize("blend", ["add", "min", "max"])
    def test_beyond_float32_range_is_inf_silently(self, blend):
        """A value past float32's range blends as ±inf into a float32
        channel, with no warning, as a GL channel would."""
        identity = {"add": 0.0, "min": np.inf, "max": -np.inf}[blend]
        fbo = FrameBuffer(2, 1, channels=("v",))
        fbo.channel("v").fill(identity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fbo.scatter(np.asarray([0, 1]), {"v": np.asarray([1e39, -1e39])},
                        blend)
        assert fbo.channel("v").ravel().tolist() == [np.inf, -np.inf]

    def test_float32_sum_saturates_silently(self):
        """Finite float32 fragments whose sum outgrows the range."""
        big = float(np.finfo(np.float32).max)
        fbo = FrameBuffer(1, 1, channels=("v",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fbo.scatter(np.asarray([0, 0]), {"v": np.asarray([big, big])})
        assert fbo.channel("v")[0, 0] == np.inf


def _best_ms(*calls, repeats: int = 5) -> list[float]:
    """Each call's best time in ms over ``repeats`` rounds, the calls
    alternating within a round so a slow stretch of the host hits all."""
    best = [np.inf] * len(calls)
    for _ in range(repeats):
        for k, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[k] = min(best[k], (time.perf_counter() - start) * 1e3)
    return best


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["add scalar", "add array", "min", "max"])
def test_scatter_runs_the_fast_ufunc_at_loop(case, dtype):
    """``scatter`` casts its operand to the channel's dtype, so it costs
    what a ``ufunc.at`` handed an operand of that dtype costs.  A float32
    channel given a Python float or a float64 column runs numpy's generic
    loop, 20–40x slower; 4x leaves room for the cast and for noise."""
    rng = np.random.default_rng(0)
    side, n = 400, 160_000
    pix = rng.integers(0, side * side, n)
    column = rng.normal(0.0, 1e3, n)
    blend = case.split()[0]
    value = 1.0 if case == "add scalar" else column
    at = {"add": np.add.at, "min": np.minimum.at, "max": np.maximum.at}[blend]
    operand = np.asarray(value, dtype=dtype)
    fbo = FrameBuffer(side, side, channels=("v",), dtype=dtype)
    reference = np.zeros(side * side, dtype=dtype)
    fbo.scatter(pix, {"v": value}, blend)  # build the channel, warm up
    ref_ms, got_ms = _best_ms(
        lambda: at(reference, pix, operand),
        lambda: fbo.scatter(pix, {"v": value}, blend),
    )
    assert got_ms < 4 * ref_ms, (got_ms, ref_ms)
