"""Framebuffer objects with additive blending.

The paper repurposes FBO color channels as accumulators: drawing a point
*adds* to the pixel's channels (the OpenGL blend function set to addition)
instead of overwriting them, so after the point pass each pixel holds the
partial aggregate (count, sum of an attribute, ...) of the points it
contains.  :class:`FrameBuffer` reproduces that contract with named channel
arrays and one blend operation, :meth:`FrameBuffer.scatter`.

Channels default to ``float32`` to match the 32-bit GL color channels the
paper uses; reductions over channels are always performed in float64 by the
callers so large aggregates do not lose precision while the per-pixel
storage stays faithful to the hardware.  Every fragment value is rounded
to the channel's dtype before it blends — as a GL channel stores it, and
the one operand type numpy's fast ``ufunc.at`` loop accepts: an operand
of any other dtype (a Python ``1.0``, a float64 column) drops a float32
channel onto a generic loop 20–40x slower per fragment.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import ResolutionError

_BLENDS = {"add": np.add.at, "min": np.minimum.at, "max": np.maximum.at}


class FrameBuffer:
    """A ``height x width`` render target with named accumulator channels."""

    def __init__(
        self,
        width: int,
        height: int,
        channels: Iterable[str] = ("count",),
        dtype: np.dtype | type = np.float32,
    ) -> None:
        if width < 1 or height < 1:
            raise ResolutionError(f"FBO must be at least 1x1, got {width}x{height}")
        self.width = width
        self.height = height
        self.dtype = np.dtype(dtype)
        #: ``None`` stands for a cleared channel nothing has written or
        #: been handed yet: its zeros are allocated on first access, or
        #: never — :meth:`scatter` lets ``np.bincount`` build it.
        self._channels: dict[str, np.ndarray | None] = dict.fromkeys(channels)

    def channel(self, name: str) -> np.ndarray:
        """The raw ``(height, width)`` array backing a channel."""
        arr = self._channels[name]
        if arr is None:
            arr = self._channels[name] = np.zeros(
                (self.height, self.width), dtype=self.dtype
            )
        return arr

    def scatter(
        self,
        pix: np.ndarray,
        values: Mapping[str, np.ndarray | float],
        blend: str = "add",
    ) -> None:
        """Blend fragments given by flat pixel index ``iy * width + ix``,
        fragment after fragment in the order given (``ufunc.at`` on the
        channel's flat view), under ``blend`` — ``"add"``, ``"min"`` or
        ``"max"``.

        **The operand has the channel's dtype.**  Each value — scalar or
        array — is cast to it before the blend, so ``ufunc.at`` always
        runs its fast loop; a float32 channel handed a Python float or a
        float64 column falls to a generic loop 20–40x slower.  The cast
        changes no bits: an addition into a float32 channel rounds its
        operand to float32 anyway, and float64 → float32 rounding is
        monotone, so ``max(a, round32(v)) == round32(max(a, v))`` for a
        float32 ``a`` (likewise ``min``; NaN and ±inf included).  A value
        beyond the channel's range becomes ±inf, and a sum that outgrows
        it saturates to ±inf, silently, as a GL channel would.

        A float64 additive channel nothing has touched is built by
        ``np.bincount`` instead: from zeros it performs exactly those
        float64 adds in exactly that order, so the bits are
        ``np.add.at``'s (``docs/rasterization.md``), its output *becomes*
        the channel (no zeros are allocated beside it), and it is fast
        on every supported numpy.  Min / Max and float32 channels have
        no such kernel.
        """
        if len(pix) == 0:
            return  # (and bincount of nothing is not even a float array)
        at = _BLENDS[blend]
        for name, vals in values.items():
            if (
                blend == "add" and self._channels[name] is None
                and not np.isscalar(vals) and self.dtype == np.float64
            ):
                self._channels[name] = np.bincount(
                    pix, weights=vals, minlength=self.width * self.height
                ).reshape(self.height, self.width)
                continue
            # A NaN value poisons its pixel by design, and +inf meeting
            # -inf on a pixel is NaN, the answer: neither is an error.
            with np.errstate(over="ignore", invalid="ignore"):
                at(self.channel(name).reshape(-1), pix,
                   np.asarray(vals, dtype=self.dtype))

    def __repr__(self) -> str:
        return (
            f"FrameBuffer({self.width}x{self.height}, "
            f"channels={list(self._channels)}, dtype={self.dtype})"
        )
