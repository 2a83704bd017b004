"""Framebuffer objects with additive blending.

The paper repurposes FBO color channels as accumulators: drawing a point
*adds* to the pixel's channels (the OpenGL blend function set to addition)
instead of overwriting them, so after the point pass each pixel holds the
partial aggregate (count, sum of an attribute, ...) of the points it
contains.  :class:`FrameBuffer` reproduces that contract with named channel
arrays and ``accumulate`` as the blend operation.

Channels default to ``float32`` to match the 32-bit GL color channels the
paper uses; reductions over channels are always performed in float64 by the
callers so large aggregates do not lose precision while the per-pixel
storage stays faithful to the hardware.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import ResolutionError
from repro.graphics.viewport import Viewport


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

    @classmethod
    def for_viewport(
        cls,
        viewport: Viewport,
        channels: Iterable[str] = ("count",),
        dtype: np.dtype | type = np.float32,
    ) -> "FrameBuffer":
        return cls(viewport.width, viewport.height, channels=channels, dtype=dtype)

    # ------------------------------------------------------------------
    # Channel access
    # ------------------------------------------------------------------
    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def channel(self, name: str) -> np.ndarray:
        """The raw ``(height, width)`` array backing a channel."""
        arr = self._channels[name]
        if arr is None:
            arr = self._channels[name] = np.zeros(
                (self.height, self.width), dtype=self.dtype
            )
        return arr

    def clear(self) -> None:
        """Reset every channel to zero (glClear with a zero clear color)."""
        for arr in self._channels.values():
            if arr is not None:
                arr.fill(0)

    # ------------------------------------------------------------------
    # Blending
    # ------------------------------------------------------------------
    def accumulate(
        self,
        ix: np.ndarray,
        iy: np.ndarray,
        values: Mapping[str, np.ndarray | float] | None = None,
    ) -> None:
        """Additive blend of fragments into the FBO.

        ``ix``/``iy`` are fragment pixel coordinates (already clipped to the
        viewport).  With ``values=None`` the ``count`` channel is
        incremented by one per fragment; otherwise each named channel is
        incremented by the matching per-fragment value.  Duplicate fragment
        coordinates accumulate (``np.add.at``), which is precisely the
        additive blend-function semantics of the paper's DrawPoints; an
        ``ix`` past the row's end raises (:meth:`scatter` would wrap it).
        """
        for name, vals in ({"count": 1} if values is None else values).items():
            if not np.isscalar(vals):
                vals = np.asarray(vals, dtype=self.dtype)
            np.add.at(self.channel(name), (iy, ix), vals)

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
        for name, vals in values.items():
            if blend != "add":
                at = np.minimum.at if blend == "min" else np.maximum.at
                # A NaN value poisons its pixel by design; comparing it
                # is not an error (the 1-D loop would flag it).
                with np.errstate(invalid="ignore"):
                    at(self.channel(name).reshape(-1), pix, vals)
            elif (
                self._channels[name] is None and not np.isscalar(vals)
                and self.dtype == np.float64
            ):
                self._channels[name] = np.bincount(
                    pix, weights=vals, minlength=self.width * self.height
                ).reshape(self.height, self.width)
            else:
                if not np.isscalar(vals):
                    vals = np.asarray(vals, dtype=self.dtype)
                # +inf meeting -inf on a pixel is NaN, the answer.
                with np.errstate(invalid="ignore"):
                    np.add.at(self.channel(name).reshape(-1), pix, vals)

    def write(self, ix: np.ndarray, iy: np.ndarray, name: str, value: float) -> None:
        """Overwrite (no blending) — used for boundary-mask rendering."""
        self.channel(name)[iy, ix] = value

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def gather(self, ix: np.ndarray, iy: np.ndarray, name: str) -> np.ndarray:
        """Texture fetch: channel values at the given pixels, as float64."""
        return self.channel(name)[iy, ix].astype(np.float64)

    def total(self, name: str) -> float:
        """Sum of a whole channel, reduced in float64."""
        return float(np.sum(self.channel(name), dtype=np.float64))

    @property
    def nbytes(self) -> int:
        """Bytes of the channels, allocated yet or not."""
        return (
            len(self._channels) * self.width * self.height
            * self.dtype.itemsize
        )

    def __repr__(self) -> str:
        return (
            f"FrameBuffer({self.width}x{self.height}, "
            f"channels={list(self._channels)}, dtype={self.dtype})"
        )
