"""World-to-screen transforms, canvases, and multi-canvas tiling.

A :class:`Canvas` is the conceptual full-resolution pixel grid the raster
join renders into: the polygon set's bounding box mapped onto ``W x H``
pixels.  When the resolution implied by the ε-bound exceeds the device's
maximum framebuffer size, the canvas splits into :class:`Viewport` tiles
that share the *same global pixel grid* — exactly the multi-rendering
scheme of the paper's Figure 5 — so tiled execution is bit-identical to
single-canvas execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ResolutionError
from repro.geometry.bbox import BBox

#: Hard ceiling corresponding to the 32K x 32K FBOs the paper cites for
#: current-generation hardware.
HARDWARE_MAX_RESOLUTION = 32768


def _require_positive_extent(extent: BBox) -> None:
    """Reject extents a pixel grid cannot span.

    A zero-width or zero-height extent (collinear points, a single
    vertex) has no well-defined pixel size — mapping it onto a grid would
    divide by zero — and non-finite bounds poison every transform.
    """
    if (
        not math.isfinite(extent.width)
        or not math.isfinite(extent.height)
        or extent.width <= 0
        or extent.height <= 0
    ):
        raise ResolutionError(
            f"canvas extent must have positive finite width and height, "
            f"got {extent.as_tuple()}"
        )


def resolution_for_epsilon(extent: BBox, epsilon: float) -> tuple[int, int]:
    """Pixel grid size that guarantees an ε-bounded approximation.

    The paper (§4.2) requires a pixel whose *diagonal* is at most ε, i.e. a
    side of ε′ = ε/√2, so the pixelated polygon ε-approximates the original
    in Hausdorff distance.  Rounding the pixel count up only shrinks pixels,
    which preserves the guarantee.
    """
    if epsilon <= 0:
        raise ResolutionError(f"epsilon must be positive, got {epsilon}")
    side = epsilon / math.sqrt(2.0)
    width = max(1, int(math.ceil(extent.width / side)))
    height = max(1, int(math.ceil(extent.height / side)))
    return width, height


@dataclass(frozen=True)
class Viewport:
    """One rendering target: a rectangular window of the global pixel grid.

    ``x_offset``/``y_offset`` locate the tile inside the global grid so that
    fragments can be reported in global pixel coordinates.  A single-canvas
    render is simply a viewport with zero offsets covering the whole grid.
    """

    bbox: BBox          # world-space window
    width: int          # pixels
    height: int         # pixels
    x_offset: int = 0   # global pixel column of this tile's left edge
    y_offset: int = 0   # global pixel row of this tile's bottom edge

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ResolutionError(
                f"viewport must be at least 1x1, got {self.width}x{self.height}"
            )
        if self.bbox.width <= 0 or self.bbox.height <= 0:
            raise ResolutionError("viewport world window must have positive area")

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    @property
    def x_scale(self) -> float:
        """World units per... inverse: pixels per world unit along x."""
        return self.width / self.bbox.width

    @property
    def y_scale(self) -> float:
        return self.height / self.bbox.height

    @property
    def pixel_width(self) -> float:
        """World-space width of one pixel."""
        return self.bbox.width / self.width

    @property
    def pixel_height(self) -> float:
        return self.bbox.height / self.height

    @property
    def pixel_diagonal(self) -> float:
        """World-space pixel diagonal — the ε the grid actually achieves."""
        return math.hypot(self.pixel_width, self.pixel_height)

    def to_screen(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates to continuous screen coordinates.

        Screen space runs from (0, 0) at the window's min corner to
        (width, height) at its max corner; both axes increase with world
        coordinates, so winding order is preserved.
        """
        sx = (np.asarray(xs, dtype=np.float64) - self.bbox.xmin) * self.x_scale
        sy = (np.asarray(ys, dtype=np.float64) - self.bbox.ymin) * self.y_scale
        return sx, sy

    def pixel_of(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map points to (column, row, inside) pixel indices.

        Points outside the half-open window are reported with
        ``inside=False`` and must be discarded by the caller — this is the
        pipeline's clipping stage.  Membership is decided on the world
        coordinates against the window, so NaN and ±inf are outside by
        rule (their integer pixel means nothing) and the tiles of one
        canvas, which share their seam coordinates exactly, partition
        its points: one a rounding error below a seam, whose screen
        coordinate rounds up to the tile's width, lands on the last
        pixel before it instead of on no tile at all.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        sx, sy = self.to_screen(xs, ys)
        box = self.bbox
        inside = (
            (xs >= box.xmin) & (xs < box.xmax)
            & (ys >= box.ymin) & (ys < box.ymax)
        )
        with np.errstate(invalid="ignore"):
            ix = np.minimum(np.floor(sx).astype(np.int64), self.width - 1)
            iy = np.minimum(np.floor(sy).astype(np.int64), self.height - 1)
        return ix, iy, inside

    def pixel_bbox(self, ix: int, iy: int) -> BBox:
        """World-space rectangle of local pixel (ix, iy)."""
        return BBox(
            self.bbox.xmin + ix * self.pixel_width,
            self.bbox.ymin + iy * self.pixel_height,
            self.bbox.xmin + (ix + 1) * self.pixel_width,
            self.bbox.ymin + (iy + 1) * self.pixel_height,
        )

    @property
    def num_pixels(self) -> int:
        return self.width * self.height


class Canvas:
    """The full-resolution render target for one raster-join execution.

    Splits itself into device-sized viewports when needed.  All tiles are
    cut along global pixel boundaries, so rendering tile-by-tile visits the
    exact same pixel grid as a single huge framebuffer would.
    """

    def __init__(self, extent: BBox, width: int, height: int) -> None:
        _require_positive_extent(extent)
        if width < 1 or height < 1:
            raise ResolutionError(f"canvas must be at least 1x1, got {width}x{height}")
        if width > HARDWARE_MAX_RESOLUTION * 64 or height > HARDWARE_MAX_RESOLUTION * 64:
            raise ResolutionError(
                f"canvas {width}x{height} is beyond any supported tiling"
            )
        self.extent = extent
        self.width = width
        self.height = height

    @classmethod
    def for_epsilon(cls, extent: BBox, epsilon: float) -> "Canvas":
        """Canvas sized so the pixel diagonal is at most ε (paper §4.2)."""
        width, height = resolution_for_epsilon(extent, epsilon)
        return cls(extent, width, height)

    @classmethod
    def for_resolution(cls, extent: BBox, resolution: int) -> "Canvas":
        """Canvas whose longer side has ``resolution`` pixels.

        Pixels are kept square-ish by scaling the shorter side with the
        aspect ratio, mirroring how the paper reports "4k x 4k" canvases
        over non-square extents.
        """
        if resolution < 1:
            raise ResolutionError(f"resolution must be >= 1, got {resolution}")
        _require_positive_extent(extent)
        if extent.width >= extent.height:
            width = resolution
            height = max(1, int(round(resolution * extent.height / extent.width)))
        else:
            height = resolution
            width = max(1, int(round(resolution * extent.width / extent.height)))
        return cls(extent, width, height)

    @property
    def pixel_width(self) -> float:
        return self.extent.width / self.width

    @property
    def pixel_height(self) -> float:
        return self.extent.height / self.height

    @property
    def pixel_diagonal(self) -> float:
        return math.hypot(self.pixel_width, self.pixel_height)

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def full_viewport(self) -> Viewport:
        return Viewport(self.extent, self.width, self.height)

    def tiles(self, max_resolution: int) -> Iterator[Viewport]:
        """Yield device-sized viewports covering the canvas.

        Tiles are cut on global pixel boundaries: tile (tx, ty) covers
        pixel columns ``[tx * max_resolution, ...)`` of the global grid and
        its world window is derived from those pixel indices, which keeps
        every tile's pixel lattice aligned with the canvas lattice.
        """
        if max_resolution < 1:
            raise ResolutionError(f"max_resolution must be >= 1, got {max_resolution}")
        nx = math.ceil(self.width / max_resolution)
        ny = math.ceil(self.height / max_resolution)
        pw, ph = self.pixel_width, self.pixel_height
        for ty in range(ny):
            y0 = ty * max_resolution
            y1 = min(self.height, y0 + max_resolution)
            for tx in range(nx):
                x0 = tx * max_resolution
                x1 = min(self.width, x0 + max_resolution)
                window = BBox(
                    self.extent.xmin + x0 * pw,
                    self.extent.ymin + y0 * ph,
                    self.extent.xmin + x1 * pw,
                    self.extent.ymin + y1 * ph,
                )
                yield Viewport(window, x1 - x0, y1 - y0, x_offset=x0, y_offset=y0)

    def __repr__(self) -> str:
        return (
            f"Canvas({self.width}x{self.height} over {self.extent.as_tuple()}, "
            f"pixel diag={self.pixel_diagonal:.4g})"
        )
