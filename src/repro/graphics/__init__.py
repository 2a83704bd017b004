"""Software rasterization pipeline with GPU-faithful semantics.

This package substitutes for the OpenGL pipeline used by the paper.  It
reproduces the semantics that the raster-join algorithms rely on:

* a viewport transform from world coordinates to a pixel grid
  (:mod:`repro.graphics.viewport`), including the multi-canvas tiling of the
  paper's Figure 5;
* framebuffer objects with additive blending
  (:mod:`repro.graphics.fbo`), the paper's point-count FBO;
* triangle rasterization with pixel-center coverage and a watertight fill
  rule (:mod:`repro.graphics.raster_batch`) and supercover outlines
  (:mod:`~repro.graphics.raster_line`), whole polygon sets per pass — the
  only polygon rasterizers: the engines, the grid index's exact cells and
  the choropleth all draw through them;
* the closed pixel/triangle overlap test
  (:mod:`repro.graphics.conservative`), standing in for
  ``GL_NV_conservative_raster`` in the §5 result intervals.

Like real hardware, the triangle rasterizer snaps vertices to a fixed
sub-pixel grid (1/256 of a pixel) and evaluates integer edge functions, so
adjacent triangles partition their shared edge exactly — the property that
makes the polygon draw pass of the raster join count every pixel exactly
once.
"""

from repro.graphics.viewport import Canvas, Viewport, resolution_for_epsilon
from repro.graphics.fbo import FrameBuffer
from repro.graphics.raster_triangle import SUBPIXEL_BITS

__all__ = [
    "Canvas",
    "Viewport",
    "resolution_for_epsilon",
    "FrameBuffer",
    "SUBPIXEL_BITS",
]
