"""Software rasterization pipeline with GPU-faithful semantics.

This package substitutes for the OpenGL pipeline used by the paper.  It
reproduces the semantics that the raster-join algorithms rely on:

* a viewport transform from world coordinates to a pixel grid
  (:mod:`repro.graphics.viewport`), including the multi-canvas tiling of the
  paper's Figure 5;
* framebuffer objects with additive blending
  (:mod:`repro.graphics.fbo`), the paper's point-count FBO;
* triangle, line, and polygon rasterization with pixel-center coverage
  and a watertight fill rule (:mod:`repro.graphics.raster_triangle`
  /:mod:`~repro.graphics.raster_line` /:mod:`~repro.graphics.raster_polygon`);
* conservative rasterization (:mod:`repro.graphics.conservative`), standing
  in for ``GL_NV_conservative_raster``.

Like real hardware, the triangle rasterizer snaps vertices to a fixed
sub-pixel grid (1/256 of a pixel) and evaluates integer edge functions, so
adjacent triangles partition their shared edge exactly — the property that
makes the polygon draw pass of the raster join count every pixel exactly
once.
"""

from repro.graphics.viewport import Canvas, Viewport, resolution_for_epsilon
from repro.graphics.fbo import FrameBuffer
from repro.graphics.raster_triangle import (
    SUBPIXEL_BITS,
    covered_pixels,
    triangle_coverage_mask,
)
from repro.graphics.raster_line import supercover_line, outline_pixels
from repro.graphics.conservative import conservative_triangle_pixels
from repro.graphics.raster_polygon import scanline_polygon_pixels

__all__ = [
    "Canvas",
    "Viewport",
    "resolution_for_epsilon",
    "FrameBuffer",
    "SUBPIXEL_BITS",
    "covered_pixels",
    "triangle_coverage_mask",
    "supercover_line",
    "outline_pixels",
    "conservative_triangle_pixels",
    "scanline_polygon_pixels",
]
