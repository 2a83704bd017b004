"""The sub-pixel lattice of watertight triangle rasterization.

The software stand-in for the hardware rasterizer the paper builds on
(Olano & Greer-style edge functions) is the batched pass of
:mod:`repro.graphics.raster_batch`; this module holds the lattice it
snaps to.  Two properties matter for the raster join and both are
reproduced exactly:

1. **Pixel-center coverage**: a pixel belongs to a triangle iff its center
   lies inside the triangle — the source of the bounded join's false
   negatives along polygon outlines.
2. **Watertightness**: pixel centers that fall exactly on an edge shared by
   two triangles are assigned to exactly one of them.  Like real GPUs, we
   achieve this by snapping vertices to a fixed sub-pixel grid
   (``SUBPIXEL_BITS`` fractional bits) and evaluating edge functions in
   64-bit integers, then breaking ``E == 0`` ties with a fill-rule that
   includes bottom and left edges.  The rule is chosen to agree with the
   half-open crossing-number convention used by
   :func:`repro.geometry.predicates.point_in_ring`, so "rasterize the
   triangulation" and "PIP-test the pixel center against the polygon"
   coincide.  (OpenGL's top-left rule is the same rule under a y-axis flip;
   only consistency matters.)

Without watertightness the polygon draw pass could double-count a pixel
whose center sits on an interior triangulation edge — corrupting the
aggregate — or drop it entirely.  The one-triangle rasterizer the batched
pass replaced is the suites' oracle (``tests/graphics/reference_raster.py``).
"""

from __future__ import annotations

import numpy as np

#: Fractional bits of the sub-pixel grid (real GPUs use 8 as well).
SUBPIXEL_BITS = 8
SUBPIXEL_SCALE = 1 << SUBPIXEL_BITS
_HALF = SUBPIXEL_SCALE // 2


def snap_to_subpixels(sx: np.ndarray, sy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap continuous screen coordinates onto the sub-pixel integer grid."""
    fx = np.rint(np.asarray(sx, dtype=np.float64) * SUBPIXEL_SCALE).astype(np.int64)
    fy = np.rint(np.asarray(sy, dtype=np.float64) * SUBPIXEL_SCALE).astype(np.int64)
    return fx, fy
