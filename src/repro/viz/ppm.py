"""Dependency-free PPM image writer.

The examples save heatmaps without any imaging library: binary PPM (P6)
is a universally viewable single-header format.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import RasterJoinError


def write_ppm(path: str | Path, rgb: np.ndarray) -> Path:
    """Write an ``(h, w, 3)`` uint8 array as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise RasterJoinError(
            f"PPM needs (h, w, 3) uint8, got {rgb.shape} {rgb.dtype}"
        )
    path = Path(path)
    height, width = rgb.shape[:2]
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(rgb.tobytes())
    return path
