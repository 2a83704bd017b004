"""Hausdorff distances between point sets and polylines.

The bounded raster join's guarantee (§4.2) is stated in terms of the
Hausdorff distance between a polygon and its pixelated approximation: with
pixel side ε/√2 the approximation stays within ε.  These helpers let the
tests verify that bound empirically on sampled boundaries.
"""

from __future__ import annotations

import numpy as np


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of ``a`` of the distance to the nearest point of ``b``.

    Point-set version (no interpolation along segments); inputs are (n, 2)
    arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0:
        return 0.0
    if len(b) == 0:
        return float("inf")
    # Chunk to bound the distance-matrix memory.
    worst = 0.0
    chunk = max(1, int(2_000_000 / max(len(b), 1)))
    for start in range(0, len(a), chunk):
        part = a[start:start + chunk]
        d = np.hypot(
            part[:, None, 0] - b[None, :, 0],
            part[:, None, 1] - b[None, :, 1],
        )
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def sample_polyline(vertices: np.ndarray, spacing: float, closed: bool = True) -> np.ndarray:
    """Resample a polyline at roughly ``spacing`` intervals.

    Turning polygon boundaries into dense point samples makes the point-set
    Hausdorff distance a faithful stand-in for the continuous one (error at
    most spacing/2).
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    pts: list[np.ndarray] = []
    n = len(vertices)
    last = n if closed else n - 1
    for i in range(last):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        length = float(np.hypot(*(b - a)))
        steps = max(1, int(np.ceil(length / max(spacing, 1e-12))))
        ts = np.arange(steps) / steps
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return np.concatenate(pts, axis=0) if pts else vertices.copy()


def polyline_hausdorff(
    ring_a: np.ndarray, ring_b: np.ndarray, spacing: float
) -> float:
    """Hausdorff distance between two closed boundaries, sampled densely."""
    return hausdorff_distance(
        sample_polyline(ring_a, spacing), sample_polyline(ring_b, spacing)
    )
