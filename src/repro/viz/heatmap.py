"""Choropleth rendering: per-region aggregate values painted over pixels.

Renders the paper's Figure 1/6 style heatmaps: each polygon is filled with
its (normalized) aggregate value over the pixels the engine's polygon pass
covers (``coverage_by_polygon``, every polygon in one batched call; no
outline is painted), then a colormap turns the value raster into an RGB
image.  Because both the approximate and accurate results render through
the same path, pixelwise comparison isolates the aggregation error — which
is what the JND analysis measures.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RasterJoinError
from repro.geometry.polygon import PolygonSet
from repro.geometry.triangulate import per_polygon, triangulate_set
from repro.graphics.raster_batch import coverage_by_polygon
from repro.graphics.viewport import Canvas
from repro.index.grid import ragged_positions
from repro.viz.colormap import SequentialColormap, YLORRD_LIKE


def normalize_values(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; constant inputs map to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return np.full(values.shape, np.nan)
    lo = float(finite.min())
    hi = float(finite.max())
    if hi <= lo:
        return np.where(np.isfinite(values), 0.5, np.nan)
    return (values - lo) / (hi - lo)


def choropleth_raster(
    polygons: PolygonSet,
    values: np.ndarray,
    resolution: int = 512,
    normalized: bool = False,
) -> np.ndarray:
    """Rasterize per-polygon values into a float image (NaN = background).

    The returned array is ``(height, width)`` with rows ordered bottom-up
    (world y increases with row index).  A pixel two polygons cover
    takes the higher pid's value.  A set that cannot be triangulated
    raises :class:`~repro.errors.TriangulationError`.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) != len(polygons):
        raise RasterJoinError(
            f"{len(values)} values for {len(polygons)} polygons"
        )
    norm = values if normalized else normalize_values(values)
    canvas = Canvas.for_resolution(polygons.bbox.expanded(1e-9), resolution)
    viewport = canvas.full_viewport()
    triangles, ids = triangulate_set(list(polygons))
    coverage = coverage_by_polygon(viewport, dict(
        enumerate(per_polygon(triangles, ids, len(polygons)))
    ))
    image = np.full((viewport.height, viewport.width), np.nan)
    flat = image.reshape(-1)  # flat pixel iy * width + ix
    for pid, runs in coverage.items():
        flat[ragged_positions(runs[:, 0], runs[:, 1] - runs[:, 0])] = norm[pid]
    return image


def render_choropleth(
    polygons: PolygonSet,
    values: np.ndarray,
    resolution: int = 512,
    colormap: SequentialColormap = YLORRD_LIKE,
) -> np.ndarray:
    """Full render: values -> normalized raster -> RGB uint8 image.

    The image is returned top-down (row 0 at the top), ready for PPM
    output.
    """
    raster = choropleth_raster(polygons, values, resolution)
    rgb = colormap.to_bytes(raster)
    return rgb[::-1]  # flip to top-down image convention
