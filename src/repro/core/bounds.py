"""Result-range estimation for the bounded raster join (§5).

Every error of the bounded join lives in a boundary pixel: a covered pixel
crossed by the outline may count outside points (false positives), an
uncovered pixel overlapping the polygon may miss inside points (false
negatives).  Summing the point-FBO totals of those two pixel sets yields a
100%-confidence interval around the approximate answer.  Assuming points
are uniformly distributed inside each (tiny) boundary pixel, scaling each
pixel's total by its pixel∩polygon area fraction gives a much tighter
expected interval.

Note on the paper's formulas: §5 prints both ε⁺ and ε⁻ with the factor
``f`` (the fraction of the pixel *inside* the polygon).  For a false-
positive pixel the whole total was counted but only ``f`` of it is expected
to belong, so the expected over-count is ``(1 - f) * F`` — we implement
that statistically consistent form and keep the paper's loose bounds
unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregates import Aggregate
from repro.geometry.clip import pixel_coverage_fraction
from repro.geometry.polygon import PolygonSet
from repro.graphics.conservative import conservative_triangle_pixels
from repro.graphics.fbo import FrameBuffer
from repro.graphics.raster_line import outline_pixels
from repro.graphics.raster_triangle import triangle_coverage_mask
from repro.graphics.viewport import Viewport
from repro.types import ResultIntervals


def _polygon_pixel_sets(
    tile: Viewport,
    triangles: Sequence[np.ndarray],
    rings: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary-pixel classification for one polygon on one tile.

    Returns ``(fp_ix, fp_iy, fn_ix, fn_iy)``: the false-positive candidate
    pixels (covered by regular rasterization and crossed by the outline)
    and the false-negative candidates (crossed or overlapped but not
    covered).
    """
    out_ix, out_iy = outline_pixels(tile, rings)
    if len(out_ix) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty

    covered = np.zeros((tile.height, tile.width), dtype=bool)
    overlapped = np.zeros((tile.height, tile.width), dtype=bool)
    for tri in triangles:
        x0, y0, mask = triangle_coverage_mask(tile, tri)
        if mask.size:
            covered[y0:y0 + mask.shape[0], x0:x0 + mask.shape[1]] |= mask
        x0, y0, cmask = conservative_triangle_pixels(tile, tri)
        if cmask.size:
            overlapped[y0:y0 + cmask.shape[0], x0:x0 + cmask.shape[1]] |= cmask

    on_cover = covered[out_iy, out_ix]
    fp_ix, fp_iy = out_ix[on_cover], out_iy[on_cover]
    miss = ~on_cover & overlapped[out_iy, out_ix]
    fn_ix, fn_iy = out_ix[miss], out_iy[miss]
    return fp_ix, fp_iy, fn_ix, fn_iy


def estimate_result_intervals(
    tiles_and_fbos: Sequence[tuple[Viewport, FrameBuffer]],
    polygons: PolygonSet,
    triangles: Sequence[Sequence[np.ndarray]],
    values: np.ndarray,
    aggregate: Aggregate,
) -> ResultIntervals:
    """Per-polygon result intervals from boundary-pixel analysis.

    Only a single additive channel (``Count``, ``Sum``) has boundary-pixel
    totals that bound the answer; the bounded join refuses any other
    aggregate before its tile loop runs.
    """
    n = len(polygons)
    over_loose = np.zeros(n, dtype=np.float64)   # Σ_{P+} F
    under_loose = np.zeros(n, dtype=np.float64)  # Σ_{P-} F
    over_expected = np.zeros(n, dtype=np.float64)   # Σ_{P+} (1-f) F
    under_expected = np.zeros(n, dtype=np.float64)  # Σ_{P-} f F

    (channel,) = aggregate.channels
    for tile, fbo in tiles_and_fbos:
        grid = fbo.channel(channel)
        for pid, polygon in enumerate(polygons):
            if not polygon.bbox.intersects(tile.bbox):
                continue
            tris = triangles[pid]
            fp_ix, fp_iy, fn_ix, fn_iy = _polygon_pixel_sets(
                tile, tris, polygon.rings
            )
            if len(fp_ix):
                totals = grid[fp_iy, fp_ix].astype(np.float64)
                over_loose[pid] += float(totals.sum())
                f = np.array([
                    pixel_coverage_fraction(tris, tile.pixel_bbox(ix, iy))
                    for ix, iy in zip(fp_ix.tolist(), fp_iy.tolist())
                ])
                over_expected[pid] += float(((1.0 - f) * totals).sum())
            if len(fn_ix):
                totals = grid[fn_iy, fn_ix].astype(np.float64)
                under_loose[pid] += float(totals.sum())
                f = np.array([
                    pixel_coverage_fraction(tris, tile.pixel_bbox(ix, iy))
                    for ix, iy in zip(fn_ix.tolist(), fn_iy.tolist())
                ])
                under_expected[pid] += float((f * totals).sum())

    values = np.asarray(values, dtype=np.float64)
    return ResultIntervals(
        loose_lo=values - over_loose,
        loose_hi=values + under_loose,
        expected_lo=values - over_expected,
        expected_hi=values + under_expected,
        expected_value=values - over_expected + under_expected,
    )
