"""Result-range estimation for the bounded raster join (§5).

Every error of the bounded join lives in a boundary pixel: a covered pixel
crossed by the outline may count outside points (false positives), an
uncovered pixel overlapping the polygon may miss inside points (false
negatives).  Summing the point-FBO totals of those two pixel sets yields a
100%-confidence interval around the approximate answer.  Assuming points
are uniformly distributed inside each (tiny) boundary pixel, scaling each
pixel's total by its pixel∩polygon area fraction gives a much tighter
expected interval.

The classification reads the statement's own raster: per tile, the run
table the polygon pass reduced (the bounded kernel's is untrimmed, so it
is every polygon's coverage) and one batched outline pass.  A polygon's
outline pixel inside its runs is a false-positive candidate; one outside
them is a false negative when a triangle of the polygon overlaps it (the
conservative raster's closed test, run on those pairs only — the
outline's corner probes reach a pixel a ring only grazes within rounding,
which no triangle touches).  The area fractions of all (pixel, polygon)
pairs are one batched clip (:func:`~repro.geometry.clip.
pixel_coverage_fraction`).  A pixel no point fell in adds nothing to any
bound and is dropped first.

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

from repro.cache.prepared import PreparedPolygons, TileCoverage
from repro.core.aggregates import Aggregate
from repro.geometry.clip import pixel_coverage_fraction
from repro.geometry.polygon import PolygonSet
from repro.graphics.conservative import conservative_overlaps
from repro.graphics.fbo import FrameBuffer
from repro.graphics.raster_batch import bin_polygons_to_tile, flatten_triangles
from repro.graphics.raster_line import outline_pixels_many
from repro.graphics.viewport import Viewport
from repro.index.grid import ragged_positions
from repro.types import ResultIntervals


def _in_runs(coverage: TileCoverage, key: np.ndarray, span: int) -> np.ndarray:
    """Whether each ``pid * span + flat pixel`` key lies in that
    polygon's runs: one search over the table's runs keyed the same way
    (ascending — polygon order, each polygon's by ``lo``)."""
    if not len(coverage.runs):
        return np.zeros(len(key), dtype=bool)
    owner = np.repeat(coverage.pids, np.diff(
        coverage.starts, append=len(coverage.runs)
    )) * span
    # The running maximum keeps the test exact if a polygon's runs
    # overlapped (overlapping triangles).
    hi = np.maximum.accumulate(owner + coverage.runs[:, 1])
    at = np.searchsorted(owner + coverage.runs[:, 0], key, "right") - 1
    return (at >= 0) & (key < hi[at])


def _pairs(
    tile: Viewport, soup, pid: np.ndarray, ix: np.ndarray, iy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(candidate, triangle)`` index pairs: each candidate pixel with
    its polygon's triangles whose pixel box, grown by one pixel against
    rounding, holds it — triangle by triangle, ascending.  The
    candidates are sorted by ``(pid, ix, iy)``, so a triangle's columns
    are one search range; its rows filter that range."""
    key = pid * tile.num_pixels + ix * tile.height + iy
    sx, sy = tile.to_screen(soup.verts[..., 0], soup.verts[..., 1])
    # Columns clamped to the tile: a range stays within its polygon.
    x0, x1 = (np.clip(np.floor(sx.min(axis=1)) - 1, 0, tile.width),
              np.clip(np.floor(sx.max(axis=1)) + 2, 0, tile.width))
    band = soup.tri_pid * tile.num_pixels
    first = np.searchsorted(key, band + x0 * tile.height)
    count = np.searchsorted(key, band + x1 * tile.height) - first
    cand = ragged_positions(first, count)
    tri = np.repeat(np.arange(len(first)), count)
    near = np.flatnonzero(
        (iy[cand] >= np.floor(sy.min(axis=1))[tri] - 1)
        & (iy[cand] <= np.floor(sy.max(axis=1))[tri] + 1)
    )
    return cand[near], tri[near]


def _tile_sums(
    tile: Viewport,
    grid: np.ndarray,
    coverage: TileCoverage,
    prepared: PreparedPolygons,
    polygons: PolygonSet,
) -> tuple[np.ndarray, ...]:
    """One tile's boundary pixels: ``(pid, totals, fp, fn, f)`` over
    every (outline pixel, polygon) pair holding a nonzero total."""
    hit = np.flatnonzero(bin_polygons_to_tile(tile, prepared.mbr_arrays))
    outlines = outline_pixels_many(
        tile, {pid: polygons[pid].rings for pid in hit.tolist()}
    )
    pixels = list(outlines.values())
    pid = np.repeat(hit, [len(ix) for ix, _ in pixels])
    ix = np.concatenate([np.zeros(0, np.int64)] + [ix for ix, _ in pixels])
    iy = np.concatenate([np.zeros(0, np.int64)] + [iy for _, iy in pixels])
    totals = grid[iy, ix].astype(np.float64)
    keep = np.flatnonzero(totals)
    pid, ix, iy, totals = pid[keep], ix[keep], iy[keep], totals[keep]

    fp = _in_runs(coverage, pid * tile.num_pixels + iy * tile.width + ix,
                  tile.num_pixels)
    soup = flatten_triangles(
        {p: prepared.triangles[p] for p in np.unique(pid).tolist()}
    )
    cand, tri = _pairs(tile, soup, pid, ix, iy)
    # Only pairs that touch (the conservative raster's closed test) can
    # share area, and a pixel its polygon's triangles do not touch is no
    # false negative: what the outline's corner probes add.
    touch = np.flatnonzero(conservative_overlaps(
        tile, soup.verts, tri, ix[cand], iy[cand]
    ))
    cand, tri = cand[touch], tri[touch]
    overlapped = np.zeros(len(pid), dtype=bool)
    overlapped[cand] = True
    f = pixel_coverage_fraction(
        soup.verts, tile.pixel_rects(ix, iy), (cand, tri)
    )
    return pid, totals, fp, ~fp & overlapped, f


def estimate_result_intervals(
    payloads: Sequence[tuple[TileCoverage, FrameBuffer]],
    prepared: PreparedPolygons,
    polygons: PolygonSet,
    values: np.ndarray,
    aggregate: Aggregate,
) -> ResultIntervals:
    """Per-polygon result intervals from boundary-pixel analysis.

    ``payloads`` are the tile loop's, one ``(run table, point
    framebuffer)`` per tile of ``prepared`` in tile order.  Only a single
    additive channel (``Count``, ``Sum``) has boundary-pixel totals that
    bound the answer; the bounded join refuses any other aggregate
    before its tile loop runs.
    """
    n = len(polygons)
    over_loose = np.zeros(n, dtype=np.float64)   # Σ_{P+} F
    under_loose = np.zeros(n, dtype=np.float64)  # Σ_{P-} F
    over_expected = np.zeros(n, dtype=np.float64)   # Σ_{P+} (1-f) F
    under_expected = np.zeros(n, dtype=np.float64)  # Σ_{P-} f F

    (channel,) = aggregate.channels
    for tile, (coverage, fbo) in zip(prepared.tiles, payloads):
        pid, totals, fp, fn, f = _tile_sums(
            tile, fbo.channel(channel), coverage, prepared, polygons
        )
        for sums, pick, weight in (
            (over_loose, fp, totals), (under_loose, fn, totals),
            (over_expected, fp, (1.0 - f) * totals),
            (under_expected, fn, f * totals),
        ):
            sums += np.bincount(pid, np.where(pick, weight, 0.0), n)

    values = np.asarray(values, dtype=np.float64)
    return ResultIntervals(
        loose_lo=values - over_loose,
        loose_hi=values + under_loose,
        expected_lo=values - over_expected,
        expected_hi=values + under_expected,
        expected_value=values - over_expected + under_expected,
    )
