"""Unit tests for the uniform grid index."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.bbox import BBox
from repro.geometry.polygon import Polygon, PolygonSet, rectangle
from repro.index.grid import GridIndex
from tests.conftest import random_star_polygon


@pytest.fixture
def small_set() -> PolygonSet:
    return PolygonSet(
        [
            rectangle(0, 0, 30, 30),
            rectangle(20, 20, 60, 60),
            Polygon([(70, 10), (95, 15), (85, 45)]),
        ]
    )


class TestBuild:
    def test_csr_structure_consistent(self, small_set):
        grid = GridIndex(small_set, resolution=16)
        assert grid.cell_start[0] == 0
        assert grid.cell_start[-1] == len(grid.entries)
        assert np.all(np.diff(grid.cell_start) >= 0)

    def test_invalid_args(self, small_set):
        with pytest.raises(GeometryError):
            GridIndex(small_set, resolution=0)
        with pytest.raises(GeometryError):
            GridIndex(small_set, assignment="fancy")

    def test_exact_assignment_subset_of_mbr(self, rng):
        """Exact cell lists are never larger than MBR cell lists."""
        polys = PolygonSet(
            [random_star_polygon(rng, center=(50, 50), radius_range=(10, 40))
             for _ in range(5)]
        )
        extent = BBox(0, 0, 100, 100)
        mbr = GridIndex(polys, resolution=32, assignment="mbr", extent=extent)
        exact = GridIndex(polys, resolution=32, assignment="exact", extent=extent)
        assert exact.num_entries <= mbr.num_entries
        # Per cell: exact candidates ⊆ mbr candidates.
        for cell in range(32 * 32):
            e = set(exact.candidates_of_cell(cell).tolist())
            m = set(mbr.candidates_of_cell(cell).tolist())
            assert e <= m

    def test_no_polygons_and_no_extent_is_a_geometry_error(self):
        with pytest.raises(GeometryError):
            GridIndex([])

    def test_a_polygon_off_the_extent_has_no_exact_cells(self):
        cells = GridIndex.cells_for_polygon(
            rectangle(200, 200, 210, 210), BBox(0, 0, 100, 100), 16, "exact"
        )
        assert cells.dtype == np.int64 and len(cells) == 0

    def test_build_seconds_recorded(self, small_set):
        grid = GridIndex(small_set, resolution=8)
        assert grid.build_seconds >= 0.0


class TestProbe:
    def test_candidates_are_superset_of_truth(self, rng, small_set):
        """No containing polygon may ever be missed by the index."""
        grid = GridIndex(small_set, resolution=64)
        xs = rng.uniform(0, 100, 3000)
        ys = rng.uniform(0, 100, 3000)
        for x, y in zip(xs[:300], ys[:300]):
            candidates = set(grid.candidates_of_point(x, y).tolist())
            for pid, poly in enumerate(small_set):
                if poly.contains(x, y):
                    assert pid in candidates

    def test_point_outside_extent(self, small_set):
        grid = GridIndex(small_set, resolution=8)
        assert len(grid.candidates_of_point(-100, -100)) == 0
        cells = grid.cell_of_points(np.asarray([-100.0]), np.asarray([5.0]))
        assert cells[0] == -1

    def test_max_edge_points_have_cells(self, small_set):
        """Points exactly on the polygon-set max edges must map to a cell
        (the build pads the extent for this)."""
        grid = GridIndex(small_set, resolution=8)
        box = small_set.bbox
        cells = grid.cell_of_points(
            np.asarray([box.xmax]), np.asarray([box.ymax])
        )
        assert cells[0] >= 0

    def test_vectorized_cells_match_scalar(self, rng, small_set):
        grid = GridIndex(small_set, resolution=16)
        xs = rng.uniform(0, 100, 200)
        ys = rng.uniform(0, 100, 200)
        cells = grid.cell_of_points(xs, ys)
        for i in range(200):
            single = grid.cell_of_points(xs[i:i + 1], ys[i:i + 1])[0]
            assert cells[i] == single


class TestOccupancy:
    def test_occupancy_sums_to_entries(self, small_set):
        grid = GridIndex(small_set, resolution=16)
        assert np.diff(grid.cell_start).sum() == grid.num_entries

    def test_higher_resolution_mbr_entry_growth(self, small_set):
        low = GridIndex(small_set, resolution=8)
        high = GridIndex(small_set, resolution=64)
        assert high.num_entries > low.num_entries


class TestSplice:
    """In-place CSR splicing must be bit-identical to a rebuild over the
    same extent (the constructor is the reference)."""

    @staticmethod
    def _edit(rng, polys, dirty):
        out = list(polys)
        for pid in dirty:
            ring = out[pid].exterior.copy()
            c = ring.mean(axis=0)
            ring = c + (ring - c) * rng.uniform(0.3, 1.4) + rng.uniform(-3, 3, 2)
            out[pid] = Polygon(ring)
        return out

    @staticmethod
    def _changes(base, old_polys, new_polys, dirty):
        return {
            pid: (
                GridIndex.cells_for_polygon(
                    old_polys[pid], base.extent, base.resolution,
                    base.assignment,
                ),
                GridIndex.cells_for_polygon(
                    new_polys[pid], base.extent, base.resolution,
                    base.assignment,
                ),
            )
            for pid in dirty
        }

    @pytest.mark.parametrize("assignment", ["mbr", "exact"])
    @pytest.mark.parametrize("resolution", [16, 257, 1024])
    def test_bit_identical_to_a_rebuild(self, assignment, resolution):
        rng = np.random.default_rng(resolution)
        polys = [
            random_star_polygon(
                rng,
                center=(rng.uniform(15, 85), rng.uniform(15, 85)),
                radius_range=(2, 18),
                vertices=int(rng.integers(3, 9)),
            )
            for _ in range(40)
        ]
        base = GridIndex(polys, resolution=resolution, assignment=assignment)
        dirty = sorted(rng.choice(40, size=6, replace=False).tolist())
        new_polys = self._edit(rng, polys, dirty)
        spliced = base.splice(
            new_polys, self._changes(base, polys, new_polys, dirty)
        )
        rebuilt = GridIndex(new_polys, resolution, assignment, base.extent)
        assert np.array_equal(spliced.cell_start, rebuilt.cell_start)
        assert np.array_equal(spliced.entries, rebuilt.entries)

    def test_adjacent_cell_tie_break(self):
        """Inserts at the end of cell c and the start of cell c+1 share a
        flat position; cell order must win over pid order there."""
        # pid 0 occupies cell 1 only; pid 2 occupies cell 2 only.  Move
        # pid 2 into cell 1 (insert at its end) and pid 0 into cell 2
        # (insert at its start): both inserts land at the same position.
        polys = [
            rectangle(10, 0, 19, 9),   # cell 1 at resolution 4 over 0..40
            rectangle(0, 30, 9, 39),   # out of the way
            rectangle(20, 0, 29, 9),   # cell 2
        ]
        extent = BBox(0, 0, 40, 40)
        cells = [
            GridIndex.cells_for_polygon(p, extent, 4, "mbr") for p in polys
        ]
        base = GridIndex(polys, 4, "mbr", extent)
        new_polys = [polys[2], polys[1], polys[0]]  # swap 0 and 2
        changes = {
            0: (cells[0], cells[2]),
            2: (cells[2], cells[0]),
        }
        spliced = base.splice(new_polys, changes)
        rebuilt = GridIndex(new_polys, 4, "mbr", extent)
        assert np.array_equal(spliced.cell_start, rebuilt.cell_start)
        assert np.array_equal(spliced.entries, rebuilt.entries)

    def test_empty_changes_is_identity(self, small_set):
        base = GridIndex(small_set, resolution=16)
        spliced = base.splice(small_set, {})
        assert np.array_equal(spliced.entries, base.entries)
        assert np.array_equal(spliced.cell_start, base.cell_start)

    def test_probe_equivalence_after_splice(self):
        rng = np.random.default_rng(3)
        polys = [
            random_star_polygon(
                rng,
                center=(rng.uniform(15, 85), rng.uniform(15, 85)),
                radius_range=(3, 15),
                vertices=6,
            )
            for _ in range(20)
        ]
        base = GridIndex(polys, resolution=64, assignment="exact")
        dirty = [4, 11]
        new_polys = self._edit(rng, polys, dirty)
        spliced = base.splice(
            new_polys, self._changes(base, polys, new_polys, dirty)
        )
        fresh = GridIndex(
            new_polys, resolution=64, assignment="exact", extent=base.extent
        )
        xs = rng.uniform(0, 100, 500)
        ys = rng.uniform(0, 100, 500)
        for x, y in zip(xs, ys):
            assert np.array_equal(
                spliced.candidates_of_point(x, y),
                fresh.candidates_of_point(x, y),
            )
