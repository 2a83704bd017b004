"""Unit tests for colormaps, choropleths, JND analysis, and PPM output."""

import numpy as np
import pytest

from repro.errors import RasterJoinError
from repro.geometry.polygon import PolygonSet, rectangle
from repro.viz.colormap import YLORRD_LIKE, SequentialColormap
from repro.viz.heatmap import choropleth_raster, normalize_values, render_choropleth
from repro.viz.jnd import JND_THRESHOLD, jnd_report
from repro.viz.ppm import write_ppm


class TestColormap:
    def test_endpoints(self):
        rgb = YLORRD_LIKE(np.asarray([0.0, 1.0]))
        assert np.allclose(rgb[0], (1.000, 1.000, 0.800), atol=1e-9)
        assert np.allclose(rgb[1], (0.502, 0.000, 0.149), atol=1e-9)

    def test_clipping(self):
        rgb = YLORRD_LIKE(np.asarray([-1.0, 2.0]))
        assert np.allclose(rgb[0], YLORRD_LIKE(np.asarray([0.0]))[0])

    def test_nan_is_gray(self):
        rgb = YLORRD_LIKE(np.asarray([np.nan]))
        assert np.allclose(rgb[0], (0.85, 0.85, 0.85))

    def test_monotone_in_luminance_order(self):
        """Interpolation stays within stop range and varies smoothly."""
        vals = np.linspace(0, 1, 100)
        rgb = YLORRD_LIKE(vals)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_to_bytes(self):
        out = YLORRD_LIKE.to_bytes(np.asarray([0.5]))
        assert out.dtype == np.uint8

    def test_invalid_stops(self):
        with pytest.raises(RasterJoinError):
            SequentialColormap("bad", [(0, 0, 0)])
        with pytest.raises(RasterJoinError):
            SequentialColormap("bad", [(0, 0, 0), (2, 0, 0)])


class TestNormalize:
    def test_min_max(self):
        out = normalize_values(np.asarray([2.0, 4.0, 6.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_half(self):
        out = normalize_values(np.asarray([3.0, 3.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_nan_passthrough(self):
        out = normalize_values(np.asarray([1.0, np.nan, 3.0]))
        assert np.isnan(out[1]) and out[0] == 0.0


class TestChoropleth:
    @pytest.fixture
    def two_squares(self):
        return PolygonSet([rectangle(0, 0, 10, 10), rectangle(10, 0, 20, 10)])

    def test_regions_painted_with_their_values(self, two_squares):
        raster = choropleth_raster(two_squares, np.asarray([1.0, 3.0]), 64)
        left = raster[raster.shape[0] // 2, 5]
        right = raster[raster.shape[0] // 2, 40]
        assert left == 0.0 and right == 1.0  # normalized values

    def test_background_nan(self, two_squares):
        raster = choropleth_raster(two_squares, np.asarray([1.0, 3.0]), 64)
        assert np.isnan(raster).sum() >= 0  # squares tile fully, may be 0

    def test_value_count_mismatch(self, two_squares):
        with pytest.raises(RasterJoinError):
            choropleth_raster(two_squares, np.asarray([1.0]), 64)

    def test_render_rgb_shape(self, two_squares):
        img = render_choropleth(two_squares, np.asarray([1.0, 2.0]), 32)
        assert img.ndim == 3 and img.shape[2] == 3 and img.dtype == np.uint8


class TestJnd:
    def test_identical_results(self):
        vals = np.asarray([1.0, 5.0, 9.0])
        report = jnd_report(vals, vals)
        assert report.max_difference == 0.0
        assert report.indistinguishable

    def test_small_error_indistinguishable(self):
        accurate = np.asarray([100.0, 500.0, 900.0])
        approx = accurate + np.asarray([0.5, -0.7, 0.2])
        report = jnd_report(approx, accurate)
        assert report.indistinguishable
        assert report.perceivable_regions == 0

    def test_large_error_perceivable(self):
        accurate = np.asarray([100.0, 500.0, 900.0])
        approx = np.asarray([100.0, 900.0, 900.0])
        report = jnd_report(approx, accurate)
        assert not report.indistinguishable
        assert report.perceivable_regions >= 1

    def test_threshold_is_one_ninth(self):
        assert abs(JND_THRESHOLD - 1 / 9) < 1e-15

    def test_str_verdict(self):
        report = jnd_report(np.asarray([1.0]), np.asarray([1.0]))
        assert "indistinguishable" in str(report)


class TestPpm:
    def test_ppm_round_trip_header(self, tmp_path):
        img = np.zeros((4, 6, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)
        path = write_ppm(tmp_path / "x.ppm", img)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n6 4\n255\n")
        assert blob[11:14] == b"\xff\x00\x00"

    def test_type_validation(self, tmp_path):
        with pytest.raises(RasterJoinError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 6, 3), dtype=np.float32))
        with pytest.raises(RasterJoinError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 6), dtype=np.uint8))
