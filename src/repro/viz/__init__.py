"""Visualization substrate: colormaps, choropleths, and JND analysis.

The paper's Figure 6 argument — that the bounded join's errors are
imperceptible — rests on rendering choropleth heatmaps with a sequential
colormap and comparing them under the just-noticeable-difference (JND)
threshold: a sequential map supports at most 9 perceivable classes, so a
normalized value difference under 1/9 cannot change what a human sees.
This package renders those maps (to arrays and to dependency-free PPM
files) and computes the JND statistics the benchmark reports.
"""

from repro.viz.colormap import SequentialColormap, YLORRD_LIKE
from repro.viz.heatmap import choropleth_raster, render_choropleth
from repro.viz.jnd import JND_THRESHOLD, jnd_report
from repro.viz.ppm import write_ppm

__all__ = [
    "SequentialColormap",
    "YLORRD_LIKE",
    "choropleth_raster",
    "render_choropleth",
    "JND_THRESHOLD",
    "jnd_report",
    "write_ppm",
]
