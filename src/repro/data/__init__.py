"""Datasets: in-memory point tables, on-disk columnar storage,
and the synthetic workload generators that stand in for the paper's NYC
taxi and Twitter data."""

from repro.data.dataset import PointDataset
from repro.data.column_store import ColumnStore
from repro.data.taxi import generate_taxi, NYC_EXTENT
from repro.data.twitter import generate_twitter, USA_EXTENT
from repro.data.regions import (
    generate_neighborhoods,
    generate_counties,
    generate_voronoi_regions,
)

__all__ = [
    "PointDataset",
    "ColumnStore",
    "generate_taxi",
    "NYC_EXTENT",
    "generate_twitter",
    "USA_EXTENT",
    "generate_neighborhoods",
    "generate_counties",
    "generate_voronoi_regions",
]
