"""repro — rasterization-based real-time spatial aggregation.

A from-scratch Python reproduction of *"GPU Rasterization for Real-Time
Spatial Aggregation over Arbitrary Polygons"* (Tzirita Zacharatou,
Doraiswamy, Ailamaki, Silva, Freire; PVLDB 11(3), 2017).

Quickstart::

    import numpy as np
    from repro import PointDataset, PolygonSet, Polygon, BoundedRasterJoin

    points = PointDataset(xs, ys, {"fare": fares})
    regions = PolygonSet([Polygon(ring) for ring in rings])
    result = BoundedRasterJoin(epsilon=10.0).execute(points, regions)
    print(result.values)          # one aggregate per polygon

See :mod:`repro.core` for the engines (its docstring maps each onto the
paper's sections), :mod:`repro.data` for synthetic workloads,
:mod:`repro.sql` for the SQL frontend, and ``docs/`` for the subsystems.
"""

# First: a cold kernel cache compiles here, before any statement or
# set-up (repro.native).
from repro import native  # noqa: F401
from repro.cache import PreparedPolygons, QuerySession
from repro.core import (
    AccurateRasterJoin,
    Aggregate,
    Average,
    BoundedRasterJoin,
    Count,
    Filter,
    FilterSet,
    IndexJoin,
    MaterializingJoin,
    Max,
    Min,
    MultiAggregate,
    RasterJoinOptimizer,
    SpatialAggregationEngine,
    Sum,
)
from repro.data import PointDataset
from repro.device import GPUDevice
from repro.errors import RasterJoinError
from repro.exec import (
    EngineConfig,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.geometry import BBox, Polygon, PolygonSet
from repro.serve import ServeConfig, Server
from repro.store import ArtifactStore
from repro.types import AggregationResult, ExecutionStats, ResultIntervals

__version__ = "1.0.0"

__all__ = [
    "AccurateRasterJoin",
    "Aggregate",
    "AggregationResult",
    "ArtifactStore",
    "Average",
    "BBox",
    "BoundedRasterJoin",
    "Count",
    "EngineConfig",
    "ExecutionBackend",
    "ExecutionStats",
    "Filter",
    "FilterSet",
    "GPUDevice",
    "ProcessBackend",
    "SerialBackend",
    "ServeConfig",
    "Server",
    "ThreadBackend",
    "IndexJoin",
    "MaterializingJoin",
    "Max",
    "Min",
    "MultiAggregate",
    "PointDataset",
    "Polygon",
    "PolygonSet",
    "PreparedPolygons",
    "QuerySession",
    "RasterJoinError",
    "RasterJoinOptimizer",
    "ResultIntervals",
    "SpatialAggregationEngine",
    "Sum",
    "__version__",
]
