"""In-memory columnar point datasets.

A :class:`PointDataset` is the ``P(loc, a1, a2, ...)`` relation of the
paper: two float64 location columns plus named numeric attribute columns,
stored column-major exactly like the paper stores the taxi data ("the data
is stored as columns on disk and the required columns are loaded into main
memory").
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.errors import SchemaError
from repro.geometry.bbox import BBox


class PointDataset:
    """A columnar table of points with numeric attributes."""

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        attributes: Mapping[str, np.ndarray] | None = None,
        name: str = "points",
    ) -> None:
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1:
            raise SchemaError("location columns must be one-dimensional")
        if len(xs) != len(ys):
            raise SchemaError(f"x has {len(xs)} rows but y has {len(ys)}")
        self.xs = xs
        self.ys = ys
        self.name = name
        self.attributes: dict[str, np.ndarray] = {}
        if attributes:
            for col, arr in attributes.items():
                arr = np.ascontiguousarray(arr)
                if len(arr) != len(xs):
                    raise SchemaError(
                        f"attribute {col!r} has {len(arr)} rows, expected {len(xs)}"
                    )
                if not np.issubdtype(arr.dtype, np.number):
                    raise SchemaError(f"attribute {col!r} must be numeric")
                self.attributes[col] = arr

    # ------------------------------------------------------------------
    # Table protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.xs)

    def column(self, name: str) -> np.ndarray:
        """Fetch a column by name; ``x``/``y`` are the locations."""
        if name == "x":
            return self.xs
        if name == "y":
            return self.ys
        try:
            return self.attributes[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; have "
                f"{['x', 'y'] + list(self.attributes)}"
            ) from None

    @property
    def bbox(self) -> BBox:
        return BBox.of_points(self.xs, self.ys)

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def take(self, index: np.ndarray | slice) -> "PointDataset":
        """A new dataset holding the selected rows."""
        return PointDataset(
            self.xs[index],
            self.ys[index],
            {n: a[index] for n, a in self.attributes.items()},
            name=self.name,
        )

    def head(self, n: int) -> "PointDataset":
        """The first ``n`` rows — how the scaling experiments grow inputs
        (the paper adds time intervals; the generators emit time-ordered
        rows so a prefix is the same operation)."""
        return self.take(slice(0, min(n, len(self))))

    def batches(self, rows_per_batch: int) -> Iterator["PointDataset"]:
        """Yield contiguous row ranges of at most ``rows_per_batch``."""
        if rows_per_batch < 1:
            raise SchemaError(f"batch size must be >= 1, got {rows_per_batch}")
        for start in range(0, len(self), rows_per_batch):
            yield self.take(slice(start, start + rows_per_batch))

    def __repr__(self) -> str:
        return (
            f"PointDataset({self.name!r}, {len(self)} rows, "
            f"attributes={list(self.attributes)})"
        )
