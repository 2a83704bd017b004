"""Sequential colormaps with piecewise-linear interpolation.

Only sequential (continuous) maps are provided: the paper's §8 explicitly
assumes them — with categorical maps "even a minute error can completely
change the color of the visualization", which is exactly the failure mode
the JND analysis rules out for sequential maps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RasterJoinError


class SequentialColormap:
    """Piecewise-linear RGB colormap over [0, 1]."""

    def __init__(self, name: str, stops: list[tuple[float, float, float]]) -> None:
        if len(stops) < 2:
            raise RasterJoinError("a colormap needs at least two stops")
        self.name = name
        self._stops = np.asarray(stops, dtype=np.float64)
        if self._stops.min() < 0.0 or self._stops.max() > 1.0:
            raise RasterJoinError("colormap stops must be RGB in [0, 1]")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Map normalized values (NaN-safe) to ``(..., 3)`` float RGB.

        NaN values (regions with no data) render as light gray.
        """
        values = np.asarray(values, dtype=np.float64)
        out = np.empty(values.shape + (3,), dtype=np.float64)
        nan = ~np.isfinite(values)
        clipped = np.clip(np.where(nan, 0.0, values), 0.0, 1.0)
        positions = clipped * (len(self._stops) - 1)
        low = np.floor(positions).astype(int)
        high = np.minimum(low + 1, len(self._stops) - 1)
        frac = (positions - low)[..., None]
        out[...] = self._stops[low] * (1.0 - frac) + self._stops[high] * frac
        out[nan] = (0.85, 0.85, 0.85)
        return out

    def to_bytes(self, values: np.ndarray) -> np.ndarray:
        """RGB uint8 image data."""
        return (self(values) * 255.0 + 0.5).astype(np.uint8)


#: A yellow-orange-red map like the paper's heatmaps (ColorBrewer YlOrRd).
YLORRD_LIKE = SequentialColormap(
    "ylorrd-like",
    [
        (1.000, 1.000, 0.800),
        (0.996, 0.851, 0.463),
        (0.996, 0.698, 0.298),
        (0.992, 0.553, 0.235),
        (0.988, 0.306, 0.165),
        (0.890, 0.102, 0.110),
        (0.741, 0.000, 0.149),
        (0.502, 0.000, 0.149),
    ],
)
