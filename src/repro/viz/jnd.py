"""Just-noticeable-difference analysis (the paper's §7.6 quality check).

Sequential colormaps support at most 9 perceivable classes (Harrower &
Brewer), so two visualizations are indistinguishable when every region's
normalized values differ by less than 1/9.  The paper reports a maximum
difference below 0.002 at the coarsest ε — two orders of magnitude under
the threshold; :func:`jnd_report` reproduces that measurement for any pair
of results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: 1/9 — the JND for a sequential map with 9 perceivable classes.
JND_THRESHOLD = 1.0 / 9.0


@dataclass(frozen=True)
class JndReport:
    """Outcome of comparing an approximate and an accurate visualization."""

    max_difference: float
    mean_difference: float
    threshold: float
    perceivable_regions: int

    @property
    def indistinguishable(self) -> bool:
        """True when no region's color class can change for a human."""
        return self.max_difference < self.threshold

    def __str__(self) -> str:
        verdict = (
            "indistinguishable" if self.indistinguishable else "PERCEIVABLE"
        )
        return (
            f"JND: max diff {self.max_difference:.5f} vs threshold "
            f"{self.threshold:.4f} -> {verdict} "
            f"({self.perceivable_regions} regions over threshold)"
        )


def jnd_report(
    approximate: np.ndarray,
    accurate: np.ndarray,
    threshold: float = JND_THRESHOLD,
) -> JndReport:
    """Compare two result vectors under the JND criterion."""
    accurate = np.asarray(accurate, dtype=np.float64)
    approximate = np.asarray(approximate, dtype=np.float64)
    finite = accurate[np.isfinite(accurate)]
    lo = float(finite.min()) if len(finite) else 0.0
    hi = float(finite.max()) if len(finite) else 1.0
    span = hi - lo if hi > lo else 1.0
    # Both vectors must be normalized with the same affine map — anything
    # else manufactures differences for constant or degenerate ranges.
    norm_acc = (accurate - lo) / span
    norm_app = (approximate - lo) / span
    diff = np.abs(norm_app - norm_acc)
    diff = diff[np.isfinite(diff)]
    if len(diff) == 0:
        return JndReport(0.0, 0.0, threshold, 0)
    return JndReport(
        max_difference=float(diff.max()),
        mean_difference=float(diff.mean()),
        threshold=threshold,
        perceivable_regions=int(np.count_nonzero(diff >= threshold)),
    )
