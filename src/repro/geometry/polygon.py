"""Simple polygons (optionally with holes) and sets of polygons.

A :class:`Polygon` stores one exterior ring plus zero or more hole rings as
``(n, 2)`` float64 arrays.  Rings are normalized on construction: exteriors
counter-clockwise, holes clockwise, no repeated closing vertex.  The raster
join engines consume polygons through :class:`PolygonSet`, which is the
"R(id, geometry)" relation of the paper's query template.

Both are immutable: a polygon copies its rings and freezes them
(``writeable = False``), so each can compute its content ``fingerprint``
once, at construction — the identity every prepared-state cache and the
artifact store key on.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidPolygonError
from repro.geometry.bbox import BBox
from repro.geometry.predicates import (
    orientation,
    point_in_polygon,
    point_on_ring_boundary,
    points_in_polygon,
    segments_intersect,
)


def _as_ring(vertices: Iterable[Sequence[float]]) -> np.ndarray:
    # A private copy: the polygon freezes its rings, never the caller's.
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    ring = np.array(vertices, dtype=np.float64)
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise InvalidPolygonError(f"ring must be (n, 2), got shape {ring.shape}")
    # Drop an explicit closing vertex; rings are implicitly closed.
    if len(ring) > 1 and np.array_equal(ring[0], ring[-1]):
        ring = ring[:-1]
    if len(ring) < 3:
        raise InvalidPolygonError(f"ring needs >= 3 distinct vertices, got {len(ring)}")
    if not np.all(np.isfinite(ring)):
        raise InvalidPolygonError("ring contains non-finite coordinates")
    return ring


def _fingerprint(polygons: Sequence["Polygon"], head: bytes = b"") -> str:
    """blake2b over ``head``, then every ring's length and coordinates."""
    digest = hashlib.blake2b(head, digest_size=16)
    for poly in polygons:
        for ring in poly.rings:
            digest.update(len(ring).to_bytes(8, "little"))
            digest.update(np.ascontiguousarray(ring, dtype="<f8").tobytes())
    return digest.hexdigest()


class Polygon:
    """A simple polygon with an exterior ring and optional hole rings.

    ``fingerprint`` is a content hash of the rings: equal geometry hashes
    equally wherever the polygon sits in whatever set, which is what
    lets an edited set adopt its unchanged polygons' prepared state.  It
    is byte-stable across platforms (coordinates as little-endian
    float64, lengths as little-endian integers), so an artifact store
    populated on one machine addresses identically on any other.
    """

    __slots__ = ("exterior", "holes", "_bbox", "fingerprint")

    def __init__(
        self,
        exterior: Iterable[Sequence[float]],
        holes: Sequence[Iterable[Sequence[float]]] = (),
    ) -> None:
        ext = _as_ring(exterior)
        if orientation(ext) == 0.0:
            raise InvalidPolygonError("exterior ring has zero area")
        # Normalize winding: exterior CCW, holes CW.  Rasterization and
        # triangulation both rely on this convention.
        if orientation(ext) < 0:
            ext = ext[::-1].copy()
        hole_rings = []
        for hole in holes:
            ring = _as_ring(hole)
            if orientation(ring) == 0.0:
                raise InvalidPolygonError("hole ring has zero area")
            if orientation(ring) > 0:
                ring = ring[::-1].copy()
            hole_rings.append(ring)
        self.exterior: np.ndarray = ext
        self.holes: tuple[np.ndarray, ...] = tuple(hole_rings)
        for ring in self.rings:
            ring.flags.writeable = False
        xs = ext[:, 0]
        ys = ext[:, 1]
        self._bbox = BBox(
            float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        )
        self.fingerprint: str = _fingerprint([self])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rings(self) -> tuple[np.ndarray, ...]:
        """All rings, exterior first."""
        return (self.exterior,) + self.holes

    @property
    def bbox(self) -> BBox:
        return self._bbox

    @property
    def num_vertices(self) -> int:
        return sum(len(r) for r in self.rings)

    @property
    def area(self) -> float:
        """Enclosed area (exterior minus holes)."""
        total = orientation(self.exterior)
        for hole in self.holes:
            total += orientation(hole)  # holes are CW, so this subtracts
        return total

    def __repr__(self) -> str:
        return (
            f"Polygon({len(self.exterior)} exterior vertices, "
            f"{len(self.holes)} holes, area={self.area:.3g})"
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, x: float, y: float) -> bool:
        """Even-odd point-in-polygon test (the paper's PIP test)."""
        if not self._bbox.contains_point(x, y) and not (
            x == self._bbox.xmax or y == self._bbox.ymax
        ):
            return False
        return point_in_polygon(x, y, self.rings)

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized PIP for many points."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        box = self._bbox
        candidate = (
            (xs >= box.xmin) & (xs <= box.xmax)
            & (ys >= box.ymin) & (ys <= box.ymax)
        )
        out = np.zeros(xs.shape, dtype=bool)
        if candidate.any():
            out[candidate] = points_in_polygon(xs[candidate], ys[candidate], self.rings)
        return out

    def on_boundary(self, x: float, y: float, tol: float = 0.0) -> bool:
        """Whether the point lies on any ring edge (within ``tol``)."""
        return any(point_on_ring_boundary(x, y, r, tol=tol) for r in self.rings)

    def is_simple(self) -> bool:
        """Check each ring for self-intersections (O(n^2) edge pairs).

        Intended for validating synthetic generators and test fixtures,
        not for hot paths.
        """
        for ring in self.rings:
            n = len(ring)
            edges = [
                (tuple(ring[i]), tuple(ring[(i + 1) % n])) for i in range(n)
            ]
            for i in range(n):
                for j in range(i + 1, n):
                    # Skip adjacent edges (they share an endpoint).
                    if j == i + 1 or (i == 0 and j == n - 1):
                        continue
                    if segments_intersect(*edges[i], *edges[j]):
                        return False
        return True

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield every boundary edge as (ax, ay, bx, by), all rings."""
        for ring in self.rings:
            n = len(ring)
            for i in range(n):
                a = ring[i]
                b = ring[(i + 1) % n]
                yield (float(a[0]), float(a[1]), float(b[0]), float(b[1]))


class PolygonSet:
    """An ordered collection of polygons with stable integer ids.

    This is the polygon relation ``R(id, geometry)`` of the paper: the raster
    join returns one aggregate slot per polygon, indexed by position.
    ``fingerprint`` hashes every ring and the polygon order (names aside),
    so any vertex edit, insertion, deletion or reordering keys anew.
    """

    __slots__ = ("polygons", "names", "_bbox", "fingerprint")

    def __init__(
        self,
        polygons: Sequence[Polygon],
        names: Sequence[str] | None = None,
    ) -> None:
        if len(polygons) == 0:
            raise InvalidPolygonError("PolygonSet needs at least one polygon")
        if names is not None and len(names) != len(polygons):
            raise InvalidPolygonError(
                f"{len(names)} names for {len(polygons)} polygons"
            )
        self.polygons: tuple[Polygon, ...] = tuple(polygons)
        self.names: tuple[str, ...] = (
            tuple(names) if names is not None
            else tuple(f"region-{i}" for i in range(len(polygons)))
        )
        box = polygons[0].bbox
        for poly in polygons[1:]:
            box = box.union(poly.bbox)
        self._bbox = box
        self.fingerprint: str = _fingerprint(
            self.polygons, len(self.polygons).to_bytes(8, "little")
        )

    def __len__(self) -> int:
        return len(self.polygons)

    def __getitem__(self, i: int) -> Polygon:
        return self.polygons[i]

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.polygons)

    @property
    def bbox(self) -> BBox:
        """Extent of the whole polygon set (the paper's w x h canvas box)."""
        return self._bbox

    @property
    def total_vertices(self) -> int:
        return sum(p.num_vertices for p in self.polygons)

    def __repr__(self) -> str:
        return (
            f"PolygonSet({len(self.polygons)} polygons, "
            f"{self.total_vertices} vertices)"
        )


def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> Polygon:
    """Axis-aligned rectangle polygon."""
    return Polygon(
        [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    )
