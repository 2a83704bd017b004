"""On-disk artifact format: one ``.npz`` + one JSON manifest per key.

A persisted :class:`~repro.cache.prepared.PreparedPolygons` is split into
two files so the cheap part (the manifest) can be read without touching
the bulk arrays:

* ``<key_id>.npz`` — every array field of the artifact, flattened into
  named NumPy arrays;
* ``<key_id>.json`` — the manifest: format version, the full cache key
  (fingerprint + render spec), which fields are present, structural
  metadata, and a checksum over the ``.npz`` bytes.

Format version 5 stores artifacts **per polygon**: each polygon's
triangulation, per-tile outline pixels, and per-tile coverage runs are
written as that polygon's slice of one concatenated array plus a
per-polygon count (``tri_*``, ``ub_<tile>_{data,counts}`` — outline
pixels as ``(ix, iy)`` rows — and ``uc_<tile>_{data,counts}`` —
coverage as ``(k, 2)`` ``[lo, hi)`` runs of flat ``iy * width + ix``
indices, the form it is held in).  On load the boundary masks are
recomposed and the edge table re-banded — the same deterministic
composition a live session performs, so a loaded artifact is
bit-identical to the one saved; the tiles' run tables and candidate
lists are left to the first tile task, which derives them from the
units and the mask.  (Version 4 held coverage as one flat index per
fragment, ~15x the bytes; version 3 also wrote a polygon grid index.
Their files are unaddressable by key and read as a miss.)  That is the
only layout, for a cold-built set and an edited one alike: a manifest
without per-polygon unit metadata fails validation like any other
corrupt pair (a miss, then a rebuild that overwrites it).

``key_id`` is a content hash of ``(FORMAT_VERSION, COORD_DTYPE,
fingerprint, spec)``: bumping the format version or changing the
canonical coordinate dtype silently invalidates every existing file by
keying new names, so no migration code is ever needed — stale files age
out through the disk budget.

Everything here is pure (bytes in, objects out); durability, atomicity,
and eviction live in :mod:`repro.store.store`.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Sequence

import numpy as np

from repro.cache.prepared import PolygonUnit, PreparedPolygons
from repro.errors import QueryError
from repro.geometry.bbox import BBox
from repro.graphics.viewport import Canvas, Viewport

#: Bump on any incompatible change to the array layout or manifest shape.
#: The version participates in the key hash, so old artifacts are never
#: even opened by a newer reader — they just stop being addressable.
FORMAT_VERSION = 5

#: Canonical coordinate dtype: little-endian float64.  Part of the key so
#: artifacts written on any platform address the same bytes.
COORD_DTYPE = "<f8"

#: Index dtype for pixel arrays.
INDEX_DTYPE = "<i8"

#: Narrow on-disk index dtype, used whenever the values fit.  Pixel
#: indices are int64 in memory but virtually never exceed 2^31, so
#: storing them as int32 halves the dominant arrays; loads widen them
#: back, making the round trip value-exact either way.
NARROW_INDEX_DTYPE = "<i4"


def _compact_indices(arr: np.ndarray) -> np.ndarray:
    """Non-negative index array in the narrowest lossless on-disk dtype."""
    arr = np.asarray(arr)
    if arr.size == 0 or int(arr.max()) < np.iinfo(np.int32).max:
        return arr.astype(NARROW_INDEX_DTYPE)
    return arr.astype(INDEX_DTYPE)


class ArtifactFormatError(QueryError):
    """A persisted artifact failed validation (corrupt, torn, or stale)."""


def _canonical_value(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def canonical_spec(spec: Sequence) -> list:
    """Render-spec values in the exact shape JSON will return them.

    Two jobs, both at the format boundary so save/hash/validate can
    never disagree: NumPy scalars (``resolution=np.int64(...)`` out of
    a parameter sweep) become their Python counterparts instead of
    crashing the manifest dump, and nested sequences become lists —
    the shape a JSON round trip produces — so a spec saved with a tuple
    in it still validates when loaded back.
    """
    return [_canonical_value(value) for value in spec]


def key_id(key: Sequence) -> str:
    """Stable file-name hash of a cache key (fingerprint + render spec).

    The hash covers the format version and canonical dtype in addition to
    the key itself, so a format bump or dtype change re-keys every
    artifact instead of misreading old bytes.
    """
    fingerprint, *spec = key
    canonical = json.dumps(
        [FORMAT_VERSION, COORD_DTYPE, fingerprint, canonical_spec(spec)],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def checksum(data: bytes) -> str:
    """Integrity digest stored in the manifest and verified on load."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArtifactFormatError(message)


# ----------------------------------------------------------------------
# Frame field helpers (canvas / tiles / MBRs)
# ----------------------------------------------------------------------
def _encode_frame(prepared: PreparedPolygons, arrays: dict,
                  manifest: dict, fields: list[str]) -> None:
    if prepared.canvas is not None:
        fields.append("canvas")
        ext = prepared.canvas.extent
        arrays["canvas_extent"] = np.asarray(
            [ext.xmin, ext.ymin, ext.xmax, ext.ymax], dtype=COORD_DTYPE
        )
        manifest["canvas"] = {
            "width": int(prepared.canvas.width),
            "height": int(prepared.canvas.height),
        }
    if prepared.tiles is not None:
        fields.append("tiles")
        arrays["tiles_bbox"] = np.asarray(
            [
                (t.bbox.xmin, t.bbox.ymin, t.bbox.xmax, t.bbox.ymax)
                for t in prepared.tiles
            ],
            dtype=COORD_DTYPE,
        ).reshape(len(prepared.tiles), 4)
        arrays["tiles_shape"] = np.asarray(
            [
                (t.width, t.height, t.x_offset, t.y_offset)
                for t in prepared.tiles
            ],
            dtype=INDEX_DTYPE,
        ).reshape(len(prepared.tiles), 4)
    if prepared.mbr_arrays is not None:
        fields.append("mbr_arrays")
        for name, arr in zip(
            ("mbr_xmin", "mbr_xmax", "mbr_ymin", "mbr_ymax"),
            prepared.mbr_arrays,
        ):
            arrays[name] = np.asarray(arr, dtype=COORD_DTYPE)


def _decode_canvas(arrays, manifest: dict) -> Canvas:
    ext = np.asarray(arrays["canvas_extent"], dtype=np.float64)
    _require(ext.shape == (4,), "bad canvas extent")
    meta = manifest["canvas"]
    return Canvas(
        BBox(float(ext[0]), float(ext[1]), float(ext[2]), float(ext[3])),
        int(meta["width"]), int(meta["height"]),
    )


def _decode_tiles(arrays) -> list[Viewport]:
    boxes = np.asarray(arrays["tiles_bbox"], dtype=np.float64)
    shapes = np.asarray(arrays["tiles_shape"], dtype=np.int64)
    _require(
        boxes.ndim == 2 and boxes.shape == (len(shapes), 4),
        "bad tile tables",
    )
    return [
        Viewport(
            BBox(*(float(v) for v in box)),
            int(w), int(h), x_offset=int(xo), y_offset=int(yo),
        )
        for box, (w, h, xo, yo) in zip(boxes, shapes)
    ]


def _decode_mbrs(arrays) -> tuple[np.ndarray, ...]:
    return tuple(
        np.asarray(arrays[name], dtype=np.float64)
        for name in ("mbr_xmin", "mbr_xmax", "mbr_ymin", "mbr_ymax")
    )


# ----------------------------------------------------------------------
# Per-polygon unit (de)serialization primitives
# ----------------------------------------------------------------------
def _encode_unit_triangles(units: Sequence[PolygonUnit], arrays: dict) -> None:
    arrays["tri_data"] = np.concatenate(
        [np.zeros((0, 3, 2))] + [unit.triangles for unit in units],
        dtype=COORD_DTYPE,
    )
    arrays["tri_counts"] = _compact_indices(
        np.asarray([len(unit.triangles) for unit in units])
    )


def _decode_unit_triangles(units: Sequence[PolygonUnit], arrays) -> None:
    data = np.asarray(arrays["tri_data"], dtype=np.float64)
    counts = np.asarray(arrays["tri_counts"], dtype=np.int64)
    _require(
        data.ndim == 3 and data.shape[1:] == (3, 2)
        and len(counts) == len(units)
        and int(counts.sum()) == len(data),
        "triangle table does not add up",
    )
    for unit, tris in zip(units, np.split(data, np.cumsum(counts)[:-1])):
        unit.triangles = tris


def _encode_pairs(parts: Sequence[np.ndarray], arrays: dict,
                  name: str) -> None:
    """One ``(k, 2)`` array per polygon — coverage runs, or outline
    pixels as ``(ix, iy)`` rows — as ``<name>_data`` (all of them
    concatenated) plus ``<name>_counts`` (rows per polygon)."""
    parts = [np.asarray(part) for part in parts]
    arrays[f"{name}_data"] = _compact_indices(
        np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    )
    arrays[f"{name}_counts"] = _compact_indices(
        np.asarray([len(part) for part in parts])
    )


def _decode_pairs(arrays, name: str, num_units: int,
                  what: str) -> list[np.ndarray]:
    """The per-polygon slices :func:`_encode_pairs` wrote (views of one
    widened array)."""
    data = np.asarray(arrays[f"{name}_data"], dtype=np.int64)
    counts = np.asarray(arrays[f"{name}_counts"], dtype=np.int64)
    _require(
        len(counts) == num_units and int(counts.sum()) == len(data)
        and data.ndim == 2 and data.shape[1] == 2,
        f"{what} table does not add up",
    )
    ends = np.cumsum(counts)
    return [data[lo:hi] for lo, hi in zip(ends - counts, ends)]


def _units_tiles(units: Sequence[PolygonUnit], kind: str) -> list[int]:
    """Tile indices every unit carries (the composable tiles)."""
    sets = [
        set(getattr(unit, kind)) for unit in units
    ]
    if not sets:
        return []
    common = set.intersection(*sets)
    return sorted(int(t) for t in common)


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------
def encode(prepared: PreparedPolygons, key: Sequence) -> tuple[dict, dict]:
    """Flatten an artifact into (named arrays, manifest) for persistence.

    Only populated fields are written; the manifest records which, so an
    artifact saved before its first tile loop (triangles, no coverage)
    round-trips as exactly that.
    """
    fingerprint, *spec = key
    arrays: dict[str, np.ndarray] = {}
    fields: list[str] = []
    manifest: dict = {
        "version": FORMAT_VERSION,
        "dtype": COORD_DTYPE,
        "fingerprint": fingerprint,
        "spec": canonical_spec(spec),
        "created": time.time(),
        "nbytes": int(prepared.nbytes),
        "fields": fields,
    }
    _encode_frame(prepared, arrays, manifest, fields)
    _encode_units(prepared, arrays, manifest, fields)
    return arrays, manifest


def _encode_units(prepared: PreparedPolygons, arrays: dict,
                  manifest: dict, fields: list[str]) -> None:
    units = prepared.units
    manifest["units"] = {
        "polygon_fps": [unit.fingerprint for unit in units],
        "bboxes": [list(unit.bbox) for unit in units],
        "source_bbox": list(prepared.source_bbox),
    }
    if all(unit.triangles is not None for unit in units):
        fields.append("triangles")
        _encode_unit_triangles(units, arrays)
    if prepared.edge_table is not None:
        # Derived, so only its one parameter is written.
        manifest["edge_rows"] = int(prepared.edge_table.rows)
    boundary_tiles = _units_tiles(units, "boundary")
    if boundary_tiles:
        fields.append("boundary_masks")
        manifest["boundary_tiles"] = boundary_tiles
        for idx in boundary_tiles:
            _encode_pairs([np.column_stack(unit.boundary[idx])
                           for unit in units], arrays, f"ub_{idx}")
    coverage_tiles = _units_tiles(units, "coverage")
    if coverage_tiles:
        fields.append("coverage")
        manifest["coverage_tiles"] = coverage_tiles
        for idx in coverage_tiles:
            _encode_pairs(
                [unit.coverage[idx] for unit in units], arrays, f"uc_{idx}"
            )


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
def validate_manifest(manifest: dict, key: Sequence) -> None:
    """Reject manifests from another format version or a different key."""
    _require(isinstance(manifest, dict), "manifest is not an object")
    _require(
        manifest.get("version") == FORMAT_VERSION,
        f"format version {manifest.get('version')!r} != {FORMAT_VERSION}",
    )
    _require(manifest.get("dtype") == COORD_DTYPE, "coordinate dtype mismatch")
    fingerprint, *spec = key
    _require(
        manifest.get("fingerprint") == fingerprint
        and manifest.get("spec") == canonical_spec(spec),
        "manifest key does not match the requested key",
    )


def decode(arrays, manifest: dict, polygons, key: Sequence) -> PreparedPolygons:
    """Rebuild a :class:`PreparedPolygons` from persisted arrays.

    ``polygons`` is the live polygon set the caller is querying with —
    the units' bounding boxes and the edge table's rings come from it,
    never from disk (the fingerprint in the key guarantees
    the caller's geometry is the geometry the artifact was built from).
    The per-polygon slices are decoded into the units and the set-level
    views are then composed exactly as a live session composes them
    after a build — OR the outline pixels into boundary masks, band the
    edge table — so the result is bit-identical to the artifact that was
    saved.  (The run tables and candidate lists are left to the first
    tile task, which derives them from the units' runs and the mask.)
    """
    meta_units = manifest.get("units")
    _require(isinstance(meta_units, dict), "manifest lacks unit metadata")
    _require(
        len(meta_units.get("polygon_fps", ()))
        == len(meta_units.get("bboxes", ())) == len(polygons),
        "stored units do not match the polygon set",
    )
    prepared = PreparedPolygons(polygons, tuple(key))
    units = prepared.units
    fields = set(manifest.get("fields", ()))
    if "canvas" in fields:
        prepared.canvas = _decode_canvas(arrays, manifest)
    if "tiles" in fields:
        prepared.tiles = _decode_tiles(arrays)
    if "mbr_arrays" in fields:
        prepared.mbr_arrays = _decode_mbrs(arrays)
    if "triangles" in fields:
        _decode_unit_triangles(units, arrays)
        prepared.triangles = [unit.triangles for unit in units]
    if "edge_rows" in manifest:
        # Derived like a live prepare derives it, so the loaded artifact
        # measures what the saved one did.
        prepared.ensure_edge_table(polygons, int(manifest["edge_rows"]))
    if "boundary_masks" in fields:
        _require(prepared.tiles is not None,
                 "boundary pixels without tile layout")
        for idx in map(int, manifest.get("boundary_tiles", ())):
            _require(0 <= idx < len(prepared.tiles),
                     "boundary tile out of range")
            for unit, pixels in zip(units, _decode_pairs(
                arrays, f"ub_{idx}", len(units), "boundary pixel"
            )):
                unit.boundary[idx] = (pixels[:, 0], pixels[:, 1])
            prepared.mark_composed(idx, boundary=prepared.compose_boundary(
                prepared.tiles[idx], prepared.unit_slices("boundary", idx)
            ))
    if "coverage" in fields:
        for idx in map(int, manifest.get("coverage_tiles", ())):
            prepared.mark_composed(idx, unit_coverage=dict(enumerate(
                _decode_pairs(arrays, f"uc_{idx}", len(units), "coverage")
            )))
    return prepared
