"""On-disk artifact format: one ``.npz`` + one JSON manifest per key.

A persisted :class:`~repro.cache.prepared.PreparedPolygons` is split into
two files so the cheap part (the manifest) can be read without touching
the bulk arrays:

* ``<key_id>.npz`` — every array field of the artifact, flattened into
  named NumPy arrays;
* ``<key_id>.json`` — the manifest: format version, the full cache key
  (fingerprint + render spec), which fields are present, structural
  metadata, and a checksum over the ``.npz`` bytes.

Format version 3 stores artifacts **per polygon**: each polygon's
triangulation, grid-cell list, per-tile outline pixels, and per-tile
coverage pixels are written as that polygon's slice of one concatenated
array plus a per-polygon count (``tri_*``, ``cells_*``, ``ub_<tile>_*``,
``uc_<tile>_{data,counts}`` — coverage as flat ``iy * width + ix``
indices, the form it is held in), and the set-level views the engines
consume (CSR grid, boundary masks, coverage records) are *recomposed* on
load — the same deterministic composition a live session performs, so a
loaded artifact is bit-identical to the one saved.  (Version 2 wrote
coverage as ``(iy, ix)`` pairs per triangle piece; its files are
unaddressable by key and read as a miss.)  The per-polygon layout is
what makes
**patch records** possible: an edited set persists as a small journal
record carrying only the changed polygons' arrays plus a mapping onto
its parent (see :func:`encode_patch` / :func:`apply_patch` and
``docs/incremental_edits.md``), instead of rewriting the whole pair.
That is the only layout: a manifest without per-polygon unit metadata
fails validation like any other corrupt pair (a miss, then a rebuild
that overwrites it).

``key_id`` is a content hash of ``(FORMAT_VERSION, COORD_DTYPE,
fingerprint, spec)``: bumping the format version or changing the
canonical coordinate dtype silently invalidates every existing file by
keying new names, so no migration code is ever needed — stale files age
out through the disk budget.

Everything here is pure (bytes in, objects out); durability, atomicity,
journal framing, and eviction live in :mod:`repro.store.store`.
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
from repro.index.grid import GridIndex

#: Bump on any incompatible change to the array layout or manifest shape.
#: The version participates in the key hash, so old artifacts are never
#: even opened by a newer reader — they just stop being addressable.
FORMAT_VERSION = 3

#: Canonical coordinate dtype: little-endian float64.  Part of the key so
#: artifacts written on any platform address the same bytes.
COORD_DTYPE = "<f8"

#: Index dtype for pixel/CSR arrays.
INDEX_DTYPE = "<i8"

#: Narrow on-disk index dtype, used whenever the values fit.  Pixel and
#: cell indices are int64 in memory but virtually never exceed 2^31, so
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
def _encode_unit_triangles(units: Sequence[PolygonUnit], arrays: dict,
                           prefix: str = "") -> None:
    flat = [
        np.asarray(tri, dtype=COORD_DTYPE)
        for unit in units
        for tri in unit.triangles
    ]
    arrays[f"{prefix}tri_data"] = (
        np.stack(flat) if flat else np.zeros((0, 3, 2), dtype=COORD_DTYPE)
    )
    arrays[f"{prefix}tri_counts"] = _compact_indices(
        np.asarray([len(unit.triangles) for unit in units])
    )


def _decode_unit_triangles(units: Sequence[PolygonUnit], arrays,
                           prefix: str = "") -> None:
    data = np.asarray(arrays[f"{prefix}tri_data"], dtype=np.float64)
    counts = np.asarray(arrays[f"{prefix}tri_counts"], dtype=np.int64)
    _require(
        data.ndim == 3 and data.shape[1:] == (3, 2)
        and len(counts) == len(units)
        and int(counts.sum()) == len(data),
        "triangle table does not add up",
    )
    cursor = 0
    for unit, count in zip(units, counts):
        unit.triangles = [data[cursor + k] for k in range(int(count))]
        cursor += int(count)


def _encode_ragged(parts: Sequence[np.ndarray], arrays: dict,
                   name: str) -> None:
    """One index array per polygon, as ``<name>_data`` (all of them
    concatenated) plus ``<name>_counts`` (entries per polygon)."""
    parts = [np.asarray(part) for part in parts]
    arrays[f"{name}_data"] = _compact_indices(
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    )
    arrays[f"{name}_counts"] = _compact_indices(
        np.asarray([len(part) for part in parts])
    )


def _decode_ragged(arrays, name: str, num_units: int,
                   what: str) -> list[np.ndarray]:
    """The per-polygon slices :func:`_encode_ragged` wrote (views of one
    widened array)."""
    data = np.asarray(arrays[f"{name}_data"], dtype=np.int64)
    counts = np.asarray(arrays[f"{name}_counts"], dtype=np.int64)
    _require(
        len(counts) == num_units and int(counts.sum()) == len(data),
        f"{what} table does not add up",
    )
    ends = np.cumsum(counts)
    return [data[lo:hi] for lo, hi in zip(ends - counts, ends)]


def _encode_unit_cells(units: Sequence[PolygonUnit], arrays: dict,
                       prefix: str = "") -> None:
    _encode_ragged([unit.cells for unit in units], arrays, f"{prefix}cells")


def _decode_unit_cells(units: Sequence[PolygonUnit], arrays,
                       prefix: str = "") -> None:
    for unit, cells in zip(units, _decode_ragged(
        arrays, f"{prefix}cells", len(units), "grid cell"
    )):
        unit.cells = cells


def _encode_unit_boundary(units: Sequence[PolygonUnit], tile_idx: int,
                          arrays: dict, prefix: str = "") -> None:
    ixs = [np.asarray(unit.boundary[tile_idx][0]) for unit in units]
    iys = [np.asarray(unit.boundary[tile_idx][1]) for unit in units]
    arrays[f"{prefix}ub_{tile_idx}_ix"] = _compact_indices(
        np.concatenate(ixs) if ixs else np.zeros(0, dtype=np.int64)
    )
    arrays[f"{prefix}ub_{tile_idx}_iy"] = _compact_indices(
        np.concatenate(iys) if iys else np.zeros(0, dtype=np.int64)
    )
    arrays[f"{prefix}ub_{tile_idx}_counts"] = _compact_indices(
        np.asarray([len(ix) for ix in ixs])
    )


def _decode_unit_boundary(units: Sequence[PolygonUnit], tile_idx: int,
                          arrays, prefix: str = "") -> None:
    ix = np.asarray(arrays[f"{prefix}ub_{tile_idx}_ix"], dtype=np.int64)
    iy = np.asarray(arrays[f"{prefix}ub_{tile_idx}_iy"], dtype=np.int64)
    counts = np.asarray(
        arrays[f"{prefix}ub_{tile_idx}_counts"], dtype=np.int64
    )
    _require(
        len(counts) == len(units)
        and int(counts.sum()) == len(ix) == len(iy),
        "boundary pixel table does not add up",
    )
    cursor = 0
    for unit, count in zip(units, counts):
        unit.boundary[tile_idx] = (
            ix[cursor:cursor + int(count)],
            iy[cursor:cursor + int(count)],
        )
        cursor += int(count)


def _encode_unit_coverage(units: Sequence[PolygonUnit], tile_idx: int,
                          arrays: dict, prefix: str = "") -> None:
    _encode_ragged(
        [unit.coverage[tile_idx] for unit in units], arrays,
        f"{prefix}uc_{tile_idx}",
    )


def _decode_unit_coverage(units: Sequence[PolygonUnit], tile_idx: int,
                          arrays, prefix: str = "") -> None:
    for unit, pixels in zip(units, _decode_ragged(
        arrays, f"{prefix}uc_{tile_idx}", len(units), "coverage"
    )):
        unit.coverage[tile_idx] = pixels


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

    Only populated fields are written; the manifest records which, so a
    partial artifact (triangles + grid, no coverage) round-trips as
    exactly that partial artifact.
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
        "polygon_fps": list(prepared.polygon_fps),
        "bboxes": [list(unit.bbox) for unit in units],
        "source_bbox": (
            list(prepared.source_bbox)
            if prepared.source_bbox is not None else None
        ),
    }
    if all(unit.triangles is not None for unit in units):
        fields.append("triangles")
        _encode_unit_triangles(units, arrays)
    if prepared.grid is not None and all(
        unit.cells is not None for unit in units
    ):
        fields.append("grid")
        grid = prepared.grid
        ext = grid.extent
        _encode_unit_cells(units, arrays)
        arrays["grid_extent"] = np.asarray(
            [ext.xmin, ext.ymin, ext.xmax, ext.ymax], dtype=COORD_DTYPE
        )
        manifest["grid"] = {
            "resolution": int(grid.resolution),
            "assignment": grid.assignment,
        }
    boundary_tiles = _units_tiles(units, "boundary")
    if boundary_tiles:
        fields.append("boundary_masks")
        manifest["boundary_tiles"] = boundary_tiles
        for idx in boundary_tiles:
            _encode_unit_boundary(units, idx, arrays)
    coverage_tiles = _units_tiles(units, "coverage")
    if coverage_tiles:
        fields.append("coverage")
        manifest["coverage_tiles"] = coverage_tiles
        for idx in coverage_tiles:
            _encode_unit_coverage(units, idx, arrays)


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


def decode_units_state(
    arrays, manifest: dict
) -> tuple[list[PolygonUnit], dict]:
    """Rebuild the per-polygon units and frame metadata — polygon-free.

    This is the journal-replayable half of a load: everything here is
    pure array data, so patch records can be applied to the result
    without the (intermediate) polygon sets in hand.  The final
    :func:`compose_from_units` step needs the live polygons only for the
    grid index's object references.
    """
    meta_units = manifest.get("units")
    _require(isinstance(meta_units, dict), "manifest lacks unit metadata")
    fps = list(meta_units.get("polygon_fps", ()))
    bboxes = meta_units.get("bboxes", ())
    _require(len(fps) == len(bboxes), "unit fingerprint/bbox mismatch")
    units = [
        PolygonUnit(fp, tuple(float(v) for v in bbox))
        for fp, bbox in zip(fps, bboxes)
    ]
    fields = set(manifest.get("fields", ()))
    meta: dict = {
        "fields": list(manifest.get("fields", ())),
        "polygon_fps": fps,
        "source_bbox": (
            tuple(float(v) for v in meta_units["source_bbox"])
            if meta_units.get("source_bbox") is not None else None
        ),
        "canvas": None,
        "tiles": None,
        "grid": None,
        "mbr_arrays": None,
    }
    if "canvas" in fields:
        meta["canvas"] = _decode_canvas(arrays, manifest)
    if "tiles" in fields:
        meta["tiles"] = _decode_tiles(arrays)
    if "mbr_arrays" in fields:
        meta["mbr_arrays"] = _decode_mbrs(arrays)
    if "triangles" in fields:
        _decode_unit_triangles(units, arrays)
    if "grid" in fields:
        grid_meta = manifest["grid"]
        ext = np.asarray(arrays["grid_extent"], dtype=np.float64)
        _require(ext.shape == (4,), "bad grid extent")
        _decode_unit_cells(units, arrays)
        meta["grid"] = {
            "resolution": int(grid_meta["resolution"]),
            "assignment": grid_meta["assignment"],
            "extent": BBox(
                float(ext[0]), float(ext[1]), float(ext[2]), float(ext[3])
            ),
        }
    if "boundary_masks" in fields:
        for idx in manifest.get("boundary_tiles", ()):
            _decode_unit_boundary(units, int(idx), arrays)
    if "coverage" in fields:
        for idx in manifest.get("coverage_tiles", ()):
            _decode_unit_coverage(units, int(idx), arrays)
    return units, meta


def compose_from_units(
    units: list[PolygonUnit], meta: dict, polygons, key: Sequence
) -> PreparedPolygons:
    """Assemble the engine-consumed artifact from per-polygon units.

    Runs the same composition the live session performs after a build —
    OR the outline pixels into boundary masks, lay the coverage slices
    end to end, scatter the grid CSR, band the edge table — so the
    result is bit-identical to the artifact that was saved.
    """
    _require(
        len(units) == len(polygons),
        "stored units do not match the polygon set",
    )
    prepared = PreparedPolygons(polygons, tuple(key), meta["polygon_fps"])
    prepared.units = units
    prepared.canvas = meta["canvas"]
    prepared.tiles = meta["tiles"]
    prepared.mbr_arrays = meta["mbr_arrays"]
    if all(unit.triangles is not None for unit in units):
        prepared.triangles = [unit.triangles for unit in units]
    grid_meta = meta["grid"]
    if grid_meta is not None and all(
        unit.cells is not None for unit in units
    ):
        prepared.grid = GridIndex.from_cells(
            polygons,
            [unit.cells for unit in units],
            resolution=grid_meta["resolution"],
            assignment=grid_meta["assignment"],
            extent=grid_meta["extent"],
        )
        prepared.grid.build_seconds = 0.0  # nothing was rebuilt
        # Derived with the grid, like a live prepare, so the loaded
        # artifact measures what the saved one did.
        prepared.ensure_edge_table(polygons)
    boundary_tiles = _units_tiles(units, "boundary")
    if boundary_tiles:
        _require(prepared.tiles is not None,
                 "boundary pixels without tile layout")
        for idx in boundary_tiles:
            _require(0 <= idx < len(prepared.tiles),
                     "boundary tile out of range")
            prepared.mark_composed(idx, boundary=prepared.compose_boundary(
                idx, prepared.tiles[idx]
            ))
    for idx in _units_tiles(units, "coverage"):
        prepared.mark_composed(idx, coverage=prepared.compose_coverage(idx))
    return prepared


def decode(arrays, manifest: dict, polygons, key: Sequence) -> PreparedPolygons:
    """Rebuild a :class:`PreparedPolygons` from persisted arrays.

    ``polygons`` is the live polygon set the caller is querying with —
    the grid index references polygon objects, which are never persisted
    (the fingerprint in the key guarantees the caller's geometry is the
    geometry the artifact was built from).
    """
    units, meta = decode_units_state(arrays, manifest)
    return compose_from_units(units, meta, polygons, key)


# ----------------------------------------------------------------------
# Patch records (per-polygon edits, journaled by the store)
# ----------------------------------------------------------------------
def encode_patch(prepared: PreparedPolygons, key: Sequence) -> tuple[dict, dict]:
    """Flatten a delta-derived artifact into (arrays, header).

    The arrays carry **only the rebuilt polygons'** unit state; the
    header records how every polygon of the new set maps onto the parent
    artifact (``parent_map``), so replay clones the unchanged units from
    the parent and decodes just the dirty ones.  Raises
    :class:`ArtifactFormatError` when the artifact has no delta
    provenance.
    """
    _require(
        prepared.delta_parent is not None
        and prepared.parent_map is not None,
        "artifact has no delta provenance to patch from",
    )
    fingerprint, *spec = key
    dirty = list(prepared.delta_dirty or ())
    dirty_units = [prepared.units[pid] for pid in dirty]
    header: dict = {
        "version": FORMAT_VERSION,
        "dtype": COORD_DTYPE,
        "type": "patch",
        "fingerprint": fingerprint,
        "spec": canonical_spec(spec),
        "parent_fingerprint": prepared.delta_parent[0],
        "parent_map": list(prepared.parent_map),
        "dirty": dirty,
        "polygon_fps": list(prepared.polygon_fps),
        "bboxes": [list(prepared.units[pid].bbox) for pid in dirty],
        "source_bbox": (
            list(prepared.source_bbox)
            if prepared.source_bbox is not None else None
        ),
        "created": time.time(),
        "nbytes": int(prepared.nbytes),
        "fields": _effective_fields(prepared),
    }
    arrays: dict[str, np.ndarray] = {}
    if dirty_units and all(u.triangles is not None for u in dirty_units):
        header["has_triangles"] = True
        _encode_unit_triangles(dirty_units, arrays, prefix="d_")
    if (
        prepared.grid is not None
        and dirty_units
        and all(u.cells is not None for u in dirty_units)
    ):
        ext = prepared.grid.extent
        header["grid"] = {
            "resolution": int(prepared.grid.resolution),
            "assignment": prepared.grid.assignment,
            "extent": [ext.xmin, ext.ymin, ext.xmax, ext.ymax],
        }
        _encode_unit_cells(dirty_units, arrays, prefix="d_")
    boundary_tiles = (
        _units_tiles(dirty_units, "boundary") if dirty_units
        else _units_tiles(prepared.units, "boundary")
    )
    header["boundary_tiles"] = boundary_tiles
    for idx in boundary_tiles if dirty_units else []:
        _encode_unit_boundary(dirty_units, idx, arrays, prefix="d_")
    coverage_tiles = (
        _units_tiles(dirty_units, "coverage") if dirty_units
        else _units_tiles(prepared.units, "coverage")
    )
    header["coverage_tiles"] = coverage_tiles
    for idx in coverage_tiles if dirty_units else []:
        _encode_unit_coverage(dirty_units, idx, arrays, prefix="d_")
    return arrays, header


def _effective_fields(prepared: PreparedPolygons) -> list[str]:
    """The field list :func:`encode` would record for this artifact."""
    fields: list[str] = []
    if prepared.canvas is not None:
        fields.append("canvas")
    if prepared.tiles is not None:
        fields.append("tiles")
    if prepared.mbr_arrays is not None:
        fields.append("mbr_arrays")
    units = prepared.units
    if units and all(u.triangles is not None for u in units):
        fields.append("triangles")
    if prepared.grid is not None and units and all(
        u.cells is not None for u in units
    ):
        fields.append("grid")
    if _units_tiles(units, "boundary"):
        fields.append("boundary_masks")
    if _units_tiles(units, "coverage"):
        fields.append("coverage")
    return fields


def apply_patch(
    parent_units: list[PolygonUnit],
    parent_meta: dict,
    header: dict,
    arrays,
) -> tuple[list[PolygonUnit], dict]:
    """Apply one journal record to a (units, meta) state.

    Clones the unchanged units per ``parent_map`` and decodes the dirty
    ones from the record's arrays.  Pure array work — no polygon
    objects, so a whole chain replays before the final composition.
    """
    parent_map = header.get("parent_map", ())
    dirty = list(header.get("dirty", ()))
    fps = list(header.get("polygon_fps", ()))
    _require(len(parent_map) == len(fps), "patch header tables disagree")
    if header.get("source_bbox") is not None and (
        parent_meta.get("source_bbox") is not None
    ):
        _require(
            tuple(float(v) for v in header["source_bbox"])
            == tuple(parent_meta["source_bbox"]),
            "patch frame does not match the parent artifact",
        )
    dirty_bboxes = header.get("bboxes", ())
    _require(len(dirty_bboxes) == len(dirty), "patch bbox table disagrees")
    dirty_units = [
        PolygonUnit(fps[pid], tuple(float(v) for v in bbox))
        for pid, bbox in zip(dirty, dirty_bboxes)
    ]
    if header.get("has_triangles"):
        _decode_unit_triangles(dirty_units, arrays, prefix="d_")
    grid_meta = header.get("grid")
    meta = dict(parent_meta)
    meta["polygon_fps"] = fps
    if grid_meta is not None:
        _decode_unit_cells(dirty_units, arrays, prefix="d_")
        ext = grid_meta["extent"]
        meta["grid"] = {
            "resolution": int(grid_meta["resolution"]),
            "assignment": grid_meta["assignment"],
            "extent": BBox(
                float(ext[0]), float(ext[1]), float(ext[2]), float(ext[3])
            ),
        }
    for idx in header.get("boundary_tiles", ()) if dirty_units else []:
        _decode_unit_boundary(dirty_units, int(idx), arrays, prefix="d_")
    for idx in header.get("coverage_tiles", ()) if dirty_units else []:
        _decode_unit_coverage(dirty_units, int(idx), arrays, prefix="d_")
    units: list[PolygonUnit] = []
    cursor = 0
    for pid, src in enumerate(parent_map):
        if src >= 0:
            _require(src < len(parent_units), "patch parent id out of range")
            units.append(parent_units[src].clone())
        else:
            _require(cursor < len(dirty_units), "patch dirty table short")
            units.append(dirty_units[cursor])
            cursor += 1
    _require(cursor == len(dirty_units), "patch dirty table long")
    # MBR columns are a cheap pure function of the live polygons; a
    # patched state drops them rather than splicing (ensure_mbr_arrays
    # rebuilds bit-identically on first use).
    meta["mbr_arrays"] = None
    meta["fields"] = [f for f in header.get("fields", ()) if f != "mbr_arrays"]
    return units, meta


# ----------------------------------------------------------------------
# Aggregate pyramids (repro.cache.pyramid) — a second artifact type
# sharing the pair layout, keyed by *point* content instead of polygons
# ----------------------------------------------------------------------
def encode_pyramid(pyramid, key: Sequence) -> tuple[dict, dict]:
    """(arrays, manifest) for an :class:`~repro.cache.pyramid.AggregatePyramid`.

    Only level 0 of each channel is stored — the coarser levels are a
    pure deterministic reduction and rebuild on load
    (:meth:`~repro.cache.pyramid.AggregatePyramid.install_channel`), so
    persisting them would roughly double the payload to save no work
    worth timing.  ``key`` is ``(point content fingerprint, *grid-frame
    token)``; the manifest records it like the polygon artifacts do.
    """
    fingerprint, *spec = key
    arrays: dict = {
        "pyr_point_order": _compact_indices(pyramid.point_order),
        "pyr_cell_start": np.asarray(pyramid.cell_start, dtype=INDEX_DTYPE),
    }
    channels = []
    for idx, ((kind, column), level0) in enumerate(
        sorted(pyramid.level_zero().items(), key=lambda kv: (
            kv[0][0], kv[0][1] or ""
        ))
    ):
        arrays[f"pyr_ch_{idx}"] = np.asarray(level0, dtype=COORD_DTYPE)
        channels.append([kind, column])
    manifest = {
        "version": FORMAT_VERSION,
        "dtype": COORD_DTYPE,
        "type": "pyramid",
        "fingerprint": fingerprint,
        "spec": canonical_spec(spec),
        "extent": [float(v) for v in pyramid.extent],
        "resolution": int(pyramid.resolution),
        "num_points": int(pyramid.num_points),
        "channels": channels,
    }
    return arrays, manifest


def validate_pyramid_manifest(manifest: dict, key: Sequence) -> None:
    """:func:`validate_manifest` plus the pyramid type tag."""
    validate_manifest(manifest, key)
    _require(manifest.get("type") == "pyramid", "not a pyramid artifact")


def decode_pyramid(arrays, manifest: dict):
    """Rebuild a pyramid from a validated pair (upper levels re-derived)."""
    from repro.cache.pyramid import AggregatePyramid

    resolution = int(manifest["resolution"])
    num_cells = resolution * resolution
    cell_start = np.asarray(arrays["pyr_cell_start"], dtype=np.int64)
    _require(
        cell_start.shape == (num_cells + 1,), "pyramid cell_start shape"
    )
    point_order = np.asarray(arrays["pyr_point_order"], dtype=np.int64)
    _require(
        len(point_order) == int(cell_start[-1]), "pyramid point_order length"
    )
    pyramid = AggregatePyramid(
        tuple(float(v) for v in manifest["extent"]),
        resolution,
        int(manifest["num_points"]),
        point_order,
        cell_start,
    )
    for idx, (kind, column) in enumerate(manifest.get("channels", ())):
        level0 = np.asarray(arrays[f"pyr_ch_{idx}"], dtype=np.float64)
        _require(
            level0.shape == (resolution, resolution),
            "pyramid channel shape",
        )
        pyramid.install_channel(str(kind), column, level0)
    return pyramid
