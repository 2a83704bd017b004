"""On-disk columnar store for larger-than-memory experiments.

The paper stores the taxi/Twitter data "as columns on disk" and, for the
Figure 13 experiments, streams it from SSD in chunks.  This module is that
substrate: one binary file per column plus a small JSON manifest, read back
through ``np.memmap`` so scans touch only the bytes they use.  The chunked
scan is the I/O path of the disk-resident benchmark; its read time is
accounted separately, mirroring the paper's processing-vs-total split.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.data.dataset import PointDataset
from repro.errors import StorageError

_MANIFEST = "manifest.json"


class ColumnStore:
    """A directory of column files with a JSON manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        manifest_path = self.root / _MANIFEST
        if not manifest_path.is_file():
            raise StorageError(f"no column store at {self.root}")
        try:
            manifest = json.loads(manifest_path.read_text())
            self.num_rows: int = int(manifest["num_rows"])
            self.name: str = manifest.get("name", self.root.name)
            self._dtypes: dict[str, np.dtype] = {
                col: np.dtype(spec) for col, spec in manifest["columns"].items()
            }
        except (KeyError, ValueError, TypeError) as exc:
            raise StorageError(f"malformed manifest in {self.root}: {exc}") from exc
        for col in self._dtypes:
            if not (self.root / f"{col}.bin").is_file():
                raise StorageError(f"missing column file {col}.bin in {self.root}")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @classmethod
    def write(cls, root: str | Path, dataset: PointDataset) -> "ColumnStore":
        """Persist a dataset: one raw binary file per column."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        columns = {"x": dataset.xs, "y": dataset.ys, **dataset.attributes}
        for col, arr in columns.items():
            arr = np.ascontiguousarray(arr)
            arr.tofile(root / f"{col}.bin")
        manifest = {
            "name": dataset.name,
            "num_rows": len(dataset),
            "columns": {col: str(arr.dtype) for col, arr in columns.items()},
        }
        (root / _MANIFEST).write_text(json.dumps(manifest, indent=2))
        return cls(root)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._dtypes)

    def column_mmap(self, name: str) -> np.ndarray:
        """Memory-map one column (no data read until touched)."""
        if name not in self._dtypes:
            raise StorageError(f"unknown column {name!r} in {self.root}")
        return np.memmap(
            self.root / f"{name}.bin",
            dtype=self._dtypes[name],
            mode="r",
            shape=(self.num_rows,),
        )

    def scan(
        self,
        rows_per_chunk: int,
        columns: tuple[str, ...] | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[PointDataset, float]]:
        """Stream the store as (chunk, read_seconds) pairs.

        Each chunk's columns are physically copied out of the memmap (the
        disk read), and the copy time is reported so the caller can account
        I/O separately from processing — the Figure 13 breakdown.
        """
        if rows_per_chunk < 1:
            raise StorageError(f"chunk size must be >= 1, got {rows_per_chunk}")
        wanted = columns or self.column_names
        for col in ("x", "y"):
            if col not in wanted:
                wanted = (col,) + tuple(wanted)
        maps = {col: self.column_mmap(col) for col in wanted}
        total = self.num_rows if limit is None else min(limit, self.num_rows)
        for start in range(0, total, rows_per_chunk):
            end = min(start + rows_per_chunk, total)
            begin = time.perf_counter()
            arrays = {col: np.array(mm[start:end]) for col, mm in maps.items()}
            read_s = time.perf_counter() - begin
            attrs = {
                c: a for c, a in arrays.items() if c not in ("x", "y")
            }
            yield PointDataset(arrays["x"], arrays["y"], attrs, name=self.name), read_s

    @property
    def disk_bytes(self) -> int:
        return sum(
            (self.root / f"{col}.bin").stat().st_size for col in self._dtypes
        )

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self.root}, {self.num_rows} rows, "
            f"columns={list(self._dtypes)})"
        )
