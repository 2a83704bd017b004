"""Unit tests for the on-disk column store."""

import json

import numpy as np
import pytest

from repro.data.column_store import ColumnStore
from repro.data.dataset import PointDataset
from repro.errors import StorageError


@pytest.fixture
def dataset(rng):
    n = 1000
    return PointDataset(
        rng.uniform(0, 10, n),
        rng.uniform(0, 10, n),
        {"fare": rng.uniform(1, 30, n).astype(np.float32)},
        name="trips",
    )


class TestWriteRead:
    def test_round_trip(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        assert store.num_rows == 1000
        assert set(store.column_names) == {"x", "y", "fare"}
        back = store.column_mmap("x")
        assert np.array_equal(np.asarray(back), dataset.xs)

    def test_dtype_preserved(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        assert store.column_mmap("fare").dtype == np.float32

    def test_missing_store(self, tmp_path):
        with pytest.raises(StorageError):
            ColumnStore(tmp_path / "nowhere")

    def test_corrupt_manifest(self, tmp_path, dataset):
        root = tmp_path / "s"
        ColumnStore.write(root, dataset)
        (root / "manifest.json").write_text(json.dumps({"bogus": 1}))
        with pytest.raises(StorageError):
            ColumnStore(root)

    def test_missing_column_file(self, tmp_path, dataset):
        root = tmp_path / "s"
        ColumnStore.write(root, dataset)
        (root / "fare.bin").unlink()
        with pytest.raises(StorageError):
            ColumnStore(root)

    def test_unknown_column(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        with pytest.raises(StorageError):
            store.column_mmap("bogus")

    def test_disk_bytes(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        assert store.disk_bytes == 1000 * (8 + 8 + 4)


class TestScan:
    def test_chunks_cover_all_rows(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        chunks = list(store.scan(rows_per_chunk=300))
        assert [len(c) for c, _ in chunks] == [300, 300, 300, 100]
        rebuilt = np.concatenate([c.xs for c, _ in chunks])
        assert np.array_equal(rebuilt, dataset.xs)

    def test_scan_column_subset_always_has_locations(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        chunk, _ = next(store.scan(100, columns=("fare",)))
        assert len(chunk.xs) == 100
        assert "fare" in chunk.attributes

    def test_scan_limit(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        total = sum(len(c) for c, _ in store.scan(300, limit=650))
        assert total == 650

    def test_read_seconds_reported(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        for _, read_s in store.scan(500):
            assert read_s >= 0.0

    def test_invalid_chunk_size(self, tmp_path, dataset):
        store = ColumnStore.write(tmp_path / "s", dataset)
        with pytest.raises(StorageError):
            list(store.scan(0))
