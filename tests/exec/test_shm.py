"""Unit tests for the shared-memory data plane (repro.exec.shm).

The contract under test: segments are refcounted leases owned by the
creating process and unlinked exactly once (no ``/dev/shm`` leaks, no
double-unlink), descriptors rehydrate zero-copy in any process, chunks
pickle as descriptors only, and the partition cache's byte accounting
counts each shared segment once however many chunks alias it.
"""

import glob
import pickle

import numpy as np
import pytest

from repro.data.dataset import PointDataset
from repro.exec import shm
from repro.exec.partition import route_chunk
from repro.geometry.bbox import BBox
from repro.graphics.viewport import Canvas
from repro.exec.shm import (
    SHM_PREFIX,
    SegmentCache,
    ShmArray,
    ShmChunk,
    export_arrays,
)


def export_chunk(points, columns=("x", "y", "val")):
    return export_arrays({name: points.column(name) for name in columns})


def _segment_file(name: str) -> bool:
    return bool(glob.glob(f"/dev/shm/{name}"))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test starts and ends with an empty registry."""
    before = shm.REGISTRY.live_segments()
    yield
    assert shm.REGISTRY.live_segments() == before, (
        "test leaked shared-memory segments"
    )


class TestShmArray:
    def test_nbytes(self):
        ref = ShmArray("seg", "<f8", (4, 3), 64)
        assert ref.nbytes == 4 * 3 * 8

    def test_descriptor_is_picklable(self):
        ref = ShmArray("seg", "<i4", (7,), 0)
        assert pickle.loads(pickle.dumps(ref)) == ref


class TestRegistry:
    def test_create_names_carry_prefix_and_unlink_on_release(self):
        name, _ = shm.REGISTRY.create(128)
        assert name.startswith(SHM_PREFIX)
        assert _segment_file(name)
        shm.REGISTRY.release(name)
        assert not _segment_file(name)

    def test_refcounted_release(self):
        name, _ = shm.REGISTRY.create(64)
        shm.REGISTRY.retain(name)
        shm.REGISTRY.release(name)
        assert _segment_file(name), "segment unlinked with a lease live"
        shm.REGISTRY.release(name)
        assert not _segment_file(name)

    def test_release_of_unknown_name_is_a_noop(self):
        shm.REGISTRY.release("repro-shm-never-created")

    def test_export_array_roundtrip(self):
        data = np.arange(20, dtype=np.float64).reshape(4, 5)
        ref = shm.REGISTRY.export_array(data)
        out = shm.view(ref)
        np.testing.assert_array_equal(out, data)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
        shm.REGISTRY.release(ref.segment)

    def test_writable_view_is_shared(self):
        ref = shm.REGISTRY.export_array(np.zeros(8))
        shm.view(ref, writable=True)[:] = 7.0
        np.testing.assert_array_equal(shm.view(ref), np.full(8, 7.0))
        shm.REGISTRY.release(ref.segment)

    def test_export_bytes_roundtrip(self):
        blob = b"prepared-state-blob"
        ref = shm.REGISTRY.export_bytes(blob)
        assert bytes(memoryview(shm.view(ref))) == blob
        shm.REGISTRY.release(ref.segment)

    def test_export_columns_packs_one_aligned_segment(self):
        cols = {
            "x": np.arange(11, dtype=np.float64),
            "flag": np.arange(11, dtype=np.int8),
            "y": np.arange(11, dtype=np.float64) * 2,
        }
        refs = shm.REGISTRY.export_columns(cols)
        segments = {ref.segment for ref in refs.values()}
        assert len(segments) == 1, "columns must share one segment"
        for ref in refs.values():
            assert ref.offset % 64 == 0
        for name, arr in cols.items():
            np.testing.assert_array_equal(shm.view(refs[name]), arr)
        shm.REGISTRY.release(segments.pop())

    def test_live_bytes_tracks_segments(self):
        assert shm.REGISTRY.live_bytes() == 0
        ref = shm.REGISTRY.export_array(np.zeros(1024))
        assert shm.REGISTRY.live_bytes() >= 8192
        shm.REGISTRY.release(ref.segment)
        assert shm.REGISTRY.live_bytes() == 0


class TestShmChunk:
    @pytest.fixture
    def points(self, rng):
        n = 500
        return PointDataset(
            rng.uniform(0, 100, n), rng.uniform(0, 100, n),
            {"val": rng.uniform(0, 1, n)},
        )

    def test_export_chunk_roundtrip(self, points):
        chunk = export_chunk(points)
        assert len(chunk) == len(points)
        assert tuple(chunk.refs) == ("x", "y", "val")
        assert len(chunk.segments) == 1
        for col in ("x", "y", "val"):
            np.testing.assert_array_equal(
                chunk.column(col), points.column(col)
            )
        chunk.release()

    def test_chunk_pickles_as_descriptors_only(self, points):
        chunk = export_chunk(points)
        clone = pickle.loads(pickle.dumps(chunk))
        # The clone resolves the same segments (owner-side here), but
        # holds no lease: releasing it must not unlink anything.
        np.testing.assert_array_equal(clone.column("x"), points.xs)
        clone.release()
        assert _segment_file(chunk.segments[0])
        np.testing.assert_array_equal(chunk.column("y"), points.ys)
        chunk.release()

    def test_release_is_idempotent(self, points):
        chunk = export_chunk(points)
        chunk.release()
        chunk.release()

    def test_gc_releases_the_lease(self, points):
        import gc

        chunk = export_chunk(points)
        name = chunk.segments[0]
        del chunk
        gc.collect()
        assert not _segment_file(name), "dropped chunk leaked its segment"

    def test_column_subset_export(self, points):
        chunk = export_chunk(points, columns=("x", "y"))
        assert tuple(chunk.refs) == ("x", "y")
        assert sum(ref.nbytes for ref in chunk.refs.values()) == (
            points.xs.nbytes + points.ys.nbytes
        )
        chunk.release()


class TestSegmentCache:
    def test_attach_once_then_reuse(self):
        ref = shm.REGISTRY.export_array(np.arange(16, dtype=np.int64))
        cache = SegmentCache()
        a = cache.buffer(ref.segment)
        b = cache.buffer(ref.segment)
        assert a.obj is b.obj, "second lookup must reuse the mapping"
        np.testing.assert_array_equal(
            np.frombuffer(a, dtype=np.int64), np.arange(16)
        )
        cache.close()
        shm.REGISTRY.release(ref.segment)

    def test_byte_bounded_lru_keeps_most_recent(self):
        refs = [
            shm.REGISTRY.export_array(np.zeros(1024)) for _ in range(3)
        ]
        cache = SegmentCache(byte_cap=2 * 8192)
        for ref in refs:
            cache.buffer(ref.segment)
        assert refs[0].segment not in cache._segments, "LRU did not evict"
        assert refs[2].segment in cache._segments
        cache.close()
        for ref in refs:
            shm.REGISTRY.release(ref.segment)

    def test_cap_never_evicts_the_only_mapping(self):
        ref = shm.REGISTRY.export_array(np.zeros(4096))
        cache = SegmentCache(byte_cap=16)  # far below the segment size
        cache.buffer(ref.segment)
        assert ref.segment in cache._segments
        cache.close()
        shm.REGISTRY.release(ref.segment)


class TestPartitionByteAccounting:
    """Satellite: the cache budget counts each shm segment once."""

    @staticmethod
    def _routed(rng):
        points = PointDataset(
            rng.uniform(0, 10, 300), rng.uniform(0, 10, 300)
        )
        canvas = Canvas(BBox(0.0, 0.0, 10.0, 10.0), 64, 64)
        tiles = list(canvas.tiles(32))
        return points, route_chunk(points, canvas, tiles, 32), len(tiles)

    def test_shared_segment_counted_once(self, rng):
        """A column moved to shared memory is one segment however many
        tiles' batches (and statements) reference it: sharing replaces
        the host copy, it is not charged beside it."""
        points, routing, tiles = self._routed(rng)
        routing.ensure_columns(points, ("x", "y"))
        host = routing.nbytes
        before = shm.REGISTRY.live_segments()
        routing.ensure_columns(points, ("x", "y"), shared=True)
        routing.ensure_columns(points, ("x",), shared=True)
        # x, y and the pixel index: three segments, not one per tile.
        assert shm.REGISTRY.live_segments() == before + 3
        assert routing.nbytes == host
        chunks = [
            batch.shared for batches in
            routing.per_tile(points, ("x", "y"), None, [0] * tiles)
            for batch in batches
        ]
        assert len({c.refs["x"].segment for c in chunks}) == 1
        np.testing.assert_array_equal(
            np.concatenate([c.column("x") for c in chunks]),
            points.xs[routing.order],
        )
        # Dropping the routing (cache eviction does just that) gives
        # the leases back.
        del routing, chunks
        assert shm.REGISTRY.live_segments() == before

    def test_mixed_host_and_shm_chunks(self, rng):
        """Once shared, always shared: a column first read by a query
        that did not ask for shared memory (a serial engine on the same
        session) joins the others, so every batch stays shm-backed."""
        points, routing, tiles = self._routed(rng)
        routing.ensure_columns(points, ("x",), shared=True)
        for batches in routing.per_tile(points, ("x", "y"), None,
                                        [0] * tiles):
            for batch in batches:
                assert batch.resident
                np.testing.assert_array_equal(
                    batch.shared.column("y"), batch.column("y")
                )
