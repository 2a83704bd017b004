"""Unit tests for the on-disk artifact store: format, durability, budget."""

import json

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    FilterSet,
    PointDataset,
    QuerySession,
    Sum,
)
from repro.errors import QueryError
from repro.store import FORMAT_VERSION, key_id, parse_bytes
from repro.store import format as artifact_format
from repro.types import ExecutionStats
from tests.conftest import assert_views_equal


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def populated_session(points, regions, store, resolution=128):
    """A store-backed session warmed by one accurate execution."""
    session = QuerySession(store=store)
    engine = AccurateRasterJoin(
        resolution=resolution, grid_resolution=64, session=session
    )
    result = engine.execute(points, regions, aggregate=Sum("fare"))
    return session, engine, result


def prepared_only(engine, regions):
    """The artifact a query's prepare hands its tile loop: canvas, tiles,
    MBRs, triangles and edge table — no per-pixel state yet."""
    stats = ExecutionStats(engine=engine.name, batches=0, passes=0)
    return engine.member(regions, Sum("fare"), FilterSet(), stats).prepared


class TestKeying:
    def test_key_id_depends_on_spec_and_fingerprint(self, three_regions):
        fp = three_regions.fingerprint
        assert key_id((fp, "accurate", 256)) != key_id((fp, "accurate", 512))
        assert key_id((fp, "accurate", 256)) != key_id(("other", "accurate", 256))
        assert key_id((fp, "accurate", 256)) == key_id((fp, "accurate", 256))

    def test_key_id_covers_format_version_and_dtype(self, three_regions,
                                                    monkeypatch):
        """A format bump addresses different file names, so stale files
        are invalidated without any migration code."""
        fp = three_regions.fingerprint
        before = key_id((fp, "accurate", 256))
        monkeypatch.setattr(artifact_format, "FORMAT_VERSION",
                            FORMAT_VERSION + 1)
        assert key_id((fp, "accurate", 256)) != before
        monkeypatch.setattr(artifact_format, "FORMAT_VERSION", FORMAT_VERSION)
        monkeypatch.setattr(artifact_format, "COORD_DTYPE", ">f8")
        assert key_id((fp, "accurate", 256)) != before

    def test_fingerprint_is_explicitly_little_endian(self, three_regions):
        """The fingerprint hashes canonical little-endian buffers, so a
        big-endian clone of the coordinates hashes identically."""
        from repro.geometry.polygon import Polygon, PolygonSet

        swapped = PolygonSet(
            [
                Polygon(
                    p.exterior.astype(">f8"),
                    holes=[h.astype(">f8") for h in p.holes],
                )
                for p in three_regions
            ]
        )
        assert swapped.fingerprint == three_regions.fingerprint


class TestRoundTrip:
    def test_full_artifact_round_trips(self, uniform_points, three_regions,
                                       store):
        session, _, expected = populated_session(
            uniform_points, three_regions, store
        )
        key = next(iter(session._entries))
        artifact = session._entries[key]
        loaded = store.load(key, three_regions)
        assert loaded is not None
        assert loaded.canvas.width == artifact.canvas.width
        assert loaded.canvas.height == artifact.canvas.height
        assert loaded.canvas.extent.as_tuple() == artifact.canvas.extent.as_tuple()
        assert len(loaded.tiles) == len(artifact.tiles)
        assert len(loaded.triangles) == len(artifact.triangles)
        for mine, theirs in zip(artifact.triangles, loaded.triangles):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert np.array_equal(a, b)
        # No grid index is held or stored; the edge table is re-derived
        # from the one parameter the manifest keeps.
        assert artifact.grid is None and loaded.grid is None
        assert "grid" not in store.describe(key)
        assert loaded.edge_table.rows == artifact.edge_table.rows == 64
        for name in ("band_start", "band_edges", "row_lo", "row_count"):
            assert np.array_equal(
                getattr(loaded.edge_table, name),
                getattr(artifact.edge_table, name),
            )
        assert loaded.nbytes == artifact.nbytes
        # The units' runs are what is stored; the load composes the
        # tiles' records from them.
        assert_views_equal(loaded, artifact)
        for mine, theirs in zip(artifact.units, loaded.units):
            assert mine.coverage.keys() == theirs.coverage.keys()
            for idx, runs in mine.coverage.items():
                assert np.array_equal(runs, theirs.coverage[idx])
        # A session seeded only from disk replays bit-identically.
        other = QuerySession(store=store)
        replay = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=other
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert replay.stats.prepared_store_hits == 1
        assert replay.stats.triangulation_s == 0.0
        assert replay.stats.index_build_s == 0.0
        assert np.array_equal(replay.values, expected.values)

    def test_partial_artifact_round_trips_as_partial(self, three_regions,
                                                     store):
        engine = AccurateRasterJoin(resolution=128, grid_resolution=64)
        artifact = prepared_only(engine, three_regions)
        key = (three_regions.fingerprint,) + engine.prepared_spec()
        store.save(key, artifact)
        loaded = store.load(key, three_regions)
        assert loaded.triangles is not None and loaded.edge_table is not None
        assert not loaded.views
        assert store.describe(key) == [
            "canvas", "tiles", "mbr_arrays", "triangles",
        ]

    def test_mbr_arrays_round_trip(self, three_regions, store):
        from repro.cache.prepared import PreparedPolygons

        key = (three_regions.fingerprint, "mbr-arrays")
        artifact = PreparedPolygons(three_regions, key)
        artifact.ensure_mbr_arrays(three_regions)
        store.save(key, artifact)
        loaded = store.load(key, three_regions)
        for a, b in zip(artifact.mbr_arrays, loaded.mbr_arrays):
            assert np.array_equal(a, b)

    def test_bounded_pair_keyed_with_a_raster_path_flag_is_a_miss(
        self, uniform_points, three_regions, store
    ):
        """A bounded pair whose key still carries the retired
        raster-path flag addresses other file names: the query counts a
        plain miss, rebuilds and saves beside it, never an error."""
        engine = BoundedRasterJoin(resolution=128)
        expected = engine.execute(uniform_points, three_regions)
        fingerprint = three_regions.fingerprint
        store.save((fingerprint,) + engine.prepared_spec() + (False,),
                   prepared_only(engine, three_regions))
        session = QuerySession(store=store)
        result = BoundedRasterJoin(resolution=128, session=session).execute(
            uniform_points, three_regions
        )
        assert result.stats.prepared_misses == 1
        assert result.stats.prepared_store_hits == 0
        assert store.load_failures == 0 and store.saves == 2
        assert np.array_equal(result.values, expected.values)


def cold_build(points, regions, device=None):
    """(artifact, result) of a from-scratch build: no disk tier, nothing
    warm."""
    session = QuerySession(store=False)
    result = AccurateRasterJoin(
        resolution=128, grid_resolution=64, device=device, session=session
    ).execute(points, regions, aggregate=Sum("fare"))
    (artifact,) = session._entries.values()
    return artifact, result


def assert_same_derived_state(artifact, reference) -> None:
    """Every tile's record and the per-unit coverage runs, bit for
    bit."""
    assert_views_equal(artifact, reference)
    for mine, theirs in zip(artifact.units, reference.units):
        assert mine.coverage.keys() == theirs.coverage.keys()
        for idx, runs in theirs.coverage.items():
            assert mine.coverage[idx].dtype == runs.dtype
            assert np.array_equal(mine.coverage[idx], runs)


class TestFormatFive:
    """Coverage persists as the units' ``(k, 2)`` runs plus per-polygon
    counts per tile, and no grid index beside it; whatever tier an
    artifact comes back through, it is the cold build again."""

    def test_layout(self, uniform_points, three_regions, store):
        session, _, _ = populated_session(uniform_points, three_regions, store)
        (artifact,) = session._entries.values()
        assert FORMAT_VERSION == 5
        arrays, manifest = artifact_format.encode(artifact, artifact.key)
        assert manifest["version"] == 5
        assert "grid" not in manifest and "grid" not in manifest["fields"]
        assert manifest["edge_rows"] == 64
        assert not [n for n in arrays if n.startswith(("cells_", "grid_"))]
        assert manifest["coverage_tiles"] == [0]
        assert sorted(n for n in arrays if n.startswith("uc_")) == [
            "uc_0_counts", "uc_0_data",
        ]
        assert np.array_equal(arrays["uc_0_data"], np.concatenate(
            [unit.coverage[0] for unit in artifact.units]
        ))
        assert arrays["uc_0_data"].shape[1:] == (2,)
        assert arrays["uc_0_counts"].tolist() == [
            len(unit.coverage[0]) for unit in artifact.units
        ]

    def test_round_trip_and_rederive_equal_a_cold_build(
        self, uniform_points, three_regions, store
    ):
        from repro import GPUDevice

        device = GPUDevice(max_resolution=64)  # 2x2 tiles
        reference, expected = cold_build(uniform_points, three_regions, device)
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, device=device, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        (key, artifact), = session._entries.items()
        assert_same_derived_state(artifact, reference)
        # Store round trip.
        loaded = store.load(key, three_regions)
        assert_same_derived_state(loaded, reference)
        assert loaded.nbytes == reference.nbytes
        # A restarted session's query reads the records the load composed.
        session = QuerySession(store=store)
        again = AccurateRasterJoin(
            resolution=128, grid_resolution=64, device=device, session=session
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert again.stats.extra["prepared"] == "store-hit"
        (reloaded,) = session._entries.values()
        assert_same_derived_state(reloaded, reference)
        assert np.array_equal(again.values, expected.values)

    @pytest.mark.parametrize("join", [AccurateRasterJoin, BoundedRasterJoin])
    def test_load_composes_whole_records_equal_to_a_cold_build(
        self, uniform_points, three_regions, store, join
    ):
        """The decode composes every stored tile's record whole — the
        exact kernel's mask, trimmed run table and candidates, the
        bounded kernel's untrimmed run table — equal record by record to
        a cold build's; a store hit then runs its statement on them and
        writes nothing back."""
        from repro import GPUDevice

        def engine(session):
            return join(resolution=128, device=GPUDevice(max_resolution=64),
                        session=session)

        cold_session = QuerySession(store=False)
        expected = engine(cold_session).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        (cold,) = cold_session._entries.values()
        assert len(cold.views) == len(cold.tiles) == 4
        exact = join is AccurateRasterJoin
        assert all((views.boundary is not None) == exact
                   for views in cold.views.values())
        engine(QuerySession(store=store)).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        saves = store.saves
        assert saves == 1
        loaded = store.load(cold.key, three_regions)
        assert_views_equal(loaded, cold)
        assert loaded.nbytes == cold.nbytes
        session = QuerySession(store=store)
        again = engine(session).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert again.stats.extra["prepared"] == "store-hit"
        assert np.array_equal(again.values, expected.values)
        (reloaded,) = session._entries.values()
        assert_views_equal(reloaded, cold)
        session.checkpoint()
        assert store.saves == saves

    @pytest.mark.parametrize("old_version", [3, 4])
    def test_pair_written_under_an_older_format_is_a_miss_not_an_error(
        self, uniform_points, three_regions, store, monkeypatch, old_version
    ):
        """A format bump re-keys: the old pair in the same directory is
        never opened — it counts against the disk budget until evicted —
        and the query rebuilds and saves beside it."""
        monkeypatch.setattr(artifact_format, "FORMAT_VERSION", old_version)
        _, _, expected = populated_session(
            uniform_points, three_regions, store
        )
        old_files = {p.name for p in store.root.iterdir()}
        assert len(old_files) == 2
        old_bytes = store.disk_bytes
        monkeypatch.undo()
        decoded = []
        decode = artifact_format.decode
        monkeypatch.setattr(
            artifact_format, "decode",
            lambda *args: decoded.append(args) or decode(*args),
        )
        session = QuerySession(store=store)
        result = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "miss"
        assert result.stats.prepared_store_hits == 0
        assert store.load_failures == 0 and not decoded
        assert np.array_equal(result.values, expected.values)
        new_files = {p.name for p in store.root.iterdir()} - old_files
        assert sorted(p.rsplit(".", 1)[1] for p in new_files) == ["json", "npz"]
        assert store.disk_bytes > old_bytes
        assert store.load(next(iter(session._entries)), three_regions)
        assert len(decoded) == 1
        # Under a disk budget the unaddressable pair is the one to go.
        store.disk_budget = store.disk_bytes - 1
        assert store.enforce_disk_budget() == 1
        assert {p.name for p in store.root.iterdir()} == new_files


class TestCorruptionTolerance:
    def _single_pair(self, store):
        (manifest_path,) = store.root.glob("*.json")
        return manifest_path.with_suffix(".npz"), manifest_path

    def test_missing_key_loads_none(self, three_regions, store):
        assert store.load(("nope", "spec"), three_regions) is None
        assert store.load_failures == 0  # absence is not corruption

    def test_truncated_npz_triggers_rebuild_not_crash(
        self, uniform_points, three_regions, store
    ):
        session, _, expected = populated_session(
            uniform_points, three_regions, store
        )
        key = next(iter(session._entries))
        npz_path, _ = self._single_pair(store)
        npz_path.write_bytes(npz_path.read_bytes()[: 100])
        assert store.load(key, three_regions) is None
        assert store.load_failures == 1
        # A fresh session rebuilds through the normal miss path...
        rebuilt = QuerySession(store=store)
        result = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=rebuilt
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert result.stats.prepared_store_hits == 0
        assert result.stats.prepared_misses == 1
        assert np.array_equal(result.values, expected.values)
        # ...and its write-through save repaired the pair on disk.
        assert store.load(key, three_regions) is not None

    def test_garbage_manifest_triggers_rebuild(self, uniform_points,
                                               three_regions, store):
        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        _, manifest_path = self._single_pair(store)
        manifest_path.write_bytes(b"{not json at all")
        assert store.load(key, three_regions) is None
        assert store.load_failures == 1

    def test_checksum_mismatch_rejected(self, uniform_points, three_regions,
                                        store):
        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        npz_path, _ = self._single_pair(store)
        payload = bytearray(npz_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(payload))
        assert store.load(key, three_regions) is None
        assert store.load_failures == 1

    def test_version_mismatch_rejected(self, uniform_points, three_regions,
                                       store):
        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        _, manifest_path = self._single_pair(store)
        manifest = json.loads(manifest_path.read_bytes())
        manifest["version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key, three_regions) is None
        assert store.load_failures == 1

    def test_wrong_key_manifest_rejected(self, uniform_points, three_regions,
                                         store):
        """A manifest describing another key (e.g. a hash collision or a
        mis-copied file) never loads as this key's artifact."""
        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        _, manifest_path = self._single_pair(store)
        manifest = json.loads(manifest_path.read_bytes())
        manifest["spec"] = ["accurate", 999, 64, 8192]
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key, three_regions) is None

    def test_manifest_without_units_is_a_miss_then_overwritten(
        self, uniform_points, three_regions, store
    ):
        """There is one on-disk layout: a pair whose manifest carries no
        per-polygon unit metadata is one more corrupt pair — a counted
        miss, a rebuild, and an overwrite — never an exception."""
        session, _, expected = populated_session(
            uniform_points, three_regions, store
        )
        key = next(iter(session._entries))
        _, manifest_path = self._single_pair(store)
        manifest = json.loads(manifest_path.read_bytes())
        del manifest["units"]
        manifest_path.write_text(json.dumps(manifest))
        assert store.load(key, three_regions) is None
        assert store.load_failures == 1
        result = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            session=QuerySession(store=store),
        ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "miss"
        assert store.load_failures == 2
        assert np.array_equal(result.values, expected.values)
        assert "units" in json.loads(manifest_path.read_bytes())
        assert store.load(key, three_regions) is not None


class TestDiskBudget:
    def test_parse_bytes(self):
        assert parse_bytes(None) is None
        assert parse_bytes("") is None
        assert parse_bytes(123) == 123
        assert parse_bytes("123") == 123
        assert parse_bytes("2k") == 2048
        assert parse_bytes("1.5M") == int(1.5 * (1 << 20))
        assert parse_bytes("1G") == 1 << 30
        with pytest.raises(QueryError):
            parse_bytes("wat")
        with pytest.raises(QueryError):
            parse_bytes(0)

    def test_disk_cap_evicts_oldest(self, tmp_path, uniform_points,
                                    three_regions):
        import os
        import time

        from tests.cache.test_query_session import shifted_regions

        store = ArtifactStore(tmp_path / "capped")
        zonings = [
            three_regions,
            shifted_regions(three_regions, 1.0),
            shifted_regions(three_regions, 2.0),
        ]
        keys = []
        for i, zones in enumerate(zonings):
            session = QuerySession(store=store)
            AccurateRasterJoin(
                resolution=128, grid_resolution=64, session=session
            ).execute(uniform_points, zones)
            key = next(iter(session._entries))
            keys.append(key)
            # Deterministic recency order regardless of clock resolution.
            kid = key_id(key)
            stamp = time.time() - 100 + i
            for suffix in (".npz", ".json"):
                os.utime(store.root / f"{kid}{suffix}", (stamp, stamp))
        total = store.disk_bytes
        per_artifact = total // len(zonings)
        store.disk_budget = total - per_artifact // 2  # forces one eviction
        evicted = store.enforce_disk_budget()
        assert evicted == 1
        assert store.evictions == 1
        assert not store.contains(keys[0])  # oldest gone
        assert store.contains(keys[1]) and store.contains(keys[2])

    def test_oversized_artifact_rejected_not_admitted(
        self, tmp_path, uniform_points, three_regions
    ):
        """An artifact bigger than the whole disk budget is refused up
        front (admitting it would force the budget to wipe every other
        pair); the query still succeeds, memory-only, and checkpoints
        don't re-serialize the rejected artifact query after query."""
        import numpy as np

        store = ArtifactStore(tmp_path / "tiny", disk_budget=1)
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        first = engine.execute(uniform_points, three_regions)
        assert len(store) == 0
        assert store.rejected_saves == 1
        for _ in range(2):
            warm = engine.execute(uniform_points, three_regions)
        assert warm.stats.prepared_hits == 1
        assert np.array_equal(warm.values, first.values)
        assert store.rejected_saves == 1  # remembered, not retried

    def test_tuple_in_spec_round_trips(self, three_regions, store):
        """Specs containing sequences must validate after the JSON round
        trip (tuples come back as lists) — save and load must agree."""
        from repro.cache.prepared import PreparedPolygons

        key = (three_regions.fingerprint, "engine", (1, 2))
        artifact = PreparedPolygons(three_regions, key)
        artifact.ensure_triangles(three_regions)
        store.save(key, artifact)
        loaded = store.load(key, three_regions)
        assert loaded is not None and store.load_failures == 0
        assert store.describe(key) == ["triangles"]

    def test_rejected_artifact_leaves_memory_whole(
        self, tmp_path, uniform_points, three_regions
    ):
        """Under byte-budget pressure an artifact too large for the disk
        leaves memory like any other — whole, nothing smaller written in
        its place — and the next statement rebuilds the same bits."""
        store = ArtifactStore(tmp_path / "tiny", disk_budget=1)
        session = QuerySession(store=store, byte_budget=1)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        first = engine.execute(uniform_points, three_regions)
        assert store.rejected_saves == 1 and len(session) == 0
        again = engine.execute(uniform_points, three_regions)
        assert again.stats.prepared_misses == 1
        assert store.rejected_saves == 2 and len(store) == 0
        assert np.array_equal(again.values, first.values)

    def test_oversized_save_never_evicts_other_artifacts(
        self, tmp_path, uniform_points, three_regions
    ):
        """The wipe scenario: a small-budget store holding real pairs
        must survive an attempted save of an artifact that exceeds the
        whole budget."""
        from tests.cache.test_query_session import shifted_regions

        store = ArtifactStore(tmp_path / "capped2")
        session = QuerySession(store=store)
        AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        ).execute(uniform_points, three_regions)
        key = next(iter(session._entries))
        resident = store.disk_bytes
        store.disk_budget = resident + 1024  # existing pair fits, barely
        big = QuerySession(store=store)
        AccurateRasterJoin(
            resolution=256, grid_resolution=64, session=big
        ).execute(uniform_points, shifted_regions(three_regions, 1.0))
        assert store.rejected_saves >= 1
        assert store.contains(key)  # the resident artifact survived


class TestHousekeeping:
    def test_contains_delete_clear(self, uniform_points, three_regions, store):
        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        assert store.contains(key)
        assert len(store) == 1
        assert store.delete(key)
        assert not store.contains(key)
        assert not store.delete(key)
        populated_session(uniform_points, three_regions, store)
        assert store.clear() == 1
        assert len(store) == 0

    def test_load_touches_mtime_for_lru(self, uniform_points, three_regions,
                                        store):
        import os

        session, _, _ = populated_session(uniform_points, three_regions, store)
        key = next(iter(session._entries))
        kid = key_id(key)
        npz_path = store.root / f"{kid}.npz"
        past = npz_path.stat().st_mtime - 3600
        for suffix in (".npz", ".json"):
            os.utime(store.root / f"{kid}{suffix}", (past, past))
        store.load(key, three_regions)
        assert npz_path.stat().st_mtime > past + 1800

    def test_orphan_payload_is_accounted_and_evictable(
        self, uniform_points, three_regions, store
    ):
        """A crash between the payload and manifest commits leaves an
        orphan .npz; it must show up in disk accounting, be evictable by
        the budget, and be swept by clear()."""
        session, _, _ = populated_session(uniform_points, three_regions, store)
        complete = store.disk_bytes
        orphan = store.root / ("f" * 32 + ".npz")
        orphan.write_bytes(b"x" * 4096)
        assert store.disk_bytes == complete + 4096
        import os
        import time

        past = time.time() - 3600
        os.utime(orphan, (past, past))  # oldest entry in the store
        store.disk_budget = complete + 1
        assert store.enforce_disk_budget() == 1
        assert not orphan.exists()
        key = next(iter(session._entries))
        assert store.contains(key)  # the real artifact survived
        orphan.write_bytes(b"x")
        store.clear()
        assert not any(store.root.iterdir())

    def test_numpy_scalar_spec_values_round_trip(self, uniform_points,
                                                 three_regions, store):
        """Engine parameters often come off NumPy sweeps; numpy-integer
        spec values must key and persist like their Python twins."""
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=np.int64(128), grid_resolution=np.int64(64),
            session=session,
        )
        cold = engine.execute(uniform_points, three_regions)
        assert len(store) == 1
        warm = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            session=QuerySession(store=store),
        ).execute(uniform_points, three_regions)
        # int64 and int spell the same key: the plain-int engine is warm.
        assert warm.stats.prepared_store_hits == 1
        assert np.array_equal(warm.values, cold.values)

    def test_aged_tmp_debris_is_accounted_and_evictable(
        self, uniform_points, three_regions, store
    ):
        import os
        import time

        populated_session(uniform_points, three_regions, store)
        complete = store.disk_bytes
        debris = store.root / ("a" * 32 + ".npz.tmp-123-456-deadbeef")
        debris.write_bytes(b"x" * 2048)
        fresh = store.root / ("b" * 32 + ".npz.tmp-123-456-cafecafe")
        fresh.write_bytes(b"y" * 2048)
        past = time.time() - 2 * store.TMP_GRACE_SECONDS
        os.utime(debris, (past, past))
        # Aged debris is visible; a live writer's fresh tmp is not.
        assert store.disk_bytes == complete + 2048
        store.disk_budget = complete + 1
        assert store.enforce_disk_budget() == 1
        assert not debris.exists()
        assert fresh.exists()

    def test_describe_rejects_truncated_payload(self, uniform_points,
                                                three_regions, store):
        """The warmth probe must not credit a pair whose payload is torn —
        execution would cold-rebuild, not replay."""
        session, engine, _ = populated_session(
            uniform_points, three_regions, store
        )
        key = next(iter(session._entries))
        assert store.describe(key) is not None
        npz_path = store.root / (key_id(key) + ".npz")
        npz_path.write_bytes(npz_path.read_bytes()[:100])
        assert store.describe(key) is None
        fresh = QuerySession(store=store)
        assert fresh.warmth(three_regions, engine.prepared_spec()) is None

    def test_empty_artifact_save_and_load(self, three_regions, store):
        """Even a field-less artifact round-trips (nothing crashes on a
        manifest with no arrays)."""
        from repro.cache.prepared import PreparedPolygons

        key = (three_regions.fingerprint, "empty")
        store.save(key, PreparedPolygons(three_regions, key))
        loaded = store.load(key, three_regions)
        assert loaded is not None
        assert loaded.nbytes == 0
