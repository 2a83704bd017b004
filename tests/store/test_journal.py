"""Unit tests for the store's patch journal: records, refs, replay,
compaction, and the crash-debris checksum guard."""

import json

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    Polygon,
    PolygonSet,
    QuerySession,
    Sum,
)
from repro.cache import polygon_fingerprint
from repro.store import key_id


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def edited_regions(regions: PolygonSet, shrink: float = 0.25) -> PolygonSet:
    """Move one vertex of the (frame-interior) third polygon inward."""
    polys = list(regions)
    ring = polys[2].exterior.copy()
    center = ring.mean(axis=0)
    ring[0] = ring[0] + (center - ring[0]) * shrink
    polys[2] = Polygon(ring, holes=polys[2].holes)
    out = PolygonSet(polys)
    assert out.bbox.xmin == regions.bbox.xmin  # frame unchanged
    assert out.bbox.ymax == regions.bbox.ymax
    return out


def warm_engine(store, resolution=128):
    session = QuerySession(store=store)
    return session, AccurateRasterJoin(
        resolution=resolution, grid_resolution=64, session=session
    )


def run_edit_lineage(uniform_points, three_regions, store, edits=1):
    """Execute the base set plus ``edits`` successive edits; returns the
    per-step polygon sets and results."""
    session, engine = warm_engine(store)
    sets = [three_regions]
    results = [engine.execute(uniform_points, sets[0], aggregate=Sum("fare"))]
    for k in range(edits):
        sets.append(edited_regions(sets[-1], shrink=0.2 + 0.1 * k))
        results.append(
            engine.execute(uniform_points, sets[-1], aggregate=Sum("fare"))
        )
    return session, sets, results


class TestPatchSave:
    def test_edit_appends_record_and_ref_not_a_second_pair(
        self, uniform_points, three_regions, store
    ):
        session, sets, results = run_edit_lineage(
            uniform_points, three_regions, store
        )
        assert results[1].stats.extra["prepared"] == "delta"
        assert store.patch_saves == 1
        files = sorted(p.suffix for p in store.root.iterdir())
        assert files == [".journal", ".json", ".npz", ".ref"]
        root_kid = key_id(
            (polygon_fingerprint(sets[0]),)
            + tuple(
                AccurateRasterJoin(
                    resolution=128, grid_resolution=64
                ).prepared_spec()
            )
        )
        assert (store.root / f"{root_kid}.journal").exists()

    def test_patch_is_much_smaller_than_a_full_pair(
        self, uniform_points, three_regions, store
    ):
        run_edit_lineage(uniform_points, three_regions, store)
        journal = next(store.root.glob("*.journal"))
        base = next(store.root.glob("*.npz"))
        assert journal.stat().st_size < base.stat().st_size

    def test_chained_edits_share_one_journal(
        self, uniform_points, three_regions, store
    ):
        session, sets, results = run_edit_lineage(
            uniform_points, three_regions, store, edits=3
        )
        assert store.patch_saves == 3
        assert len(list(store.root.glob("*.journal"))) == 1
        assert len(list(store.root.glob("*.ref"))) == 3
        assert len(list(store.root.glob("*.npz"))) == 1


class TestReplay:
    def test_replay_is_bit_identical_after_restart(
        self, uniform_points, three_regions, store
    ):
        _, sets, results = run_edit_lineage(
            uniform_points, three_regions, store, edits=2
        )
        for polygons, live in zip(sets, results):
            fresh_session, fresh_engine = warm_engine(store)
            replayed = fresh_engine.execute(
                uniform_points, polygons, aggregate=Sum("fare")
            )
            assert replayed.stats.prepared_store_hits == 1
            assert replayed.stats.triangulation_s == 0.0
            assert replayed.stats.index_build_s == 0.0
            assert np.array_equal(replayed.values, live.values)
        assert store.patch_loads >= 2

    def test_replayed_artifact_equals_a_cold_build(
        self, uniform_points, three_regions, store
    ):
        """Base pair + patch records compose to exactly the coverage
        records, unit slices and boundary masks a from-scratch build of
        the edited set produces."""
        from tests.store.test_artifact_store import (
            assert_same_derived_state,
            cold_build,
        )

        session, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store, edits=2
        )
        for polygons in sets[1:]:
            key = (polygon_fingerprint(polygons),) + next(
                iter(session._entries)
            )[1:]
            replayed = store.load(key, polygons)
            reference, _ = cold_build(uniform_points, polygons)
            assert_same_derived_state(replayed, reference)
        assert store.patch_loads >= 2

    def test_describe_answers_from_the_ref(
        self, uniform_points, three_regions, store
    ):
        _, sets, _ = run_edit_lineage(uniform_points, three_regions, store)
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[1]),) + tuple(spec)
        fields = store.describe(key)
        assert fields is not None and "coverage" in fields
        assert store.contains(key)

    def test_ref_with_evicted_base_loads_as_miss(
        self, uniform_points, three_regions, store
    ):
        _, sets, _ = run_edit_lineage(uniform_points, three_regions, store)
        for pair in (*store.root.glob("*.npz"), *store.root.glob("*.json")):
            pair.unlink()
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[1]),) + tuple(spec)
        assert store.describe(key) is None
        assert store.load(key, sets[1]) is None  # degrade, never wrong
        # ...and the orphaned ref is NOT containment: dirty tracking
        # must not treat the entry as durable, or a demotion would drop
        # the only surviving copy.
        assert not store.contains(key)

    def test_orphaned_ref_never_loses_data_on_demotion(
        self, uniform_points, three_regions, store
    ):
        """The data-loss path: root evicted, ref orphaned, entry demoted
        — the session must re-save (full pair), not drop the only copy."""
        session, sets, results = run_edit_lineage(
            uniform_points, three_regions, store
        )
        for pair in (*store.root.glob("*.npz"), *store.root.glob("*.json"),
                     *store.root.glob("*.journal")):
            pair.unlink()
        session.invalidate(sets[0])  # keep only the edited entry resident
        session.checkpoint()  # dirty again (orphaned ref != durable)
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[1]),) + tuple(spec)
        assert store.load(key, sets[1]) is not None  # healed as a pair
        fresh_session, fresh_engine = warm_engine(store)
        replayed = fresh_engine.execute(
            uniform_points, sets[1], aggregate=Sum("fare")
        )
        assert replayed.stats.prepared_store_hits == 1
        assert np.array_equal(replayed.values, results[1].values)


class TestCrashDebris:
    """Satellite: a truncated trailing patch record must be detected by
    checksum and dropped, falling back to the last consistent state."""

    def test_truncated_trailing_record_is_dropped(
        self, uniform_points, three_regions, store
    ):
        _, sets, results = run_edit_lineage(
            uniform_points, three_regions, store, edits=2
        )
        journal = next(store.root.glob("*.journal"))
        blob = journal.read_bytes()
        journal.write_bytes(blob[:-37])  # tear the tail mid-record
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        # The second edit's record was torn: its key fails to load...
        key2 = (polygon_fingerprint(sets[2]),) + tuple(spec)
        assert store.load(key2, sets[2]) is None
        assert store.dropped_records >= 1
        # ...while the first edit (the last consistent state) and the
        # base both still replay bit-identically.
        key1 = (polygon_fingerprint(sets[1]),) + tuple(spec)
        loaded = store.load(key1, sets[1])
        assert loaded is not None
        fresh_session, fresh_engine = warm_engine(store)
        replayed = fresh_engine.execute(
            uniform_points, sets[1], aggregate=Sum("fare")
        )
        assert np.array_equal(replayed.values, results[1].values)

    def test_edit_after_debris_persists_as_a_full_pair(
        self, uniform_points, three_regions, store
    ):
        """A new edit persisted after a torn tail must stay loadable:
        appending past debris would commit an unreachable record (and
        truncating it would race concurrent appenders), so the save
        falls back to a full pair that re-roots the lineage."""
        session, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store
        )
        journal = next(store.root.glob("*.journal"))
        with open(journal, "ab") as fh:
            fh.write(b"torn-partial-frame")
        sets.append(edited_regions(sets[-1], shrink=0.4))
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        live = engine.execute(uniform_points, sets[2], aggregate=Sum("fare"))
        assert live.stats.extra["prepared"] == "delta"
        assert store.patch_saves == 1  # only the pre-debris edit
        assert store.patch_fallbacks >= 1
        spec = engine.prepared_spec()
        key = (polygon_fingerprint(sets[2]),) + tuple(spec)
        loaded = store.load(key, sets[2])
        assert loaded is not None  # loadable as a full pair
        fresh_session, fresh_engine = warm_engine(store)
        replayed = fresh_engine.execute(
            uniform_points, sets[2], aggregate=Sum("fare")
        )
        assert replayed.stats.prepared_store_hits == 1
        assert np.array_equal(replayed.values, live.values)

    def test_corrupt_mid_journal_record_blocks_later_appends(
        self, uniform_points, three_regions, store
    ):
        """In-place corruption of an *interior* record (bit rot whose
        magic/length survive) must divert later edits to full pairs —
        a record appended past it would never be readable."""
        session, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store
        )
        journal = next(store.root.glob("*.journal"))
        blob = bytearray(journal.read_bytes())
        blob[-10] ^= 0xFF  # corrupt the (only) record's payload
        journal.write_bytes(bytes(blob))
        sets.append(edited_regions(sets[-1], shrink=0.4))
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        live = engine.execute(uniform_points, sets[2], aggregate=Sum("fare"))
        assert store.patch_saves == 1  # no append landed after the rot
        assert store.patch_fallbacks >= 1
        spec = engine.prepared_spec()
        key = (polygon_fingerprint(sets[2]),) + tuple(spec)
        loaded = store.load(key, sets[2])
        assert loaded is not None
        fresh_session, fresh_engine = warm_engine(store)
        replayed = fresh_engine.execute(
            uniform_points, sets[2], aggregate=Sum("fare")
        )
        assert np.array_equal(replayed.values, live.values)

    def test_corrupt_record_checksum_is_dropped(
        self, uniform_points, three_regions, store
    ):
        _, sets, _ = run_edit_lineage(uniform_points, three_regions, store)
        journal = next(store.root.glob("*.journal"))
        blob = bytearray(journal.read_bytes())
        blob[-10] ^= 0xFF  # flip a payload byte: checksum must catch it
        journal.write_bytes(bytes(blob))
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[1]),) + tuple(spec)
        assert store.load(key, sets[1]) is None
        assert store.dropped_records >= 1

    def test_garbage_journal_never_raises(
        self, uniform_points, three_regions, store
    ):
        _, sets, _ = run_edit_lineage(uniform_points, three_regions, store)
        journal = next(store.root.glob("*.journal"))
        journal.write_bytes(b"not a journal at all")
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[1]),) + tuple(spec)
        assert store.load(key, sets[1]) is None
        # A rebuild-and-save heals the key with a full pair.
        session, engine = warm_engine(store)
        result = engine.execute(uniform_points, sets[1], aggregate=Sum("fare"))
        assert result.stats.prepared_store_hits == 0
        assert store.contains(key)


class TestCompaction:
    def test_record_cap_compacts_to_a_full_pair(
        self, uniform_points, three_regions, store, monkeypatch
    ):
        monkeypatch.setattr(ArtifactStore, "JOURNAL_MAX_RECORDS", 2)
        session, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store, edits=3
        )
        assert store.patch_saves == 2
        assert store.patch_fallbacks >= 1
        # The compacted edit owns a real pair and loads without a replay.
        spec = AccurateRasterJoin(
            resolution=128, grid_resolution=64
        ).prepared_spec()
        key = (polygon_fingerprint(sets[3]),) + tuple(spec)
        before = store.patch_loads
        assert store.load(key, sets[3]) is not None
        assert store.patch_loads == before

    def test_size_factor_compacts_oversized_journals(
        self, uniform_points, three_regions, store, monkeypatch
    ):
        monkeypatch.setattr(ArtifactStore, "JOURNAL_SIZE_FACTOR", 0.0)
        run_edit_lineage(uniform_points, three_regions, store)
        # With a zero size allowance every patch falls back to full.
        assert store.patch_saves == 0
        assert store.patch_fallbacks == 1
        assert len(list(store.root.glob("*.npz"))) == 2

    def test_unpatchable_parent_falls_back_to_full_save(
        self, uniform_points, three_regions, store
    ):
        """A patch whose parent has no stored state writes a full pair
        instead of a dangling journal record."""
        session = QuerySession(store=False)  # base is never saved
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert result.stats.extra["prepared"] == "delta"
        key = (polygon_fingerprint(after),) + tuple(engine.prepared_spec())
        entry = session._entries[key]
        store.save_patch(key, entry)  # parent absent on this store
        assert store.patch_saves == 0
        assert store.patch_fallbacks == 1
        assert len(list(store.root.glob("*.ref"))) == 0
        assert store.load(key, after) is not None  # full pair instead

    def test_stripped_parent_falls_back_to_full_save(
        self, uniform_points, three_regions, store
    ):
        """A patch against a parent persisted *partial* (stripped of
        coverage) would silently lose coverage on replay — it must fall
        back to a full pair."""
        session = QuerySession(store=False)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        base_key = (
            polygon_fingerprint(three_regions),
        ) + tuple(engine.prepared_spec())
        base = session._entries[base_key]
        base.strip_derived()
        store.save(base_key, base)  # partial parent on disk
        after = edited_regions(three_regions)
        result = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        key = (polygon_fingerprint(after),) + tuple(engine.prepared_spec())
        store.save_patch(key, session._entries[key])
        assert store.patch_saves == 0
        assert store.patch_fallbacks == 1
        loaded = store.load(key, after)
        assert loaded is not None and loaded.coverage


class TestFullSaveOfDerivedEntries:
    def test_compacted_full_save_keeps_untouched_tiles(
        self, uniform_points, three_regions, store, monkeypatch
    ):
        """A delta-derived entry on a multi-tile canvas carries composed
        views for untouched tiles; when compaction forces it into a
        *full* pair, those tiles' coverage must be persisted too (the
        dirty polygon's contribution there is empty, not unknown)."""
        from repro import GPUDevice

        monkeypatch.setattr(ArtifactStore, "JOURNAL_MAX_RECORDS", 0)
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session,
            device=GPUDevice(max_resolution=48),
        )
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        live = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert live.stats.extra["prepared"] == "delta"
        assert store.patch_fallbacks >= 1  # compacted to a full pair
        spec = engine.prepared_spec()
        key = (polygon_fingerprint(after),) + tuple(spec)
        fields = store.describe(key)
        assert fields is not None and "coverage" in fields
        loaded = store.load(key, after)
        base_key = (polygon_fingerprint(three_regions),) + tuple(spec)
        base = session._entries[base_key]
        # Every tile the base covers is present in the compacted pair.
        assert set(loaded.coverage) == set(base.coverage)
        fresh_engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            session=QuerySession(store=store),
            device=GPUDevice(max_resolution=48),
        )
        replayed = fresh_engine.execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        assert replayed.stats.prepared_store_hits == 1
        assert np.array_equal(replayed.values, live.values)


class TestBudgetGrouping:
    def test_journal_evicts_with_its_root_pair(
        self, uniform_points, three_regions, store
    ):
        run_edit_lineage(uniform_points, three_regions, store)
        entries = dict(
            (group, paths)
            for group, (_, _, paths) in store._scan().items()
        )
        journal = next(store.root.glob("*.journal"))
        root_group = journal.stem
        suffixes = sorted(p.suffix for p in entries[root_group])
        assert suffixes == [".journal", ".json", ".npz"]

    def test_clear_sweeps_journals_and_refs(
        self, uniform_points, three_regions, store
    ):
        run_edit_lineage(uniform_points, three_regions, store)
        store.clear()
        assert list(store.root.iterdir()) == []
