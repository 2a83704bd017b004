"""Edits persist as whole pairs, and the one pair writer fails safely.

An edited polygon set is stored exactly as a cold-built one is: a
``(<key_id>.npz, <key_id>.json)`` pair under its own key.  These tests
pin what that buys (a restart answers an edited key from one pair,
bit-identical to a cold build), what a store directory written by the
patch-journal era — or holding the aggregate-pyramid pairs of the
releases after it — degrades to, and the writer's behaviour under
``ENOSPC`` at each of its steps.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    BoundedRasterJoin,
    GPUDevice,
    QuerySession,
    Sum,
)
from repro.store import key_id
from tests.cache.test_incremental import edited_regions
from tests.store.test_artifact_store import (
    assert_same_derived_state,
    cold_build,
    prepared_only,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


#: name -> engine factory; the multi-tile case is 2x2 tiles of 64 pixels.
ENGINES = {
    "accurate-1-tile": lambda session: AccurateRasterJoin(
        resolution=128, grid_resolution=64, session=session
    ),
    "accurate-4-tiles": lambda session: AccurateRasterJoin(
        resolution=128, grid_resolution=64, session=session,
        device=GPUDevice(max_resolution=64),
    ),
    "bounded": lambda session: BoundedRasterJoin(
        resolution=128, session=session
    ),
}


def key_of(engine, polygons) -> tuple:
    return (polygons.fingerprint,) + tuple(engine.prepared_spec())


def run_edit_lineage(points, regions, store, edits=1,
                     make_engine=ENGINES["accurate-1-tile"]):
    """Execute the base set plus ``edits`` successive edits through one
    store-attached session; returns (session, polygon sets, results)."""
    session = QuerySession(store=store)
    engine = make_engine(session)
    sets = [regions]
    results = [engine.execute(points, regions, aggregate=Sum("fare"))]
    for k in range(edits):
        sets.append(edited_regions(sets[-1], shrink=0.2 + 0.1 * k))
        results.append(
            engine.execute(points, sets[-1], aggregate=Sum("fare"))
        )
        assert results[-1].stats.extra["prepared"] == "delta"
    return session, sets, results


class TestEditedKeysPersistAsPairs:
    def test_edit_loop_leaves_one_pair_per_distinct_key(
        self, uniform_points, three_regions, store
    ):
        session, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store, edits=3
        )
        engine = ENGINES["accurate-1-tile"](session)
        # An undo revisits a key the directory already holds.
        engine.execute(uniform_points, sets[1], aggregate=Sum("fare"))
        names = sorted(path.name for path in store.root.iterdir())
        assert names == sorted(
            key_id(key_of(engine, polygons)) + suffix
            for polygons in sets for suffix in (".npz", ".json")
        )
        assert store.saves == len(sets)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_edited_key_is_bit_identical_after_restart(
        self, uniform_points, three_regions, store, name
    ):
        """A fresh session over the directory answers every key of the
        lineage from its own pair: nothing polygon-side rebuilds, and the
        values are those of a cold, store-less build."""
        make_engine = ENGINES[name]
        _, sets, results = run_edit_lineage(
            uniform_points, three_regions, store, edits=2,
            make_engine=make_engine,
        )
        for polygons, live in zip(sets, results):
            cold = make_engine(QuerySession(store=False)).execute(
                uniform_points, polygons, aggregate=Sum("fare")
            )
            assert np.array_equal(live.values, cold.values)
            restarted = make_engine(QuerySession(store=store)).execute(
                uniform_points, polygons, aggregate=Sum("fare")
            )
            assert restarted.stats.extra["prepared"] == "store-hit"
            assert restarted.stats.prepared_store_hits == 1
            assert restarted.stats.triangulation_s == 0.0
            assert restarted.stats.index_build_s == 0.0
            assert np.array_equal(restarted.values, cold.values)
        assert store.load_failures == 0

    def test_loaded_edited_artifact_equals_a_cold_build(
        self, uniform_points, three_regions, store
    ):
        """The pair a delta-derived entry wrote decodes to exactly the
        coverage runs and boundary masks a from-scratch build of the
        edited set produces, on every one of four tiles."""
        device = GPUDevice(max_resolution=64)
        make_engine = ENGINES["accurate-4-tiles"]
        _, sets, _ = run_edit_lineage(
            uniform_points, three_regions, store, edits=2,
            make_engine=make_engine,
        )
        engine = make_engine(None)
        for polygons in sets[1:]:
            loaded = store.load(key_of(engine, polygons), polygons)
            reference, _ = cold_build(uniform_points, polygons, device)
            assert all(
                sorted(unit.coverage) == [0, 1, 2, 3] for unit in loaded.units
            )
            assert_same_derived_state(loaded, reference)
            assert loaded.nbytes == reference.nbytes

    def test_full_save_of_a_derived_entry_keeps_untouched_tiles(
        self, uniform_points, three_regions, store
    ):
        """A delta-derived entry on a multi-tile canvas carries composed
        views for the tiles its edit does not touch; the pair it writes
        must hold those tiles' coverage too (the dirty polygon's
        contribution there is empty, not unknown)."""
        def make_engine(session):
            return AccurateRasterJoin(
                resolution=128, grid_resolution=64, session=session,
                device=GPUDevice(max_resolution=48),
            )

        session, sets, results = run_edit_lineage(
            uniform_points, three_regions, store, make_engine=make_engine
        )
        engine = make_engine(None)
        key = key_of(engine, sets[1])
        fields = store.describe(key)
        assert fields is not None and "coverage" in fields
        loaded = store.load(key, sets[1])
        base = session._entries[key_of(engine, sets[0])]
        assert len(base.coverage) == 9
        assert all(
            set(unit.coverage) == set(base.coverage) for unit in loaded.units
        )
        restarted = make_engine(QuerySession(store=store)).execute(
            uniform_points, sets[1], aggregate=Sum("fare")
        )
        assert restarted.stats.prepared_store_hits == 1
        assert np.array_equal(restarted.values, results[1].values)

    def test_demoting_an_edited_entry_never_loses_data(
        self, uniform_points, three_regions, store
    ):
        """An edited entry whose pair vanished underneath the session
        (another process's eviction) is written again on its way out of
        memory — demotion must not drop the only surviving copy."""
        session = QuerySession(capacity=1, store=store)
        engine = ENGINES["accurate-1-tile"](session)
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        after = edited_regions(three_regions)
        live = engine.execute(uniform_points, after, aggregate=Sum("fare"))
        assert live.stats.extra["prepared"] == "delta"
        key = key_of(engine, after)
        assert store.contains(key)
        store.clear()
        # The base comes back: capacity 1 pushes the edited entry out.
        engine.execute(uniform_points, three_regions, aggregate=Sum("fare"))
        assert key not in session._entries
        assert store.contains(key)
        restarted = ENGINES["accurate-1-tile"](
            QuerySession(store=store)
        ).execute(uniform_points, after, aggregate=Sum("fare"))
        assert restarted.stats.prepared_store_hits == 1
        assert np.array_equal(restarted.values, live.values)


class TestDirectoryFromThePatchJournalEra:
    def test_leftover_refs_and_journals_degrade_never_error(
        self, uniform_points, three_regions, store
    ):
        """Such a directory holds full pairs, ``<root>.journal`` files
        beside some of them and a ``<kid>.ref`` for every key that was
        persisted as a patch.  Pairs still answer; a ref-only key is a
        plain miss that rebuilds into a pair; the leftovers are
        accounted, evictable and swept."""
        make_engine = ENGINES["accurate-1-tile"]
        _, (base,), (expected,) = run_edit_lineage(
            uniform_points, three_regions, store, edits=0
        )
        engine = make_engine(None)
        after = edited_regions(base)
        base_kid = key_id(key_of(engine, base))
        edited_key = key_of(engine, after)
        journal = store.root / f"{base_kid}.journal"
        journal.write_bytes(b"RJPJ" + bytes(2048))
        ref = store.root / f"{key_id(edited_key)}.ref"
        ref.write_text(json.dumps({
            "type": "patch-ref", "version": 3, "dtype": "<f8",
            "fingerprint": edited_key[0], "spec": list(edited_key[1:]),
            "root": base_kid, "fields": ["triangles", "grid", "coverage"],
        }))
        pair_bytes = sum(
            (store.root / f"{base_kid}{suffix}").stat().st_size
            for suffix in (".npz", ".json")
        )
        leftover_bytes = journal.stat().st_size + ref.stat().st_size
        assert store.disk_bytes == pair_bytes + leftover_bytes

        # The full pair still answers.
        warm = make_engine(QuerySession(store=store)).execute(
            uniform_points, base, aggregate=Sum("fare")
        )
        assert warm.stats.extra["prepared"] == "store-hit"
        assert np.array_equal(warm.values, expected.values)

        # The ref-only key: absent, not corrupt; rebuilt; saved whole.
        assert not store.contains(edited_key)
        assert store.describe(edited_key) is None
        assert store.load(edited_key, after) is None
        assert store.load_failures == 0
        rebuilt = make_engine(QuerySession(store=store)).execute(
            uniform_points, after, aggregate=Sum("fare")
        )
        assert rebuilt.stats.extra["prepared"] == "miss"
        assert store.load_failures == 0
        assert np.array_equal(
            rebuilt.values,
            make_engine(None).execute(
                uniform_points, after, aggregate=Sum("fare")
            ).values,
        )
        assert store.contains(edited_key)
        assert store.load(edited_key, after) is not None

        # Never touched again, the leftovers are the oldest groups: a
        # budget that fits the two pairs evicts exactly them.
        past = time.time() - 3600
        for path in (journal, ref):
            os.utime(path, (past, past))
        store.disk_budget = store.disk_bytes - leftover_bytes
        assert store.enforce_disk_budget() == 2
        assert not journal.exists() and not ref.exists()
        assert len(list(store.root.glob("*.npz"))) == 2

        journal.write_bytes(b"x")
        ref.write_bytes(b"x")
        assert store.clear() == 2  # the two manifests
        assert not any(store.root.iterdir())


class TestDirectoryHoldingPyramidPairs:
    def test_old_pyramid_pair_is_never_read_but_counted_and_evicted(
        self, uniform_points, three_regions, store
    ):
        """Until the pyramid became a set of cached point-pass channels
        it was the store's second artifact type: an ordinary pair keyed
        by the *points'* content hash.  Nothing reads one any more; it
        is accounted like any pair and the disk budget reclaims it."""
        guard = hashlib.blake2b(
            uniform_points.xs.tobytes() + uniform_points.ys.tobytes(),
            digest_size=16,
        ).hexdigest()
        key = (guard, "pyramid", 64, "mbr", (0.0, 0.0, 100.0, 100.0))
        buffer = io.BytesIO()
        np.savez(buffer, pyr_point_order=np.arange(9, dtype=np.int32),
                 pyr_cell_start=np.zeros(64 * 64 + 1, dtype=np.int64),
                 pyr_ch_0=np.zeros((64, 64)))
        npz = store.root / f"{key_id(key)}.npz"
        manifest = store.root / f"{key_id(key)}.json"
        npz.write_bytes(buffer.getvalue())
        manifest.write_text(json.dumps({
            "type": "pyramid", "version": 3, "dtype": "<f8",
            "fingerprint": guard, "spec": list(key[1:]),
            "resolution": 64, "num_points": len(uniform_points),
            "channels": [["count", None]],
            "payload_bytes": npz.stat().st_size,
        }))
        past = time.time() - 3600
        for path in (npz, manifest):
            os.utime(path, (past, past))
        old_bytes = npz.stat().st_size + manifest.stat().st_size
        assert store.disk_bytes == old_bytes and len(store) == 1

        make_engine = ENGINES["accurate-1-tile"]
        expected = make_engine(None).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        for _ in range(2):  # a first process, then a restarted one
            engine = make_engine(QuerySession(store=store))
            engine.prewarm(uniform_points, three_regions)
            result = engine.execute(
                uniform_points, three_regions, aggregate=Sum("fare")
            )
            assert result.stats.extra["pyramid"] == "hit"
            assert np.array_equal(result.values, expected.values)
        assert result.stats.extra["prepared"] == "store-hit"
        # One pair written and read back — the polygons'; the old pair
        # was neither opened (its recency is untouched) nor replaced.
        assert (store.saves, store.loads, store.load_failures) == (1, 1, 0)
        assert npz.stat().st_mtime == pytest.approx(past, abs=1.0)
        assert len(store) == 2
        assert store.disk_bytes > old_bytes

        store.disk_budget = store.disk_bytes - 1
        assert store.enforce_disk_budget() == 1
        assert not npz.exists() and not manifest.exists()
        assert len(store) == 1


# ----------------------------------------------------------------------
# Fault injection at the one writer seam
# ----------------------------------------------------------------------
#: step of ``ArtifactStore.save`` -> (file of the pair, operation)
FAULTS = {
    "npz-write": (".npz", "write"),
    "manifest-write": (".json", "write"),
    "manifest-replace": (".json", "replace"),
}


@contextlib.contextmanager
def full_disk(monkeypatch, kid: str, fault: str):
    """``ENOSPC`` at one step of the writer, for the pair of one key.

    A failed write leaves half the bytes behind, as a full disk does."""
    suffix, operation = FAULTS[fault]
    real_write, real_replace = Path.write_bytes, os.replace

    def hit(path) -> bool:
        return os.path.basename(path).startswith(kid + suffix)

    def write_bytes(self, data):
        if operation == "write" and hit(self):
            real_write(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(self, data)

    def replace(src, dst):
        if operation == "replace" and hit(dst):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_bytes)
        patch.setattr(os, "replace", replace)
        yield


def assert_no_debris(store) -> None:
    assert not [p.name for p in store.root.iterdir() if ".tmp-" in p.name]


PRIOR = ("first-save", "over-an-older-pair")


@pytest.mark.parametrize("prior", PRIOR)
@pytest.mark.parametrize("fault", sorted(FAULTS))
class TestWriterFaults:
    """Whatever step of the commit fails: the query's values are those
    of a store-less run, the failure is counted once, no temporary file
    is left, the key reads as a miss or as the older valid pair, and
    the next checkpoint after the fault lifts persists it."""

    def test_prepared_artifact(self, uniform_points, three_regions, store,
                               monkeypatch, fault, prior):
        make_engine = ENGINES["accurate-1-tile"]
        expected = make_engine(None).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        key = key_of(make_engine(None), three_regions)
        if prior == "over-an-older-pair":
            # The older pair is the same key saved before its first tile
            # loop: the query builds coverage, so the entry outgrows
            # what the store holds and is written again.
            store.save(key, prepared_only(make_engine(None), three_regions))
        session = QuerySession(store=store)
        with full_disk(monkeypatch, key_id(key), fault):
            result = make_engine(session).execute(
                uniform_points, three_regions, aggregate=Sum("fare")
            )
            assert np.array_equal(result.values, expected.values)
            assert store.save_failures == 1
            assert_no_debris(store)
        loaded = store.load(key, three_regions)
        if prior == "over-an-older-pair" and fault == "npz-write":
            # untouched
            assert loaded is not None and not any(
                unit.coverage for unit in loaded.units
            )
        elif prior == "over-an-older-pair":
            # A new payload under the old manifest: a checksum miss.
            assert loaded is None and store.load_failures == 1
        else:
            assert loaded is None and store.load_failures == 0
        session.checkpoint()
        assert store.save_failures == 1
        assert_no_debris(store)
        restarted = make_engine(QuerySession(store=store)).execute(
            uniform_points, three_regions, aggregate=Sum("fare")
        )
        assert restarted.stats.extra["prepared"] == "store-hit"
        assert restarted.stats.triangulation_s == 0.0
        assert np.array_equal(restarted.values, expected.values)
