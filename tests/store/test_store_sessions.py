"""Integration tests: tiered sessions over a shared artifact store.

Covers the warm-restart path (fresh session, populated store), the
byte-budget demotion tiers, concurrent store sharing, and the env /
EngineConfig wiring.
"""

import threading

import numpy as np
import pytest

from repro import (
    AccurateRasterJoin,
    ArtifactStore,
    EngineConfig,
    PointDataset,
    QuerySession,
    Sum,
)
from repro.store import STORE_DIR_ENV_VAR
from tests.cache.test_query_session import shifted_regions
from tests.conftest import brute_force_counts


def run_accurate(points, regions, session, resolution=128):
    engine = AccurateRasterJoin(
        resolution=resolution, grid_resolution=64, session=session
    )
    return engine.execute(points, regions, aggregate=Sum("fare"))


class TestWarmRestart:
    def test_fresh_session_is_disk_warm(self, uniform_points, three_regions,
                                        tmp_path):
        store_dir = tmp_path / "store"
        cold = run_accurate(
            uniform_points, three_regions, QuerySession(store=ArtifactStore(store_dir))
        )
        assert cold.stats.prepared_misses == 1
        assert cold.stats.prepared_store_hits == 0

        # "Restart": a brand-new session (new process equivalent; the
        # benchmark exercises a literally fresh interpreter) over the
        # same directory.
        warm = run_accurate(
            uniform_points, three_regions, QuerySession(store=ArtifactStore(store_dir))
        )
        assert warm.stats.prepared_store_hits == 1
        assert warm.stats.prepared_misses == 1  # memory cache was empty
        assert warm.stats.prepared_hits == 0
        assert warm.stats.triangulation_s == 0.0
        assert warm.stats.index_build_s == 0.0
        assert warm.stats.extra["prepared"] == "store-hit"
        assert np.array_equal(warm.values, cold.values)

    def test_disk_warm_results_stay_exact(self, uniform_points, three_regions,
                                          tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_accurate(uniform_points, three_regions, QuerySession(store=store))
        warm = run_accurate(
            uniform_points, three_regions, QuerySession(store=store),
        )
        # Sum over counts-compatible check: count query against brute force.
        count = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            session=QuerySession(store=store),
        ).execute(uniform_points, three_regions)
        assert np.array_equal(
            count.values, brute_force_counts(uniform_points, three_regions)
        )
        assert warm.stats.prepared_store_hits == 1

    def test_changed_geometry_never_disk_hits(self, uniform_points,
                                              three_regions, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_accurate(uniform_points, three_regions, QuerySession(store=store))
        moved = shifted_regions(three_regions, 3.0)
        result = run_accurate(uniform_points, moved, QuerySession(store=store))
        assert result.stats.prepared_store_hits == 0
        assert np.array_equal(
            AccurateRasterJoin(resolution=128, grid_resolution=64)
            .execute(uniform_points, moved, aggregate=Sum("fare")).values,
            result.values,
        )

    def test_index_join_rebuilds_its_grid_after_a_load(
        self, uniform_points, three_regions, tmp_path
    ):
        """The index join's grid is derived state, never stored: a
        reloaded pair brings the MBRs and the edge table's one
        parameter, the engine builds the grid again, and neither the
        load nor the rebuild makes the pair dirty."""
        from repro import IndexJoin

        store = ArtifactStore(tmp_path / "store")

        def run(session):
            return IndexJoin(
                mode="gpu", grid_resolution=64, session=session
            ).execute(uniform_points, three_regions, aggregate=Sum("fare"))

        saved = run(QuerySession(store=store))
        assert saved.stats.index_build_s > 0 and store.saves == 1
        session = QuerySession(store=store)
        reloaded = run(session)
        assert reloaded.stats.extra["prepared"] == "store-hit"
        assert reloaded.stats.index_build_s > 0
        (artifact,) = session._entries.values()
        assert artifact.grid is not None and artifact.edge_table.rows == 64
        assert "grid" not in store.describe(artifact.key)
        assert store.saves == 1 and store.load_failures == 0
        assert np.array_equal(reloaded.values, saved.values)
        for name, channel in saved.channels.items():
            assert np.array_equal(reloaded.channels[name], channel)

    def test_unchanged_artifact_not_rewritten(self, uniform_points,
                                              three_regions, tmp_path):
        """Write-through is change-driven: warm runs save nothing."""
        store = ArtifactStore(tmp_path / "store")
        session = QuerySession(store=store)
        run_accurate(uniform_points, three_regions, session)
        saves = store.saves
        run_accurate(uniform_points, three_regions, session)
        run_accurate(uniform_points, three_regions, session)
        assert store.saves == saves


class TestByteBudgetTiers:
    def test_entry_over_budget_leaves_memory_whole(
        self, uniform_points, three_regions, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        probe = QuerySession(store=False)
        run_accurate(uniform_points, three_regions, probe)
        budget = probe.nbytes - 1  # everything but one byte fits

        session = QuerySession(byte_budget=budget, store=store)
        cold = run_accurate(uniform_points, three_regions, session)
        assert session.demotions == 1
        assert len(session) == 0 and session.nbytes <= budget
        # The store kept the whole artifact (coverage included)...
        assert "coverage" in store.describe(next(iter(probe._entries)))
        # ...so the next statement is a store hit, not a rebuild.
        warm = run_accurate(uniform_points, three_regions, session)
        assert warm.stats.prepared_store_hits == 1
        assert warm.stats.triangulation_s == 0.0
        assert np.array_equal(warm.values, cold.values)

    def test_entry_over_budget_without_store_rebuilds(self, uniform_points,
                                                      three_regions):
        """The byte budget works with no disk tier at all: the entry is
        dropped whole and the next statement rebuilds it."""
        session = QuerySession(byte_budget=1, store=False)
        cold = run_accurate(uniform_points, three_regions, session)
        warm = run_accurate(uniform_points, three_regions, session)
        assert session.demotions == 2 and len(session) == 0
        assert warm.stats.prepared_misses == 1
        assert np.array_equal(warm.values, cold.values)

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
    def test_every_checkpoint_leaves_resident_entries_whole(
        self, uniform_points, three_regions, tmp_path, stored
    ):
        """Under a budget of one and a half artifacts, a walk over three
        geometries and back keeps ``nbytes`` within the budget after
        every statement, each resident entry at its full unbudgeted
        size, and every answer at its unbudgeted bits; with a store, a
        revisit is a store hit."""
        walk = [shifted_regions(three_regions, dx) for dx in (0.0, 2.0, 4.0)]
        reference = QuerySession(store=False)
        want = [run_accurate(uniform_points, r, reference) for r in walk]
        full = {key: entry.nbytes
                for key, entry in reference._entries.items()}
        budget = max(full.values()) * 3 // 2
        store = ArtifactStore(tmp_path / "s") if stored else False
        session = QuerySession(byte_budget=budget, store=store)
        for step, idx in enumerate([0, 1, 2, 0, 1]):
            got = run_accurate(uniform_points, walk[idx], session)
            assert np.array_equal(got.values, want[idx].values)
            assert session.nbytes <= budget and len(session) >= 1
            for key, entry in session._entries.items():
                assert entry.nbytes == full[key]
            if step >= 3:
                assert got.stats.extra["prepared"] == (
                    "store-hit" if stored else "miss"
                )
        assert session.demotions >= 4

    def test_full_demotion_spills_to_store(self, uniform_points,
                                           three_regions, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = QuerySession(byte_budget=1, store=store)
        cold = run_accurate(uniform_points, three_regions, session)
        # Tiny budget: the entry leaves memory entirely...
        assert session.demotions >= 1
        assert len(session) == 0
        # ...but lives on disk, so the repeat query is a store hit, not
        # a rebuild.
        warm = run_accurate(uniform_points, three_regions, session)
        assert warm.stats.prepared_store_hits == 1
        assert warm.stats.triangulation_s == 0.0
        assert np.array_equal(warm.values, cold.values)

    def test_capacity_eviction_demotes_not_drops(self, uniform_points,
                                                 three_regions, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = QuerySession(capacity=1, store=store)
        other = shifted_regions(three_regions, 2.0)
        run_accurate(uniform_points, three_regions, session)
        run_accurate(uniform_points, other, session)
        assert len(session) == 1
        assert session.demotions == 1
        revisit = run_accurate(uniform_points, three_regions, session)
        assert revisit.stats.prepared_store_hits == 1
        assert revisit.stats.triangulation_s == 0.0

    def test_unserializable_spec_degrades_to_memory_only(
        self, three_regions, tmp_path
    ):
        """Spec values JSON can't address (possible through the public
        session API) must not crash lookups or checkpoints when a store
        is attached — the key just never touches disk."""
        session = QuerySession(store=ArtifactStore(tmp_path / "s"))
        spec = ("custom", object())
        entry, source = session.prepared_for(three_regions, spec)
        assert source == ""
        entry.ensure_triangles(three_regions)
        session.checkpoint()  # must not raise
        assert len(session.store) == 0
        assert session.contains(three_regions, spec)  # memory tier works
        assert session.warmth(three_regions, spec) is None  # no coverage
        _, source = session.prepared_for(three_regions, spec)
        assert source == "memory"

    def test_bookkeeping_bounded_by_residency(self, uniform_points,
                                              three_regions, tmp_path):
        """A long-lived serving session (fresh fingerprint per rezoning
        stroke) must not accumulate side-map entries forever: markers
        live only as long as their key is resident."""
        session = QuerySession(
            capacity=1, store=ArtifactStore(tmp_path / "s")
        )
        for dx in range(5):
            run_accurate(
                uniform_points, shifted_regions(three_regions, float(dx)),
                session,
            )
        assert len(session) == 1
        assert len(session._persisted) <= 1
        assert len(session._sizes) <= 1
        assert len(session._unstorable) == 0

    def test_budget_pressure_never_rewrites_unchanged_artifacts(
        self, uniform_points, three_regions, tmp_path
    ):
        """Demotion + a store-hit reload must read as clean: the disk
        copy already holds the whole artifact, so repeated
        budget-pressured queries save exactly once."""
        probe = QuerySession(store=False)
        run_accurate(uniform_points, three_regions, probe)
        full_bytes = probe.nbytes
        session = QuerySession(
            byte_budget=full_bytes - 1, store=ArtifactStore(tmp_path / "s")
        )
        for _ in range(3):
            run_accurate(uniform_points, three_regions, session)
        assert session.demotions == 3  # pressure every round
        assert session.store.saves == 1

    def test_byte_budget_parses_size_strings(self):
        assert QuerySession(byte_budget="2M").byte_budget == 2 << 20

    def test_externally_evicted_pair_is_resaved(self, uniform_points,
                                                three_regions, tmp_path):
        """store.clear() (or another process's disk-budget eviction)
        must not permanently disable write-through for a key the session
        still believes is persisted."""
        store = ArtifactStore(tmp_path / "s")
        session = QuerySession(store=store)
        run_accurate(uniform_points, three_regions, session)
        assert len(store) == 1
        store.clear()
        run_accurate(uniform_points, three_regions, session)  # memory-warm
        assert len(store) == 1  # checkpoint noticed and re-saved
        warm = run_accurate(
            uniform_points, three_regions, QuerySession(store=store)
        )
        assert warm.stats.prepared_store_hits == 1

    def test_plain_session_skips_size_accounting(self, monkeypatch,
                                                 three_regions):
        """No store + no byte budget = PR 1 behavior: lookups never walk
        artifact bytes."""
        from repro.cache import prepared as prepared_module

        session = QuerySession(store=False)
        session.prepared_for(three_regions, ("spec",))

        def boom(self):
            raise AssertionError("nbytes walked on a plain-session lookup")

        monkeypatch.setattr(
            prepared_module.PreparedPolygons, "nbytes", property(boom)
        )
        _, hit = session.prepared_for(three_regions, ("spec",))
        assert hit == "memory"

    def test_warm_checkpoints_skip_byte_walk(self, uniform_points,
                                             three_regions, tmp_path,
                                             monkeypatch):
        """Unchanged entries are recognized by their O(1) content
        signature: a warm query's checkpoint re-measures nothing."""
        from repro.cache import prepared as prepared_module

        session = QuerySession(store=ArtifactStore(tmp_path / "s"))
        run_accurate(uniform_points, three_regions, session)

        def boom(self):
            raise AssertionError("byte walk on an unchanged artifact")

        monkeypatch.setattr(
            prepared_module.PreparedPolygons, "nbytes", property(boom)
        )
        warm = run_accurate(uniform_points, three_regions, session)
        assert warm.stats.prepared_hits == 1

    def test_path_store_honors_env_budget(self, tmp_path, monkeypatch):
        from repro.store import STORE_BUDGET_ENV_VAR

        monkeypatch.setenv(STORE_BUDGET_ENV_VAR, "3M")
        session = QuerySession(store=str(tmp_path / "p"))
        assert session.store.disk_budget == 3 << 20


class TestSharedStoreConcurrency:
    def test_two_sessions_share_one_directory(self, uniform_points,
                                              three_regions, tmp_path):
        store_dir = tmp_path / "shared"
        a = QuerySession(store=ArtifactStore(store_dir))
        b = QuerySession(store=ArtifactStore(store_dir))
        cold = run_accurate(uniform_points, three_regions, a)
        warm = run_accurate(uniform_points, three_regions, b)
        assert warm.stats.prepared_store_hits == 1
        assert np.array_equal(warm.values, cold.values)

    def test_no_torn_reads_under_concurrent_writers(self, uniform_points,
                                                    three_regions, tmp_path):
        """Writers repeatedly replacing a pair never expose a torn state:
        every concurrent load returns either None or a fully validated,
        bit-identical artifact."""
        store_dir = tmp_path / "hammered"
        seed_session = QuerySession(store=ArtifactStore(store_dir))
        expected = run_accurate(uniform_points, three_regions, seed_session)
        key = next(iter(seed_session._entries))
        artifact = seed_session._entries[key]

        stop = threading.Event()
        failures: list[str] = []

        def writer():
            writer_store = ArtifactStore(store_dir)
            while not stop.is_set():
                writer_store.save(key, artifact)

        def reader():
            reader_store = ArtifactStore(store_dir)
            session = QuerySession(store=reader_store)
            for _ in range(8):
                loaded = reader_store.load(key, three_regions)
                if loaded is None:
                    continue  # a miss is acceptable; a wrong result is not
                result = AccurateRasterJoin(
                    resolution=128, grid_resolution=64, session=session
                ).execute(uniform_points, three_regions, aggregate=Sum("fare"))
                if not np.array_equal(result.values, expected.values):
                    failures.append("diverged")
                session.invalidate()

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        try:
            for t in threads[2:]:
                t.join()
        finally:
            stop.set()
            for t in threads[:2]:
                t.join()
        assert not failures


class TestWiring:
    def test_env_var_enables_store(self, uniform_points, three_regions,
                                   tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV_VAR, str(tmp_path / "env-store"))
        cold = run_accurate(uniform_points, three_regions, QuerySession())
        warm = run_accurate(uniform_points, three_regions, QuerySession())
        assert cold.stats.prepared_store_hits == 0
        assert warm.stats.prepared_store_hits == 1
        assert np.array_equal(warm.values, cold.values)

    def test_store_false_disables_env(self, uniform_points, three_regions,
                                      tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV_VAR, str(tmp_path / "env-store"))
        session = QuerySession(store=False)
        assert session.store is None
        run_accurate(uniform_points, three_regions, session)
        assert not (tmp_path / "env-store").exists() or not any(
            (tmp_path / "env-store").iterdir()
        )

    def test_engine_config_store_dir_creates_private_session(
        self, uniform_points, three_regions, tmp_path
    ):
        config = EngineConfig(store_dir=str(tmp_path / "cfg-store"))
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, config=config
        )
        assert engine.session is not None
        assert engine.session.store is not None
        cold = engine.execute(uniform_points, three_regions)
        fresh = AccurateRasterJoin(
            resolution=128, grid_resolution=64, config=config
        )
        warm = fresh.execute(uniform_points, three_regions)
        assert warm.stats.prepared_store_hits == 1
        assert np.array_equal(warm.values, cold.values)

    def test_planner_uses_config_store(self, uniform_points, three_regions,
                                       tmp_path):
        from repro.sql.planner import QueryPlanner

        sql = (
            "SELECT COUNT(*) FROM trips, zones "
            "WHERE trips.location INSIDE zones.geometry GROUP BY zones.id"
        )
        config = EngineConfig(store_dir=str(tmp_path / "sql-store"))

        def serve(statement):
            """One planner per statement = one server process."""
            planner = QueryPlanner(config=config)
            planner.register_points("trips", uniform_points)
            planner.register_regions("zones", three_regions)
            return planner.execute(statement)

        first = serve(sql)
        second = serve(sql)  # restarted server, same store
        assert second.stats.prepared_store_hits == 1
        assert np.array_equal(first.values, second.values)

    def test_env_budget_applies_to_config_store(self, tmp_path, monkeypatch):
        from repro.store import STORE_BUDGET_ENV_VAR

        monkeypatch.setenv(STORE_BUDGET_ENV_VAR, "2M")
        store = EngineConfig(store_dir=str(tmp_path / "s")).make_store()
        assert store.disk_budget == 2 << 20
        # An explicit budget wins over the environment.
        store = EngineConfig(
            store_dir=str(tmp_path / "s"), store_budget="1M"
        ).make_store()
        assert store.disk_budget == 1 << 20

    def test_save_failure_degrades_not_crashes(self, uniform_points,
                                               three_regions, tmp_path,
                                               monkeypatch):
        """A dead disk at persistence time must not fail the query whose
        result is already computed — warmth is forfeited, nothing else."""
        store = ArtifactStore(tmp_path / "dead")
        session = QuerySession(store=store)

        def broken_save(key, prepared):
            raise OSError("disk full")

        monkeypatch.setattr(store, "save", broken_save)
        result = run_accurate(uniform_points, three_regions, session)
        assert np.array_equal(
            result.values,
            AccurateRasterJoin(resolution=128, grid_resolution=64)
            .execute(uniform_points, three_regions, aggregate=Sum("fare"))
            .values,
        )
        assert store.save_failures >= 1
        assert len(store) == 0
        # The entry stayed dirty: a recovered disk persists on the next
        # checkpoint.
        monkeypatch.undo()
        run_accurate(uniform_points, three_regions, session)
        assert len(store) == 1

    def test_optimizer_config_store_keeps_memory_tier(self, tmp_path):
        from repro import RasterJoinOptimizer

        config = EngineConfig(store_dir=str(tmp_path / "opt-store"))
        opt = RasterJoinOptimizer(config=config)
        assert opt.session is not None and opt.session.store is not None
        bounded, accurate = opt._candidates(epsilon=5.0)
        assert bounded.session is opt.session
        assert accurate.session is opt.session

    def test_streamed_execution_checkpoints(self, uniform_points,
                                            three_regions, tmp_path):
        store = ArtifactStore(tmp_path / "stream-store")
        session = QuerySession(store=store)
        engine = AccurateRasterJoin(
            resolution=128, grid_resolution=64, session=session
        )
        whole = engine.execute_stream(
            lambda: uniform_points.batches(4_000), three_regions
        )
        assert store.saves >= 1
        warm = AccurateRasterJoin(
            resolution=128, grid_resolution=64,
            session=QuerySession(store=ArtifactStore(tmp_path / "stream-store")),
        ).execute(uniform_points, three_regions)
        assert warm.stats.prepared_store_hits == 1
        assert np.array_equal(warm.values, whole.values)
