"""Serving-layer tests: admission, coalescing, fusion, timeouts.

Timing-free where it matters: fusion groups are held open by a long
batching window and released with ``Server.flush()``, and queued states
are pinned by blocker tasks occupying the worker pool — no sleeps on the
assertion paths.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Sum
from repro.errors import (
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.obs import metrics
from repro.serve import ServeConfig, Server
from repro.sql.planner import QueryPlanner

Q_COUNT = (
    "SELECT COUNT(*) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "GROUP BY hoods.id"
)
Q_SUM = (
    "SELECT SUM(fare) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "GROUP BY hoods.id"
)
Q_FILTERED = (
    "SELECT SUM(fare) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "AND hour >= 12 GROUP BY hoods.id"
)
#: WITHIN lowers onto the bounded engine, which the fusion gate rejects —
#: these run straight through the pool, handy for pinning queue states.
Q_BOUNDED = (
    "SELECT COUNT(*) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "WITHIN 2.0 GROUP BY hoods.id"
)


@pytest.fixture
def planner(uniform_points, three_regions):
    p = QueryPlanner()
    p.register_points("taxi", uniform_points)
    p.register_regions("hoods", three_regions)
    yield p
    p.close()


class _Blocker:
    """Occupies every pool worker until released."""

    def __init__(self, server: Server, workers: int) -> None:
        self.release = threading.Event()
        self.started = [threading.Event() for _ in range(workers)]
        self.futures = [
            server._pool.submit(self._hold, event) for event in self.started
        ]
        for event in self.started:
            assert event.wait(5.0)

    def _hold(self, event: threading.Event) -> None:
        event.set()
        self.release.wait(30.0)

    def done(self) -> None:
        self.release.set()
        for future in self.futures:
            future.result(5.0)


class TestServing:
    def test_serves_identical_result(self, planner):
        solo = planner.execute(Q_COUNT)
        with planner.server(ServeConfig(max_workers=2)) as server:
            served = server.execute(Q_COUNT, timeout=30.0)
        assert np.array_equal(served.values, solo.values)

    def test_async_facade(self, planner):
        solo = planner.execute(Q_SUM)
        served = asyncio.run(planner.execute_async(Q_SUM, timeout=30.0))
        assert np.array_equal(served.values, solo.values)
        planner.server().close()

    def test_coalescing_fans_one_execution_out(self, planner):
        solo = planner.execute(Q_COUNT)
        server = Server(planner, ServeConfig(
            max_workers=1, batch_window_s=60.0,
        ))
        with server:
            leader = server.submit(Q_COUNT)
            followers = [server.submit(Q_COUNT) for _ in range(3)]
            assert server.counters()["coalesced"] == 3
            assert server.counters()["admitted"] == 1
            server.flush()
            lead_result = leader.result(30.0)
            assert "coalesced" not in lead_result.stats.extra
            for follower in followers:
                result = follower.result(30.0)
                assert result.stats.extra["coalesced"] is True
                assert np.array_equal(result.values, solo.values)
        assert np.array_equal(lead_result.values, solo.values)

    def test_fusion_serves_group_bit_identically(self, planner):
        solos = {q: planner.execute(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)}
        server = Server(planner, ServeConfig(
            max_workers=2, batch_window_s=60.0,
        ))
        with server:
            futures = {
                q: server.submit(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)
            }
            server.flush()
            for q, future in futures.items():
                result = future.result(30.0)
                assert np.array_equal(result.values, solos[q].values)
                assert result.stats.extra["fused_queries"] == 3
            counters = server.counters()
        assert counters["fused_scans"] == 1
        assert counters["fused_queries"] == 3

    def test_poisoned_member_degrades_group_to_solo_runs(
        self, planner, monkeypatch
    ):
        """One member whose aggregate raises must not fail the group:
        the others get their bit-identical answers, the raiser its own
        error, and the fallback is counted."""

        class Poisoned(Sum):
            def reduce_segments(self, values, starts):
                raise RuntimeError("poisoned aggregate")

        solos = {q: planner.execute(q) for q in (Q_COUNT, Q_FILTERED)}
        plan = planner.plan

        def poisoning_plan(statement):
            engine, points, regions, aggregate, filters = plan(statement)
            if isinstance(aggregate, Sum) and not filters:  # Q_SUM only
                aggregate = Poisoned(aggregate.column)
            return engine, points, regions, aggregate, filters

        monkeypatch.setattr(planner, "plan", poisoning_plan)

        def counted():
            return metrics.snapshot()["counters"].get(
                "serve_fused_fallbacks", 0
            )

        before = counted()
        server = Server(planner, ServeConfig(
            max_workers=2, batch_window_s=60.0,
        ))
        with server:
            futures = {
                q: server.submit(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)
            }
            server.flush()
            for q, solo in solos.items():
                result = futures[q].result(30.0)
                assert np.array_equal(result.values, solo.values)
                for name, channel in solo.channels.items():
                    assert np.array_equal(result.channels[name], channel)
                assert "fused_queries" not in result.stats.extra
            with pytest.raises(RuntimeError, match="poisoned aggregate"):
                futures[Q_SUM].result(30.0)
            counters = server.counters()
        assert counters["fused_scans"] == 0
        assert counters["fused_fallbacks"] == 1
        assert counters["depth"] == 0
        assert counted() == before + 1

    def test_max_fused_flushes_immediately(self, planner):
        server = Server(planner, ServeConfig(
            max_workers=2, batch_window_s=60.0, max_fused=2,
        ))
        with server:
            first = server.submit(Q_COUNT)
            second = server.submit(Q_SUM)
            # The group hit max_fused on the second submission and ran
            # without a flush() call.
            first.result(30.0)
            second.result(30.0)
            assert server.counters()["fused_scans"] == 1

    def test_bounded_engine_is_not_fused(self, planner):
        server = Server(planner, ServeConfig(max_workers=2))
        with server:
            result = server.execute(Q_BOUNDED, timeout=60.0)
            assert "fused_queries" not in result.stats.extra
            assert server.counters()["fused_scans"] == 0

    def test_overload_rejects_synchronously(self, planner):
        server = Server(planner, ServeConfig(
            max_workers=1, max_queue=2, batch_window_s=60.0,
        ))
        with server:
            first = server.submit(Q_COUNT)
            second = server.submit(Q_SUM)
            with pytest.raises(ServerOverloadedError):
                server.submit(Q_FILTERED)
            assert server.counters()["rejected"] == 1
            # Coalescing does not charge the queue: a duplicate of an
            # in-flight statement is still admitted.
            follower = server.submit(Q_COUNT)
            server.flush()
            first.result(30.0)
            second.result(30.0)
            follower.result(30.0)
            # Depth drained; a fresh distinct statement is admitted again.
            readmitted = server.submit(Q_FILTERED)
            server.flush()
            readmitted.result(30.0)

    def test_timeout_releases_waiter_not_execution(self, planner):
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            blocker = _Blocker(server, workers=1)
            leader = server.submit(Q_BOUNDED)
            with pytest.raises(QueryTimeoutError):
                # Coalesces onto the blocked leader, then gives up.
                server.execute(Q_BOUNDED, timeout=0.05)
            assert server.counters()["timeouts"] == 1
            blocker.done()
            # The leader was never interrupted by the follower's timeout.
            leader.result(60.0)

    def test_async_timeout(self, planner):
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            blocker = _Blocker(server, workers=1)
            with pytest.raises(QueryTimeoutError):
                asyncio.run(server.execute_async(Q_BOUNDED, timeout=0.05))
            blocker.done()

    def test_closed_server_rejects(self, planner):
        server = planner.server(ServeConfig(max_workers=1))
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(Q_COUNT)

    def test_close_drains_pending_groups(self, planner):
        server = Server(planner, ServeConfig(
            max_workers=2, batch_window_s=60.0,
        ))
        future = server.submit(Q_COUNT)
        server.close()
        result = future.result(5.0)
        solo = planner.execute(Q_COUNT)
        assert np.array_equal(result.values, solo.values)

    def test_planner_close_closes_server(self, planner):
        server = planner.server()
        planner.close()
        with pytest.raises(ServerClosedError):
            server.submit(Q_COUNT)
        # The planner rebuilds a fresh server lazily.
        assert planner.server() is not server
        planner.close()

    def test_explain_analyze_served_solo(self, planner):
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            explained = server.execute("EXPLAIN ANALYZE " + Q_COUNT,
                                       timeout=120.0)
            assert server.counters()["fused_scans"] == 0
        solo = planner.execute(Q_COUNT)
        assert np.array_equal(explained.result.values, solo.values)
