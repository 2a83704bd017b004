"""Serving-layer tests: admission, coalescing, shared groups, timeouts.

Timing-free where it matters: queued states — and with them which
statements a worker finds pending together — are pinned by blocker tasks
occupying the worker pool, no sleeps on the assertion paths.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import PolygonSet, Sum
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
#: WITHIN lowers onto the bounded engine: another group key than the
#: exact statements above, one key for the two of them.
Q_BOUNDED = (
    "SELECT COUNT(*) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "WITHIN 2.0 GROUP BY hoods.id"
)
Q_BOUNDED_SUM = (
    "SELECT SUM(fare) FROM taxi, hoods WHERE taxi.loc INSIDE hoods.geometry "
    "WITHIN 2.0 GROUP BY hoods.id"
)


@pytest.fixture
def planner(uniform_points, three_regions):
    p = QueryPlanner()
    p.register_points("taxi", uniform_points)
    p.register_regions("hoods", three_regions)
    p.register_regions("zones", PolygonSet(list(three_regions)[:2]))
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
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            blocker = _Blocker(server, workers=1)
            leader = server.submit(Q_COUNT)
            followers = [server.submit(Q_COUNT) for _ in range(3)]
            assert server.counters()["coalesced"] == 3
            assert server.counters()["admitted"] == 1
            blocker.done()
            lead_result = leader.result(30.0)
            assert "coalesced" not in lead_result.stats.extra
            for follower in followers:
                result = follower.result(30.0)
                assert result.stats.extra["coalesced"] is True
                assert np.array_equal(result.values, solo.values)
        assert np.array_equal(lead_result.values, solo.values)

    def test_fusion_serves_group_bit_identically(self, planner):
        """What queues behind a busy pool shares one execution per key:
        Q_COUNT + Q_SUM have one, Q_FILTERED (another filter set) runs
        alone."""
        solos = {q: planner.execute(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)}
        server = Server(planner, ServeConfig(max_workers=2))
        with server:
            blocker = _Blocker(server, workers=2)
            futures = {
                q: server.submit(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)
            }
            blocker.done()
            for q, future in futures.items():
                result = future.result(30.0)
                assert np.array_equal(result.values, solos[q].values)
                for name, channel in solos[q].channels.items():
                    assert np.array_equal(result.channels[name], channel)
                assert result.stats.extra.get("fused_queries") == (
                    None if q == Q_FILTERED else 2
                )
            counters = server.counters()
        assert counters["fused_scans"] == 1
        assert counters["fused_queries"] == 2
        assert counters["depth"] == 0

    def test_poisoned_member_degrades_group_to_solo_runs(
        self, planner, monkeypatch
    ):
        """One member whose aggregate raises must not fail the group:
        the others get their bit-identical answers, the raiser its own
        error, and the fallback is counted."""

        class Poisoned(Sum):
            # The shared execution reduces through the MultiAggregate;
            # what it calls of a member is its finalize.
            def finalize(self, reduced):
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
        server = Server(planner, ServeConfig(max_workers=2))
        with server:
            blocker = _Blocker(server, workers=2)
            futures = {
                q: server.submit(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)
            }
            blocker.done()
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

    def test_idle_server_never_delays_a_statement(self, planner,
                                                  monkeypatch):
        """No batching window: a lone statement is handed to the pool at
        once — no timer thread is ever created, and its queue wait is
        the hand-off."""
        def no_timers(*args, **kwargs):
            raise AssertionError("the server must not create a Timer")

        monkeypatch.setattr(threading, "Timer", no_timers)
        metrics.REGISTRY.reset()
        with Server(planner) as server:
            for q in (Q_COUNT, Q_SUM, Q_FILTERED, Q_COUNT, Q_SUM):
                result = server.execute(q, timeout=30.0)
                assert "fused_queries" not in result.stats.extra
            assert server.counters()["fused_scans"] == 0
        histograms = metrics.snapshot()["histograms"]
        assert histograms["serve_wait_s"]["count"] == 5
        # The hand-off to a worker thread (~0.1 ms on an idle host; the
        # quickest of five is robust against a busy one).
        assert histograms["serve_wait_s"]["min"] < 0.005
        assert histograms["serve_group_size"]["max"] == 1

    def test_different_tables_or_filters_never_share(self, planner):
        """The group key is (points, regions, engine, filter set): the
        same aggregate pair over another table, another filter or the
        other engine is another execution."""
        other_table = Q_COUNT.replace("hoods", "zones")
        statements = (Q_COUNT, other_table, Q_FILTERED, Q_BOUNDED)
        solos = {q: planner.execute(q) for q in statements}
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            blocker = _Blocker(server, workers=1)
            futures = {q: server.submit(q) for q in statements}
            assert len(server._pending) == len(statements)
            blocker.done()
            for q, future in futures.items():
                result = future.result(30.0)
                assert np.array_equal(result.values, solos[q].values)
                assert "fused_queries" not in result.stats.extra
            counters = server.counters()
        assert counters["fused_scans"] == counters["fused_queries"] == 0
        assert counters["depth"] == 0

    def test_bounded_statements_of_one_epsilon_share(self, planner):
        """Two bounded statements of one ε share one execution and equal
        their solo bits; another ε is another canvas, another key."""
        other_eps = Q_BOUNDED.replace("WITHIN 2.0", "WITHIN 4.0")
        statements = (Q_BOUNDED, Q_BOUNDED_SUM, other_eps)
        solos = {q: planner.execute(q) for q in statements}
        server = Server(planner, ServeConfig(max_workers=1))
        with server:
            blocker = _Blocker(server, workers=1)
            futures = {q: server.submit(q) for q in statements}
            blocker.done()
            for q, future in futures.items():
                result = future.result(60.0)
                assert result.stats.engine == "bounded-raster"
                assert np.array_equal(result.values, solos[q].values)
                for name, channel in solos[q].channels.items():
                    assert np.array_equal(result.channels[name], channel)
                assert result.stats.extra.get("fused_queries") == (
                    None if q == other_eps else 2
                )
            counters = server.counters()
        assert counters["fused_scans"] == 1
        assert counters["fused_queries"] == 2

    def test_overload_rejects_synchronously(self, planner):
        server = Server(planner, ServeConfig(max_workers=1, max_queue=2))
        with server:
            blocker = _Blocker(server, workers=1)
            first = server.submit(Q_COUNT)
            second = server.submit(Q_SUM)
            with pytest.raises(ServerOverloadedError):
                server.submit(Q_FILTERED)
            assert server.counters()["rejected"] == 1
            # Coalescing does not charge the queue: a duplicate of an
            # in-flight statement is still admitted.
            follower = server.submit(Q_COUNT)
            blocker.done()
            first.result(30.0)
            second.result(30.0)
            follower.result(30.0)
            # Depth drained; a fresh distinct statement is admitted again.
            server.execute(Q_FILTERED, timeout=30.0)
            assert server.counters()["depth"] == 0

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
        """Drain tasks already sit in the pool when close() is called:
        shutdown(wait=True) runs them."""
        solo = planner.execute(Q_COUNT)
        server = Server(planner, ServeConfig(max_workers=2))
        blocker = _Blocker(server, workers=2)
        futures = [server.submit(q) for q in (Q_COUNT, Q_SUM, Q_FILTERED)]
        assert server.counters()["depth"] == 3
        closer = threading.Thread(target=server.close)
        closer.start()
        blocker.done()
        closer.join(30.0)
        assert not closer.is_alive()
        # Settled by the time close() returned, not merely eventually.
        assert all(future.done() for future in futures)
        assert np.array_equal(futures[0].result(0).values, solo.values)
        assert server.counters()["depth"] == 0

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
