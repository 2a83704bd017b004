"""Unit tests for the process-wide metrics registry."""

import threading

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestCounters:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        reg.counter("hits", 2)
        assert reg.snapshot()["counters"] == {"hits": 3}

    def test_labels_sorted_into_prometheus_keys(self):
        reg = MetricsRegistry()
        reg.counter("lookups", result="hit", tier="memory")
        reg.counter("lookups", tier="memory", result="hit")
        snap = reg.snapshot()["counters"]
        assert snap == {'lookups{result="hit",tier="memory"}': 2}

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("lookups", result="hit")
        reg.counter("lookups", result="miss")
        assert len(reg.snapshot()["counters"]) == 2


class TestGauges:
    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge_set("depth", 3)
        reg.gauge_set("depth", 1)
        assert reg.snapshot()["gauges"]["depth"] == 1

    def test_gauge_max_keeps_high_water(self):
        reg = MetricsRegistry()
        reg.gauge_max("peak", 10)
        reg.gauge_max("peak", 4)
        reg.gauge_max("peak", 25)
        assert reg.snapshot()["gauges"]["peak"] == 25


class TestHistograms:
    def test_observe_tracks_count_sum_min_max(self):
        reg = MetricsRegistry()
        for v in (0.002, 0.05, 1.5):
            reg.observe("latency", v)
        hist = reg.snapshot()["histograms"]["latency"]
        assert hist["count"] == 3
        assert abs(hist["sum"] - 1.552) < 1e-12
        assert hist["min"] == 0.002
        assert hist["max"] == 1.5

    def test_bucket_assignment(self):
        reg = MetricsRegistry()
        reg.observe("latency", 0.0005)   # <= 0.001
        reg.observe("latency", 100.0)    # above every bound
        buckets = reg.snapshot()["histograms"]["latency"]["buckets"]
        assert buckets[f"le_{DEFAULT_BUCKETS[0]:g}"] == 1
        assert buckets["le_inf"] == 1


    def test_bounds_are_declared_by_the_first_observation(self):
        reg = MetricsRegistry()
        reg.observe("wait", 0.0002, bounds=(0.0001, 0.001))
        # Later calls cannot re-bucket what was already counted.
        reg.observe("wait", 0.004, bounds=(1.0,))
        reg.observe("wait", 0.00005)
        hist = reg.snapshot()["histograms"]["wait"]
        assert hist["buckets"] == {
            "le_0.0001": 1, "le_0.001": 1, "le_inf": 1,
        }
        assert hist["count"] == 3


class TestRegistryBehavior:
    def test_snapshot_is_a_detached_copy(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        snap = reg.snapshot()
        snap["counters"]["hits"] = 99
        assert reg.snapshot()["counters"]["hits"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge_set("b", 1)
        reg.observe("c", 0.1)
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_concurrent_counting_is_lossless(self):
        reg = MetricsRegistry()

        def bump():
            for _ in range(1000):
                reg.counter("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["counters"]["n"] == 8000

    def test_counters_never_negative_on_instrumented_paths(self):
        # The instrumented call sites only ever add positive amounts;
        # this pins the registry-side invariant the property suite
        # relies on.
        reg = MetricsRegistry()
        reg.counter("bytes", 123, kind="prepared")
        for value in reg.snapshot()["counters"].values():
            assert value >= 0


class TestCrossProcessDeltas:
    """baseline/delta_since/apply_delta — the TilePartial round trip."""

    def test_delta_captures_only_new_increments(self):
        reg = MetricsRegistry()
        reg.counter("warm", 5)
        base = reg.baseline()
        reg.counter("warm", 2)
        reg.counter("fresh", 3, kind="tile")
        delta = reg.delta_since(base)
        assert delta["counters"] == {"warm": 2, 'fresh{kind="tile"}': 3}

    def test_no_change_means_empty_delta(self):
        reg = MetricsRegistry()
        reg.counter("warm")
        reg.observe("lat", 0.5)
        base = reg.baseline()
        assert reg.delta_since(base) == {}

    def test_apply_delta_folds_counters(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        parent.counter("tiles", 4)
        base = worker.baseline()
        worker.counter("tiles", 2)
        parent.apply_delta(worker.delta_since(base))
        assert parent.snapshot()["counters"]["tiles"] == 6

    def test_apply_delta_carries_a_histograms_own_bounds(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        base = worker.baseline()
        worker.observe("wait", 0.0002, bounds=(0.0001, 0.001))
        parent.apply_delta(worker.delta_since(base))
        assert parent.snapshot()["histograms"]["wait"]["buckets"] == {
            "le_0.0001": 0, "le_0.001": 1, "le_inf": 0,
        }

    def test_apply_delta_merges_histograms(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        parent.observe("lat", 1.0)
        base = worker.baseline()
        worker.observe("lat", 0.25)
        worker.observe("lat", 8.0)
        parent.apply_delta(worker.delta_since(base))
        hist = parent.snapshot()["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["sum"] == 9.25
        assert hist["min"] == 0.25
        assert hist["max"] == 8.0

    def test_gauges_never_travel(self):
        reg = MetricsRegistry()
        base = reg.baseline()
        reg.gauge_set("level", 42)
        assert reg.delta_since(base) == {}, (
            "gauges are process-local level facts, not increments"
        )

    def test_delta_round_trips_through_pickle(self):
        import pickle

        reg = MetricsRegistry()
        base = reg.baseline()
        reg.counter("n", 7)
        reg.observe("lat", 0.1)
        delta = pickle.loads(pickle.dumps(reg.delta_since(base)))
        parent = MetricsRegistry()
        parent.apply_delta(delta)
        assert parent.snapshot()["counters"]["n"] == 7
