"""Unit tests for result and statistics types."""

import numpy as np

from repro.types import AggregationResult, ExecutionStats, ResultIntervals


class TestExecutionStats:
    def test_query_time_excludes_preprocessing(self):
        stats = ExecutionStats(
            transfer_s=1.0, processing_s=2.0, io_s=0.5,
            triangulation_s=10.0, index_build_s=5.0,
        )
        assert stats.query_s == 3.5
        assert stats.total_s == 18.5

    def test_merge_accumulates(self):
        a = ExecutionStats(transfer_s=1.0, pip_tests=10, batches=2, passes=1)
        b = ExecutionStats(transfer_s=0.5, pip_tests=5, batches=3, passes=2)
        a.merge(b)
        assert a.transfer_s == 1.5
        assert a.pip_tests == 15
        assert a.batches == 5
        assert a.passes == 3

    def test_defaults_are_zero(self):
        stats = ExecutionStats(engine="x")
        assert stats.query_s == 0.0
        assert stats.extra == {}

    def test_merge_sums_numeric_extras(self):
        # Regression: merge() used to drop ``extra`` entirely, so
        # per-chunk work counters vanished from streamed runs.
        a = ExecutionStats(extra={"boundary_pixels": 10, "join_size": 2.5})
        b = ExecutionStats(extra={"boundary_pixels": 32, "join_size": 1.5,
                                  "materialized_pairs": 7})
        a.merge(b)
        assert a.extra["boundary_pixels"] == 42
        assert a.extra["join_size"] == 4.0
        assert a.extra["materialized_pairs"] == 7

    def test_merge_strings_and_bools_are_last_writer(self):
        a = ExecutionStats(extra={"partition": "off", "pool": "spawned",
                                  "warm": False})
        b = ExecutionStats(extra={"partition": "on", "pool": "reused",
                                  "warm": True})
        a.merge(b)
        assert a.extra == {"partition": "on", "pool": "reused", "warm": True}

    def test_merge_bool_never_sums_into_a_count(self):
        # bool is an int subclass: True+True must not become 2.
        a = ExecutionStats(extra={"flag": True})
        a.merge(ExecutionStats(extra={"flag": True}))
        assert a.extra["flag"] is True

    def test_merge_type_conflict_takes_last_writer(self):
        a = ExecutionStats(extra={"key": "text"})
        a.merge(ExecutionStats(extra={"key": 3}))
        assert a.extra["key"] == 3

    def test_summary_is_aligned_and_complete(self):
        stats = ExecutionStats(
            engine="accurate-raster", transfer_s=0.25, processing_s=1.0,
            pip_tests=7, boundary_points=3,
            extra={"tiles": 4, "partition": "on"},
        )
        text = stats.summary()
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert any(line.startswith("engine") and
                   line.endswith("accurate-raster") for line in lines)
        assert any("query_s" in line and "1.2500" in line for line in lines)
        assert any("extra.tiles" in line for line in lines)
        assert any("extra.partition" in line for line in lines)

    def test_summary_hides_zero_conditionals(self):
        text = ExecutionStats(engine="x").summary()
        assert "pip_tests" not in text
        assert "boundary_points" not in text
        assert "prepared_hits" not in text

    def test_as_span_attrs_round_trips_the_breakdown(self):
        stats = ExecutionStats(engine="e", transfer_s=0.5, processing_s=1.5,
                               extra={"tiles": 2})
        attrs = stats.as_span_attrs()
        assert attrs["engine"] == "e"
        assert attrs["query_s"] == stats.query_s
        assert attrs["extra.tiles"] == 2


class TestResultIntervals:
    def make(self):
        return ResultIntervals(
            loose_lo=np.asarray([0.0, 10.0]),
            loose_hi=np.asarray([5.0, 20.0]),
            expected_lo=np.asarray([1.0, 12.0]),
            expected_hi=np.asarray([4.0, 18.0]),
            expected_value=np.asarray([2.5, 15.0]),
        )

    def test_contains_inclusive(self):
        iv = self.make()
        assert iv.contains(np.asarray([0.0, 20.0])).all()
        assert iv.contains(np.asarray([5.0, 10.0])).all()

    def test_contains_rejects_outside(self):
        iv = self.make()
        out = iv.contains(np.asarray([6.0, 15.0]))
        assert not out[0] and out[1]


class TestAggregationResult:
    def make(self, values):
        return AggregationResult(
            values=np.asarray(values, dtype=float),
            channels={"count": np.asarray(values, dtype=float)},
            stats=ExecutionStats(engine="t"),
        )

    def test_len(self):
        assert len(self.make([1, 2, 3])) == 3
