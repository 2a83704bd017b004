"""Process-wide metrics registry: counters, gauges, histograms, labels.

One global :data:`REGISTRY` collects operational counts the flat
per-query :class:`~repro.types.ExecutionStats` cannot: cache-tier
hit/miss/evict/demote rates across queries, store save/load bytes and
latencies, cached-channel builds, backend pool reuse,
and the device-memory high-water mark.  The module-level helpers
(:func:`counter`, :func:`gauge_set`, :func:`gauge_max`, :func:`observe`)
all delegate to it.

Instrumented call sites sit on cache/store/dispatch paths — never in
per-point loops — so a plain lock is cheap enough.  Metrics incremented
inside a forked process-backend worker do not die with the child: each
task captures a :meth:`MetricsRegistry.baseline` before
running and ships the :meth:`~MetricsRegistry.delta_since` home in
``TilePartial.metrics``, which the parent's deterministic merge folds
back with :meth:`~MetricsRegistry.apply_delta`.  Deltas cover counters
and histograms; gauges stay process-local facts (a worker's
memory-level gauge describes the worker, not the parent) and are
excluded by design — see ``docs/observability.md``.

Snapshots render metric keys Prometheus-style — ``name{k="v",...}`` with
labels sorted — which makes JSON snapshots diffable.
"""

from __future__ import annotations

import os
import threading

#: Default histogram bucket upper bounds (seconds); chosen for IO
#: latencies that span sub-millisecond mmap loads to multi-second cold
#: saves.  A histogram with another range declares its own bounds at its
#: first observation (:meth:`MetricsRegistry.observe`).
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    __slots__ = ("count", "sum", "min", "max", "bounds", "buckets")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {},
        }
        for i, bound in enumerate(self.bounds):
            out["buckets"][f"le_{bound:g}"] = self.buckets[i]
        out["buckets"]["le_inf"] = self.buckets[-1]
        return out


class MetricsRegistry:
    """Thread-safe named counters/gauges/histograms with labels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, amount: float = 1, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def gauge_set(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def gauge_max(self, name: str, value: float, **labels) -> None:
        """Set the gauge to ``max(current, value)`` — high-water marks."""
        key = _key(name, labels)
        with self._lock:
            current = self._gauges.get(key)
            if current is None or value > current:
                self._gauges[key] = value

    def observe(self, name: str, value: float,
                bounds: tuple = DEFAULT_BUCKETS, **labels) -> None:
        """Record ``value``.  ``bounds`` (bucket upper bounds, ascending)
        are declared once, by the histogram's first observation; later
        calls cannot re-bucket what was already counted."""
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(bounds)
            hist.observe(value)

    # ------------------------------------------------------------------
    # Cross-process deltas (TilePartial.metrics round trip)
    # ------------------------------------------------------------------
    def baseline(self) -> dict:
        """A cheap snapshot for :meth:`delta_since` (counters/histograms).

        Histograms are captured as raw state tuples, not rendered
        dicts — a worker calls this once per task, so it stays light.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    k: (h.count, h.sum, h.min, h.max, tuple(h.buckets))
                    for k, h in self._histograms.items()
                },
            }

    def delta_since(self, baseline: dict) -> dict:
        """Increments made since ``baseline``, as a picklable dict.

        Keys with no change are omitted, so the common no-instrumented-
        work tile ships an empty dict (dropped by the caller).  Gauges
        are deliberately absent: they are process-local level facts, not
        increments, and merging a worker's would clobber the parent's.
        """
        base_counters = baseline["counters"]
        base_hists = baseline["histograms"]
        delta: dict = {}
        with self._lock:
            counters = {
                k: v - base_counters.get(k, 0)
                for k, v in self._counters.items()
                if v != base_counters.get(k, 0)
            }
            histograms = {}
            for k, h in self._histograms.items():
                prev = base_hists.get(k)
                if prev is not None and prev[0] == h.count:
                    continue
                if prev is None:
                    prev = (0, 0.0, float("inf"), float("-inf"),
                            (0,) * len(h.buckets))
                histograms[k] = (
                    h.count - prev[0],
                    h.sum - prev[1],
                    h.min,
                    h.max,
                    tuple(b - p for b, p in zip(h.buckets, prev[4])),
                    h.bounds,
                )
        if counters:
            delta["counters"] = counters
        if histograms:
            delta["histograms"] = histograms
        return delta

    def apply_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta_since` result into this registry.

        Counter and bucket increments add; histogram min/max merge by
        comparison (a delta's min/max are the worker's observed extremes,
        which bound the deltas' own observations).
        """
        with self._lock:
            for k, v in delta.get("counters", {}).items():
                self._counters[k] = self._counters.get(k, 0) + v
            for k, (count, total, low, high, buckets, bounds) in delta.get(
                "histograms", {}
            ).items():
                hist = self._histograms.get(k)
                if hist is None:
                    hist = self._histograms[k] = _Histogram(bounds)
                hist.count += count
                hist.sum += total
                hist.min = min(hist.min, low)
                hist.max = max(hist.max, high)
                for i, b in enumerate(buckets):
                    hist.buckets[i] += b

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A point-in-time plain-dict copy, safe to mutate or serialize."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.as_dict() for k, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Clear everything (tests and benchmark legs isolate with this)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumented call site reports to.
REGISTRY = MetricsRegistry()


def _rearm_registry_lock_after_fork() -> None:  # pragma: no cover - fork path
    # A forked tile task takes this lock first (its metrics baseline), so
    # a fork taken while another thread held it would leave the child
    # blocked for good; the child re-arms it (as sessions and devices do).
    REGISTRY._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_registry_lock_after_fork)


def counter(name: str, amount: float = 1, **labels) -> None:
    REGISTRY.counter(name, amount, **labels)


def gauge_set(name: str, value: float, **labels) -> None:
    REGISTRY.gauge_set(name, value, **labels)


def gauge_max(name: str, value: float, **labels) -> None:
    REGISTRY.gauge_max(name, value, **labels)


def observe(name: str, value: float, bounds: tuple = DEFAULT_BUCKETS,
            **labels) -> None:
    REGISTRY.observe(name, value, bounds, **labels)


def snapshot() -> dict:
    return REGISTRY.snapshot()
