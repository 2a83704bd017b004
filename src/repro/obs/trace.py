"""Hierarchical trace spans with a near-free off switch.

The engines wrap each query phase — plan, prepare, partition, and the
per-tile point pass / polygon pass / boundary PIP —
in a :func:`span` context manager.  When no tracer is installed the call
returns a shared no-op scope after a single thread-local lookup, so the
instrumented hot paths cost one branch per phase entry (the tier-1
overhead gate in ``benchmarks/bench_trace_overhead.py`` pins this below
3% on a warm query).

Spans are plain picklable data (no parent backrefs, no locks): a tile
task forked onto a :class:`~repro.exec.backend.ProcessBackend` records
its subtree in the child and ships it home inside ``TilePartial.span``;
the parent re-attaches shipped subtrees in tile-index order during the
deterministic merge, so the final tree is identical across serial,
thread, and process backends up to timings.

``$REPRO_TRACE`` turns ambient tracing on for every query:

* unset / ``0`` / ``false`` / ``no`` / ``off`` — tracing off (default);
* ``1`` / ``true`` / ``yes`` / ``on`` — trace every query, keep the tree
  on ``result.trace`` only;
* any other value — treat it as a file path and additionally append one
  JSON-lines record per span to it (see :mod:`repro.obs.export`).

``EXPLAIN ANALYZE`` installs a tracer explicitly through :class:`use`,
independent of the environment flag.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

#: Environment variable gating ambient (per-query) tracing.
TRACE_ENV_VAR = "REPRO_TRACE"

_FALSE_FLAGS = frozenset({"", "0", "false", "no", "off"})
_TRUE_FLAGS = frozenset({"1", "true", "yes", "on"})


@dataclass
class Span:
    """One timed phase: monotonic start, duration, typed attributes.

    Children hold sub-phases; there is deliberately no parent backref so
    a subtree pickles cleanly across a fork boundary.
    """

    name: str
    start_s: float = 0.0
    duration_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def walk(self):
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]


class Tracer:
    """Owns one span tree and the open-span stack for a single thread."""

    __slots__ = ("root", "_stack")

    def __init__(self, name: str = "trace", **attrs) -> None:
        self.root = Span(name=name, start_s=time.perf_counter(),
                         attrs=dict(attrs))
        self._stack = [self.root]

    def start(self, name: str, attrs: dict) -> Span:
        span = Span(name=name, start_s=time.perf_counter(), attrs=attrs)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span.start_s
        if self._stack[-1] is span:
            self._stack.pop()

    def attach(self, span: Span) -> None:
        """Adopt an already-finished subtree (a shipped tile span)."""
        self._stack[-1].children.append(span)

    def close(self) -> Span:
        self.root.duration_s = time.perf_counter() - self.root.start_s
        return self.root


# ----------------------------------------------------------------------
# Ambient tracer (thread-local) and the one-branch span() fast path
# ----------------------------------------------------------------------
_AMBIENT = threading.local()


def active() -> Tracer | None:
    """The tracer installed on this thread, if any."""
    return getattr(_AMBIENT, "tracer", None)


class _NoopScope:
    """Shared do-nothing scope returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _NoopScope()


class _SpanScope:
    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = self._tracer.start(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc):
        self._tracer.finish(self._span)
        return False


def span(name: str, **attrs):
    """Open a child span under the ambient tracer; no-op when tracing is
    off (one thread-local lookup + one branch)."""
    tracer = getattr(_AMBIENT, "tracer", None)
    if tracer is None:
        return _NOOP
    return _SpanScope(tracer, name, attrs)


def attach(child: Span | None) -> None:
    """Re-parent a shipped span subtree under the current open span.

    Callers invoke this in tile-index order during the deterministic
    merge, so the reassembled tree has the same child order on every
    backend.  No-op when tracing is off or the subtree is ``None`` (a
    tile that ran with tracing off).
    """
    tracer = getattr(_AMBIENT, "tracer", None)
    if tracer is not None and child is not None:
        tracer.attach(child)


class use:
    """Install a tracer as this thread's ambient tracer for a block."""

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._prev = getattr(_AMBIENT, "tracer", None)
        _AMBIENT.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc):
        _AMBIENT.tracer = self._prev
        return False


# ----------------------------------------------------------------------
# Engine entry points
# ----------------------------------------------------------------------
def env_config() -> tuple[bool, str | None]:
    """(enabled, sink_path) from ``$REPRO_TRACE``."""
    raw = os.environ.get(TRACE_ENV_VAR)
    if raw is None:
        return False, None
    value = raw.strip()
    if value.lower() in _FALSE_FLAGS:
        return False, None
    if value.lower() in _TRUE_FLAGS:
        return True, None
    return True, value


class query_scope:
    """Root scope an engine enters around one query execution.

    Three behaviours, resolved at enter time:

    * a tracer is already ambient (``EXPLAIN ANALYZE``, or a query
      nested inside another traced query — e.g. optimizer calibration
      probes): open a ``query`` child span on it;
    * no tracer but ``$REPRO_TRACE`` enables tracing: create a fresh
      tracer for the query, install it, and on exit export to the JSONL
      sink if the flag named a path;
    * otherwise: yield ``None`` and cost nothing.
    """

    __slots__ = ("_engine", "_mode", "_scope", "_tracer", "_sink", "_prev")

    def __init__(self, engine: str) -> None:
        self._engine = engine

    def __enter__(self) -> Span | None:
        tracer = getattr(_AMBIENT, "tracer", None)
        if tracer is not None:
            self._mode = "nested"
            self._scope = _SpanScope(tracer, "query",
                                     {"engine": self._engine})
            return self._scope.__enter__()
        enabled, sink = env_config()
        if not enabled:
            self._mode = "off"
            return None
        self._mode = "root"
        self._sink = sink
        self._tracer = Tracer("query", engine=self._engine)
        self._prev = getattr(_AMBIENT, "tracer", None)
        _AMBIENT.tracer = self._tracer
        return self._tracer.root

    def __exit__(self, *exc):
        if self._mode == "nested":
            return self._scope.__exit__(*exc)
        if self._mode == "root":
            _AMBIENT.tracer = self._prev
            root = self._tracer.close()
            if self._sink:
                # Imported lazily: export depends on Span, not the
                # other way around.
                from repro.obs.export import append_jsonl

                try:
                    append_jsonl(root, self._sink)
                except OSError:
                    pass  # an unwritable sink must never fail the query
        return False


class tile_scope:
    """Per-tile-task scope, uniform across serial/thread/process backends.

    The parent captures ``tracing = trace.active() is not None`` before
    dispatch; each tile task then records into its *own* tracer (worker
    threads and forked children have no ambient tracer, and on the
    serial backend this temporarily shadows the parent's).  The finished
    subtree travels back inside ``TilePartial.span`` — plain picklable
    data — and the parent re-attaches it during the ordered merge.
    """

    __slots__ = ("_enabled", "_attrs", "_tracer", "_prev")

    def __init__(self, enabled: bool, **attrs) -> None:
        self._enabled = enabled
        self._attrs = attrs

    def __enter__(self) -> Span | None:
        if not self._enabled:
            return None
        self._tracer = Tracer("tile", **self._attrs)
        self._prev = getattr(_AMBIENT, "tracer", None)
        _AMBIENT.tracer = self._tracer
        return self._tracer.root

    def __exit__(self, *exc):
        if self._enabled:
            _AMBIENT.tracer = self._prev
            self._tracer.close()
        return False
