"""Exporters: JSON-lines span sink and Chrome trace_event.

Two consumers, two formats:

* :func:`append_jsonl` — the ``$REPRO_TRACE=<path>`` sink: one JSON
  object per span, flattened depth-first with ``id``/``parent`` links,
  greppable and tail-able while a workload runs.
* :func:`chrome_trace` / :func:`write_chrome_trace` — a
  ``chrome://tracing`` / Perfetto timeline: complete ("X") events in
  microseconds, tile subtrees fanned out onto per-tile tracks so the
  parallel point pass reads as lanes.
"""

from __future__ import annotations

import json

from repro.obs.trace import Span


def span_to_dict(span: Span) -> dict:
    """One span as a plain dict (children omitted — links carry shape)."""
    return {
        "name": span.name,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "attrs": dict(span.attrs),
    }


def _flatten(root: Span) -> list[dict]:
    rows: list[dict] = []

    def visit(span: Span, parent_id: int | None) -> None:
        row = span_to_dict(span)
        row["id"] = len(rows)
        row["parent"] = parent_id
        rows.append(row)
        for child in span.children:
            visit(child, row["id"])

    visit(root, None)
    return rows


def append_jsonl(root: Span, path: str) -> None:
    """Append one JSON line per span of the tree to ``path``."""
    lines = [json.dumps(row, sort_keys=True) for row in _flatten(root)]
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Chrome trace_event timeline
# ----------------------------------------------------------------------
def chrome_trace(root: Span) -> dict:
    """The span tree as a Chrome ``trace_event`` JSON object.

    Every span becomes a complete ("X") event with microsecond
    timestamps.  A span carrying a ``tile`` attribute moves its whole
    subtree onto thread track ``tile + 1``, so concurrent tile tasks
    render as parallel lanes under the query's track 0.
    """
    events: list[dict] = []

    def visit(span: Span, tid: int) -> None:
        if "tile" in span.attrs:
            tid = int(span.attrs["tile"]) + 1
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": 1,
            "tid": tid,
            "args": {k: str(v) for k, v in span.attrs.items()},
        })
        for child in span.children:
            visit(child, tid)

    visit(root, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(root: Span, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(root), handle, indent=1)
