"""EXPLAIN ANALYZE: execute a statement traced, annotate with predictions.

The paper's §8 time estimate, made inspectable: the planner executes the
statement with a tracer installed (independent of ``$REPRO_TRACE``), asks
the calibrated :class:`~repro.core.optimizer.RasterJoinOptimizer` for its
per-term predicted seconds for the planned engine — its canvas, tiles,
workers and session, read off the engine — *before* the run warms
anything, and renders the measured span tree with a predicted-vs-measured
table per cost term, including the relative error, so a drifting cost
model is visible at the SQL prompt.

Three regimes surface here, matching the cost model's paths:
``cold`` (every term paid), ``warm`` (prepared artifacts reusable, the
preparation/polygon-pass terms discounted), and ``pyramid-warm`` (the
pairing was prewarmed: the statement reads cached point framebuffers, so
the point pass scatters nothing — its term is zero — and the boundary
PIP and the polygon pass remain).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import trace
from repro.types import AggregationResult

#: Cost-model term -> the trace-span name whose measured time it predicts.
#: ``point_pass``/``boundary_pip`` spans repeat per tile (and per batch);
#: the measured figure is the sum over all same-named spans in the tree.
TERM_SPANS = {
    "prepare": "prepare",
    "point_pass": "point-pass",
    "polygon_pass": "polygon-pass",
    "boundary_pip": "boundary-pip",
}

#: Span attributes worth echoing in the rendered tree (everything else —
#: the stats stamp on the query root in particular — stays machine-only).
_SHOWN_ATTRS = (
    "engine", "tile", "tiles", "points", "polygons", "mode", "pairs",
    "concurrent",
)


@dataclass
class ExplainResult:
    """What ``EXPLAIN ANALYZE`` returns: the executed result plus report.

    ``result`` is the ordinary :class:`~repro.types.AggregationResult`
    (the statement really ran); ``regime`` names the optimizer cost path
    (``cold`` / ``warm`` / ``pyramid-warm``); ``predicted`` and
    ``measured`` map term names to seconds; ``text`` is the rendered
    report (also what ``str()`` yields).
    """

    result: AggregationResult
    regime: str
    predicted: dict[str, float]
    measured: dict[str, float]
    root: trace.Span
    text: str

    def __str__(self) -> str:
        return self.text


def measured_terms(root: trace.Span) -> dict[str, float]:
    """Sum measured span seconds per cost-model term over the tree."""
    out: dict[str, float] = {}
    for term, span_name in TERM_SPANS.items():
        spans = root.find(span_name)
        if spans:
            out[term] = sum(s.duration_s for s in spans)
    return out


def _render_span(span: trace.Span, depth: int, lines: list[str]) -> None:
    attrs = ", ".join(
        f"{key}={span.attrs[key]}" for key in _SHOWN_ATTRS
        if key in span.attrs
    )
    suffix = f"  [{attrs}]" if attrs else ""
    lines.append(
        f"{'  ' * depth}{span.name:<{max(2, 24 - 2 * depth)}} "
        f"{span.duration_s * 1e3:10.3f} ms{suffix}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render(
    root: trace.Span,
    regime: str,
    predicted: dict[str, float],
    measured: dict[str, float],
) -> str:
    """The human-facing report: span tree, then the prediction table."""
    lines: list[str] = [f"regime: {regime}", ""]
    _render_span(root, 0, lines)
    lines.append("")
    lines.append(
        f"{'term':<16} {'predicted':>12} {'measured':>12} {'rel_error':>10}"
    )
    for term in TERM_SPANS:
        if term not in predicted and term not in measured:
            continue
        pred = predicted.get(term, 0.0)
        meas = measured.get(term)
        if meas is None:
            meas_text, err_text = "-", "-"
        else:
            meas_text = f"{meas:.6f}"
            err_text = (
                f"{(pred - meas) / meas:+.2f}" if meas > 0.0 else "-"
            )
        lines.append(
            f"{term:<16} {pred:12.6f} {meas_text:>12} {err_text:>10}"
        )
    return "\n".join(lines)


def explain_analyze(
    optimizer,
    engine,
    points,
    polygons,
    aggregate,
    filters,
    statement=None,
) -> ExplainResult:
    """Run one planned statement traced and build the annotated report.

    The prediction is taken *before* execution — running the query warms
    the session, and a post-hoc probe would misreport a cold run as warm.
    """
    regime, predicted = optimizer.explain_terms(
        points, polygons, engine, aggregate, filters
    )
    tracer = trace.Tracer(
        "explain",
        statement="" if statement is None else str(statement),
    )
    with trace.use(tracer):
        result = engine.execute(
            points, polygons, aggregate=aggregate, filters=filters
        )
    tracer.close()
    root = result.trace if result.trace is not None else tracer.root
    measured = measured_terms(root)
    return ExplainResult(
        result=result,
        regime=regime,
        predicted=predicted,
        measured=measured,
        root=root,
        text=render(root, regime, predicted, measured),
    )
