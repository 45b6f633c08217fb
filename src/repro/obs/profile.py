"""Folding and serving telemetry: drain/merge, aggregates, profiles.

The cross-process protocol is deliberately dumb: a worker calls
:func:`drain_telemetry` after a job and attaches the JSON-safe dict to
its result payload; the orchestrator pops it off the record (telemetry
never stays in job records -- their bytes are identical with tracing on
or off) and calls :func:`merge_telemetry`.  Counters sum, gauges max,
histogram buckets sum, and drained spans nest under whatever span the
orchestrator currently has open -- so a traced sweep's tree shows the
workers' job spans inside the sweep's execute phase.

In a serial engine the "worker" *is* the parent process, so each
drain-and-merge round trip nets to the unchanged registry: the same
engine-invariant totals come out of a serial run and a pool run.

:func:`build_profile` assembles the ``--profile-out`` JSON document
(validated by the checked-in ``profile.schema.json``), the one place
telemetry is kept; :func:`span_aggregates`, :func:`render_span_tree`
and :func:`self_time_rows` summarize its span forest (``repro obs
explain FILE`` prints the tree and the self-time table).
"""

from __future__ import annotations

import time

from .trace import Span, TRACER, trace  # noqa: F401  (re-export convenience)
from .metrics import MetricsRegistry  # noqa: F401


def drain_telemetry(registry=None, tracer=None) -> dict:
    """Snapshot-and-reset this process's metrics and finished spans.

    Returns a JSON-safe ``{"metrics": ..., "spans": [...]}`` payload for
    the worker return path.  Open spans are untouched (they finish on
    their own thread); the ring is emptied, so successive drains ship
    disjoint deltas.
    """
    from . import OBS

    registry = OBS.metrics if registry is None else registry
    tracer = OBS.tracer if tracer is None else tracer
    return {
        "metrics": registry.drain(),
        "spans": [span.to_dict() for span in tracer.drain()],
    }


def merge_telemetry(payload: dict, registry=None, tracer=None) -> None:
    """Fold one :func:`drain_telemetry` payload into this process.

    Spans nest under the caller's innermost open span (or the ring);
    metrics fold per the registry's merge rules.  Tolerant of partial
    payloads -- a worker that shipped nothing costs nothing.
    """
    from . import OBS

    if not isinstance(payload, dict):
        return
    registry = OBS.metrics if registry is None else registry
    tracer = OBS.tracer if tracer is None else tracer
    metrics = payload.get("metrics")
    if metrics:
        registry.merge(metrics)
    spans = payload.get("spans")
    if spans:
        tracer.adopt([Span.from_dict(span) for span in spans])


# ----------------------------------------------------------------------
# Aggregation and rendering
# ----------------------------------------------------------------------
def _walk(span: Span, depth: int, visit) -> float:
    child_total = 0.0
    for child in span.children:
        child_total += _walk(child, depth + 1, visit)
    visit(span, depth, max(0.0, span.duration - child_total))
    return span.duration


def span_aggregates(spans: "list[Span] | None" = None) -> dict:
    """Per-name call counts and total/self seconds over span trees.

    ``self`` time is a span's duration minus its children's -- the time
    spent *at* that tier rather than below it.  Defaults to every
    finished span the process-wide tracer can see (ring plus completed
    children of the calling thread's open spans).
    """
    if spans is None:
        spans = TRACER.finished()
    totals: dict[str, dict] = {}

    def visit(span: Span, depth: int, self_seconds: float) -> None:
        entry = totals.get(span.name)
        if entry is None:
            entry = totals[span.name] = {
                "calls": 0, "total": 0.0, "self": 0.0
            }
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["self"] += self_seconds

    for span in spans:
        _walk(span, 0, visit)
    return totals


def render_span_tree(spans: "list[Span] | None" = None) -> str:
    """The span forest as an indented text tree with total/self times.

    Sibling spans with the same name aggregate into one line (calls,
    summed total, summed self), so a sweep over 100 jobs renders as one
    ``runner.job`` line, not 100.
    """
    if spans is None:
        spans = TRACER.finished()
    if not spans:
        return "no spans recorded (tracing off or nothing traced)"
    lines = [
        f"{'span':<44} {'calls':>6} {'total':>12} {'self':>12}"
    ]

    def render_level(spans: "list[Span]", depth: int) -> None:
        groups: dict[str, list[Span]] = {}
        for span in spans:
            groups.setdefault(span.name, []).append(span)
        for name, members in groups.items():
            total = sum(span.duration for span in members)
            children = [c for span in members for c in span.children]
            child_total = sum(child.duration for child in children)
            self_seconds = max(0.0, total - child_total)
            label = "  " * depth + name
            lines.append(
                f"{label:<44} {len(members):>6} "
                f"{total * 1e3:>10.3f}ms {self_seconds * 1e3:>10.3f}ms"
            )
            if children:
                render_level(children, depth + 1)

    render_level(list(spans), 0)
    return "\n".join(lines)


def self_time_rows(aggregates: dict) -> list:
    """Per-name self time from :func:`span_aggregates` output.

    Returns ``(name, self seconds, calls, share)`` tuples sorted by
    descending self time, ``share`` normalized over the total self time
    of every span, so the shares sum to 1: where the wall clock went,
    tier by tier, without double-counting nested spans.
    """
    total = sum(entry["self"] for entry in aggregates.values())
    rows = [
        (name, entry["self"], entry["calls"],
         entry["self"] / total if total > 0.0 else 0.0)
        for name, entry in aggregates.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


# ----------------------------------------------------------------------
# Profile documents
# ----------------------------------------------------------------------
#: Version of the ``--profile-out`` document layout.  2 added per-
#: histogram ``percentiles`` (p50/p90/p99 derived from the log2
#: buckets) and this version marker itself.
PROFILE_SCHEMA_VERSION = 2


def build_profile(command: str = "", argv=()) -> dict:
    """The ``--profile-out`` JSON document for the current process.

    Contains the metrics snapshot (histograms augmented with
    p50/p90/p99 estimates -- see
    :func:`repro.obs.metrics.histogram_percentiles`), the finished span
    forest, and the per-name aggregates; validates against
    ``src/repro/obs/profile.schema.json`` (see :mod:`repro.obs.schema`).
    """
    from . import OBS
    from .metrics import histogram_percentiles

    spans = TRACER.finished()
    snapshot = OBS.metrics.snapshot()
    for hist in snapshot["histograms"].values():
        hist["percentiles"] = histogram_percentiles(hist)
    return {
        "meta": {
            "command": str(command),
            "argv": [str(arg) for arg in argv],
            "stamp": time.time(),
            "schema_version": PROFILE_SCHEMA_VERSION,
        },
        "metrics": snapshot,
        "spans": [span.to_dict() for span in spans],
        "aggregates": span_aggregates(spans),
    }


__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "build_profile",
    "drain_telemetry",
    "merge_telemetry",
    "render_span_tree",
    "self_time_rows",
    "span_aggregates",
]
