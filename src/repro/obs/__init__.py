"""Observability: span tracing and metrics across the whole stack.

``repro.obs`` is the telemetry substrate for the five-tier compute-and-
cache system (compile -> batch -> group -> memo -> warehouse): a
low-overhead **span tracer** (:mod:`repro.obs.trace`), a mergeable
**metrics registry** (:mod:`repro.obs.metrics`), the cross-process
**fold protocol** and profile/rendering helpers
(:mod:`repro.obs.profile`), a freezable **wall clock** for persisted
stamps (:mod:`repro.obs.clock`), and the dependency-free schema
validator for ``--profile-out`` documents (:mod:`repro.obs.schema`).
On top of the collection substrate sits the read-back loop: cross-run
analytics over persisted telemetry (:mod:`repro.obs.analyze`) -- see
OBS.md, "From telemetry to decisions".  Everything here reports after
the fact; while a sweep runs, ``--progress`` prints one stderr line per
finished job (OBS.md, "Progress").

The contract with the hot paths
-------------------------------
Everything hangs off the process-wide :data:`OBS` facade.  Tracing and
metric collection are **off by default**; every instrumentation site in
the chain/runner/results tiers is guarded by a single attribute load
and branch::

    from ..obs import OBS

    if OBS.enabled:
        OBS.metrics.inc("chain.compile.hit.memo")

so a disabled process pays one predictable branch per site (asserted
at <= 2% on the batch-query benchmark by
``benchmarks/bench_obs_overhead.py``).  Enable with
:func:`configure_tracing` in code, or ``--profile-out FILE`` on any CLI
command; ``repro obs`` reads the telemetry back (``obs explain FILE``
prints the span tree).

Telemetry never enters job records: workers attach their drained
snapshot *next to* the record payload, the sweep orchestrator pops and
folds it before records are persisted, and record bytes are identical
with tracing on or off.  This package imports nothing from the rest of
``repro`` at module level but the stdlib-only :mod:`repro.context`, so
any tier can instrument itself without import cycles.  See ``OBS.md``
for the instrumentation map.
"""

from __future__ import annotations

import os

from .clock import now
from .metrics import (
    MetricsRegistry,
    bin_edges,
    bin_index,
    histogram_percentiles,
)
from .profile import (
    PROFILE_SCHEMA_VERSION,
    build_profile,
    drain_telemetry,
    merge_telemetry,
    render_span_tree,
    span_aggregates,
    telemetry_rows,
)
from . import trace as _trace_module
from .trace import Span, TRACER, Tracer, trace


class Observability:
    """The process-wide observability facade (see :data:`OBS`).

    ``enabled`` is a plain attribute -- hot paths read it with one
    attribute load and branch, never a function call.  It is flipped
    only by :func:`configure_tracing`, which keeps the tracer module's
    own fast-path flag in sync.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry):
        self.enabled = False
        self.tracer = tracer
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Observability(enabled={self.enabled})"


#: The process-wide facade every instrumentation site reads.
OBS = Observability(TRACER, MetricsRegistry())


def _count_dropped_spans(count: int) -> None:
    """Ring-eviction hook: a full span ring evicting ``count`` finished
    roots increments ``obs.spans.dropped``, so a ``--profile-out``
    document flags its own truncation instead of leaving it silent."""
    OBS.metrics.inc("obs.spans.dropped", count)


TRACER.on_evict = _count_dropped_spans


def _reset_in_forked_child() -> None:
    """Start forked children with clean telemetry state.

    A fork-started pool worker inherits the parent's ring, counters,
    and -- crucially -- the parent's *open* span stack (the sweep forks
    workers while ``sweep.execute`` is in flight).  Left alone, worker
    spans would nest under that ghost copy of the parent's open span
    (never reaching the ring, so never shipped home) and a drain would
    re-report parent-side counters.  The enabled flag is deliberately
    inherited; each job then sets it from its payload's context
    (``ExecutionContext.trace``) for as long as the job runs.
    """
    OBS.tracer.reset()
    OBS.metrics.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_in_forked_child)


def configure_tracing(enabled: bool = True) -> bool:
    """Turn span tracing and metric collection on or off, process-wide.

    Returns the previous state.  Job payloads carry this flag in their
    :class:`~repro.context.ExecutionContext` (``trace``), so pool
    workers always match the parent.  Off is the default.
    """
    previous = OBS.enabled
    OBS.enabled = bool(enabled)
    _trace_module._ENABLED = OBS.enabled
    return previous


def tracing_enabled() -> bool:
    """Whether tracing/metrics collection is currently on."""
    return OBS.enabled


def reset_telemetry() -> None:
    """Drop all collected spans and metrics (tests, fresh profiles)."""
    OBS.tracer.reset()
    OBS.metrics.reset()


__all__ = [
    "OBS",
    "Observability",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "PROFILE_SCHEMA_VERSION",
    "bin_edges",
    "bin_index",
    "build_profile",
    "configure_tracing",
    "drain_telemetry",
    "histogram_percentiles",
    "merge_telemetry",
    "now",
    "render_span_tree",
    "reset_telemetry",
    "span_aggregates",
    "telemetry_rows",
    "trace",
    "tracing_enabled",
]
