"""Stdlib-only process resource sampling: RSS peak, CPU time, GC work.

Heartbeats (:mod:`repro.obs.live`) need a cheap "how is this worker
doing" probe that works inside a forked pool worker without any
third-party dependency.  :func:`sample` reads three families of state:

* **peak RSS** from ``resource.getrusage`` -- ``ru_maxrss`` is the
  process high-water mark, in KiB on Linux and bytes on macOS;
  :data:`RSS_SCALE` normalizes both to bytes.  A high-water mark is
  monotone, which is exactly what the max-merge gauge law wants.
* **CPU seconds** -- user plus system time, also from ``getrusage``.
  Monotone again.
* **GC collections** -- the summed collection count across generations
  from ``gc.get_stats()``; a worker churning allocation shows up here
  long before it shows up in RSS.

On platforms without the ``resource`` module (Windows), the rusage
fields degrade to zero and the GC count still works -- callers never
need a platform guard.  Like the rest of ``repro.obs``, this module
imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import gc
import sys

try:  # pragma: no branch - POSIX always has it
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None

#: ``ru_maxrss`` unit: KiB everywhere POSIX except macOS, which
#: reports bytes.
RSS_SCALE = 1 if sys.platform == "darwin" else 1024


def sample() -> dict:
    """One JSON-safe reading of this process's resource state.

    Returns ``{"rss_peak": bytes, "cpu_seconds": float,
    "gc_collections": int}``.  Every field is monotone non-decreasing
    over the life of the process, so two samples always satisfy
    ``later >= earlier`` field-wise and the gauge max-merge law keeps
    the newest reading.
    """
    rss_peak = 0
    cpu_seconds = 0.0
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        rss_peak = int(usage.ru_maxrss) * RSS_SCALE
        cpu_seconds = float(usage.ru_utime + usage.ru_stime)
    collections = sum(
        int(generation.get("collections", 0))
        for generation in gc.get_stats()
    )
    return {
        "rss_peak": rss_peak,
        "cpu_seconds": cpu_seconds,
        "gc_collections": collections,
    }


__all__ = ["RSS_SCALE", "sample"]
