"""Low-overhead span tracer: nested timed spans in a per-process ring.

A **span** is one named, timed region with attributes and child spans.
The :class:`trace` context manager / decorator opens one; nesting is
tracked per thread (a span opened while another is open becomes its
child), and finished *root* spans land in the tracer's bounded ring
buffer so a long-lived process cannot grow without bound.

Tracing is **off by default** and costs one module-global check plus
two ``perf_counter`` reads per :class:`trace` block when disabled --
:class:`trace` always measures its duration (the runner reuses it for
the ``elapsed`` record field, which must not depend on whether tracing
is on), it just builds no span objects.  Hot paths with their own
``if OBS.enabled:`` guard pay a single attribute load and branch.

Enable with :func:`repro.obs.configure_tracing`, or ``--profile-out
FILE`` on any CLI command.  Durations come from ``time.perf_counter`` --
monotonic, never the wall clock.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from time import perf_counter
from typing import Callable

#: Maximum finished *root* spans the ring retains (children hang off
#: their root and are not counted separately).
DEFAULT_RING_CAPACITY = 1024

#: Module-global enabled flag; flipped only by
#: :func:`repro.obs.configure_tracing` so the facade's ``OBS.enabled``
#: attribute and this flag can never disagree.
_ENABLED = False


class Span:
    """One finished or in-flight traced region."""

    __slots__ = ("name", "attrs", "started", "duration", "children")

    def __init__(self, name: str, attrs: "dict | None" = None):
        self.name = name
        self.attrs = attrs or {}
        #: ``perf_counter`` at entry -- an ordering key within one
        #: process, not a wall-clock time.
        self.started = 0.0
        self.duration = 0.0
        self.children: list[Span] = []

    def to_dict(self) -> dict:
        """JSON-safe form (the cross-process and profile wire format)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "started": self.started,
            "duration": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        span = cls(str(payload.get("name", "")), dict(payload.get("attrs")
                                                      or {}))
        span.started = float(payload.get("started", 0.0))
        span.duration = float(payload.get("duration", 0.0))
        span.children = [
            cls.from_dict(child) for child in payload.get("children") or ()
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Per-thread open-span stacks over one locked ring of finished roots."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()
        #: Called once per finished root span the full ring evicts
        #: (:mod:`repro.obs` wires it to the ``obs.spans.dropped``
        #: counter), so a truncated profile is detectable instead of
        #: silent.  Invoked outside the ring lock.
        self.on_evict: "Callable[[int], None] | None" = None

    def _notify_evicted(self, count: int) -> None:
        if count > 0 and self.on_evict is not None:
            self.on_evict(count)

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Span lifecycle (driven by the ``trace`` context manager)
    # ------------------------------------------------------------------
    def begin(self, span: Span) -> None:
        """Push ``span`` onto this thread's open stack."""
        self._stack().append(span)

    def finish(self, span: Span) -> None:
        """Pop ``span``; attach to its parent or, for roots, the ring."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit (an exception skipped a frame): recover
            try:
                stack.remove(span)
            except ValueError:
                pass
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                evicted = len(self._ring) == self._ring.maxlen
                self._ring.append(span)
            self._notify_evicted(int(evicted))

    def current(self) -> "Span | None":
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Reading, draining, folding
    # ------------------------------------------------------------------
    def roots(self) -> "list[Span]":
        """Finished root spans currently in the ring (oldest first)."""
        with self._lock:
            return list(self._ring)

    def finished(self) -> "list[Span]":
        """Every *finished* span tree visible right now.

        The ring's roots plus the finished children of any span still
        open on the calling thread -- so a profile built mid-command
        (while the CLI's root span is still open) sees the completed
        phases, not an empty ring.
        """
        found = self.roots()
        for open_span in self._stack():
            found.extend(open_span.children)
        return found

    def drain(self) -> "list[Span]":
        """Atomically empty the ring and return what it held.

        The worker-side half of cross-process folding (open spans stay
        on their thread stacks and are never shipped mid-flight).
        """
        with self._lock:
            roots = list(self._ring)
            self._ring.clear()
        return roots

    def adopt(self, spans: "list[Span]") -> None:
        """Fold drained spans in: under the current open span, if any.

        The parent-side half of cross-process folding -- worker spans
        merged during a traced sweep become children of the sweep's
        in-flight phase span; with no span open they join the ring.
        """
        if not spans:
            return
        current = self.current()
        if current is not None:
            current.children.extend(spans)
            return
        with self._lock:
            evicted = max(
                0, len(self._ring) + len(spans) - (self._ring.maxlen or 0)
            )
            self._ring.extend(spans)
        self._notify_evicted(evicted)

    def reset(self) -> None:
        """Drop the ring and this thread's open stack (tests)."""
        with self._lock:
            self._ring.clear()
        self._local.stack = []


#: The process-wide tracer (re-exported as ``repro.obs.OBS.tracer``).
TRACER = Tracer()


class trace:
    """Context manager / decorator timing one span.

    ``with trace("runner.job", key=...) as timer:`` always measures
    ``timer.duration`` (two ``perf_counter`` reads); a :class:`Span` is
    built, nested, and retained only while tracing is enabled.  As a
    decorator, ``@trace("name")`` wraps the function body in a span per
    call.
    """

    __slots__ = ("name", "attrs", "duration", "_t0", "_span")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs
        self.duration = 0.0
        self._t0 = 0.0
        self._span: "Span | None" = None

    def __enter__(self) -> "trace":
        if _ENABLED:
            span = self._span = Span(self.name, self.attrs)
            span.started = perf_counter()
            TRACER.begin(span)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = perf_counter() - self._t0
        span = self._span
        if span is not None:
            span.duration = self.duration
            self._span = None
            TRACER.finish(span)
        return False

    def __call__(self, fn):
        """Decorator form: one span (same name/attrs) per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace(self.name, **self.attrs):
                return fn(*args, **kwargs)

        return wrapper


__all__ = ["DEFAULT_RING_CAPACITY", "Span", "TRACER", "Tracer", "trace"]
