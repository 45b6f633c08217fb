"""How a job runs, as one value: :class:`ExecutionContext`.

Which chains a compile folds, where query answers persist and whether
a job traces are not arguments of the numeric functions; they are the
context a job runs in.  A process has one slot for it.
:func:`current_context` reads the slot; :func:`use_context` sets it for
one ``with`` block and restores the previous value on exit, even on
error.

The CLI builds the value from its flags, :func:`repro.runner.run_sweep`
extends the caller's value with a run's memo directory, and every
worker payload carries the value to the ``execute_*`` function that
runs it, which enters it the same way.  A job therefore sees the same
context serially and in a pool, and nothing a job enters outlives it.

Stdlib only, so that ``chain``, ``results``, ``sampling``, ``obs`` and
``runner`` can all read it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Iterator

#: Quotient modes: ``"off"`` always compiles the full chain, ``"on"``
#: always the symmetry quotient, ``"auto"`` the quotient exactly when
#: the configuration has a nontrivial automorphism.
QUOTIENT_MODES = ("off", "auto", "on")


@dataclasses.dataclass(frozen=True)
class ExecutionContext:
    """How jobs run; the defaults are the library's.

    Paths are stored as strings, so equal directories compare equal
    and the value pickles into worker payloads as it is.
    """

    #: The quotient mode (:data:`QUOTIENT_MODES`); the CLI's is "auto".
    quotient: str = "off"
    #: Directory of the cross-run query memo, or ``None``.
    results_memo: "str | None" = None
    #: Whether jobs trace.  In a process the switch behind
    #: ``repro.obs.OBS.enabled`` decides; payloads copy it here so pool
    #: workers trace exactly when their parent does.
    trace: bool = False

    def __post_init__(self) -> None:
        if self.quotient not in QUOTIENT_MODES:
            raise ValueError(
                f"unknown quotient mode {self.quotient!r}; expected one "
                f"of {QUOTIENT_MODES}"
            )
        if self.results_memo is not None:
            object.__setattr__(
                self, "results_memo", os.fspath(self.results_memo)
            )


_CURRENT = ExecutionContext()


def current_context() -> ExecutionContext:
    """The context the calling code runs in."""
    return _CURRENT


@contextlib.contextmanager
def use_context(
    context: ExecutionContext,
) -> Iterator[ExecutionContext]:
    """Run the ``with`` block in ``context``; restore the previous one
    after it, even on error."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, context
    try:
        yield context
    finally:
        _CURRENT = previous


__all__ = [
    "ExecutionContext",
    "QUOTIENT_MODES",
    "current_context",
    "use_context",
]
