"""Execution engines: serial and process-pool job mapping.

An engine maps a picklable worker function over a list of payloads and
yields the results **in payload order** -- the one contract the rest of
the runner relies on.  Because every job derives its own seed from the
sweep's master seed and its key (see :mod:`repro.runner.spec`), the
engines are interchangeable: ``SerialEngine`` and ``ProcessPoolEngine``
with any worker count produce identical results, differing only in
wall-clock time.

Results are yielded lazily so the persistence layer can append each
record to its JSONL log as soon as the engine hands it back.  With the
process pool that hand-back is per *chunk* in submission order (the
``Executor.map`` contract), so a killed sweep re-runs every finished job
not yet yielded in order -- typically around ``workers * chunksize``
jobs, but more if an early chunk straggles behind later ones.  Grouped
exact sweeps dispatch their state-budgeted bins with ``chunksize=1``
(one bin per task; see :func:`repro.runner.sweep._group_job_payloads`),
so there a chunk is one bin's jobs.  Resumes are always safe (jobs
re-run; records never corrupt), just not always minimal.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator


class ExecutionEngine(abc.ABC):
    """Maps a worker function over payloads, preserving payload order."""

    #: Engine name as spelled on the CLI (``--engine``).
    name: str = "abstract"

    @abc.abstractmethod
    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` for each payload, in order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialEngine(ExecutionEngine):
    """In-process execution, one job at a time (the default path)."""

    name = "serial"

    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` lazily, in payload order."""
        return (fn(payload) for payload in payloads)


class ProcessPoolEngine(ExecutionEngine):
    """``concurrent.futures`` process-pool execution with chunked dispatch.

    ``workers`` defaults to ``os.cpu_count()``; ``chunksize`` defaults to
    roughly four chunks per worker so stragglers rebalance while keeping
    pickling overhead amortized.  Worker functions must be module-level
    (see :mod:`repro.runner.worker`) so they pickle by reference.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        chunksize: int | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.workers = workers or os.cpu_count() or 1
        self.chunksize = chunksize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolEngine(workers={self.workers})"

    def map(
        self, fn: Callable[[dict], dict], payloads: Iterable[dict]
    ) -> Iterator[dict]:
        """Yield ``fn(payload)`` in payload order, computed on the pool.

        The payloads are materialized into a list and dispatched through
        ``Executor.map`` in chunks; every caller builds its payload list
        up front anyway.
        """
        payloads = list(payloads)
        if not payloads:
            return iter(())
        chunksize = self.chunksize or max(
            1, len(payloads) // (self.workers * 4)
        )

        def generate() -> Iterator[dict]:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                yield from pool.map(fn, payloads, chunksize=chunksize)

        return generate()


#: CLI spellings of the built-in engines.
ENGINE_NAMES = ("serial", "process")


def make_engine(
    name: str,
    workers: int | None = None,
    chunksize: int | None = None,
) -> ExecutionEngine:
    """Build an engine from its CLI spelling (``serial`` or ``process``)."""
    if name == "serial":
        return SerialEngine()
    if name == "process":
        return ProcessPoolEngine(workers=workers, chunksize=chunksize)
    raise ValueError(f"unknown engine {name!r}")


__all__ = [
    "ENGINE_NAMES",
    "ExecutionEngine",
    "ProcessPoolEngine",
    "SerialEngine",
    "make_engine",
]
