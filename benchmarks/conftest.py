"""Shared options for the layer benchmarks.

Each ``bench_*.py`` measures one layer of the compute-and-cache stack
against its baseline and asserts that both give the same answers.  Run
with ``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*' --benchmark-only``; most also run as
scripts (``python benchmarks/bench_results_store.py``).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    """Engine selection for runner-aware benchmarks.

    ``--bench-engine process --bench-workers 4`` points the ``engine``
    fixture at a process pool; the default serial engine reproduces the
    single-core numbers.  (Only in effect when pytest is invoked on the
    ``benchmarks/`` directory, where this conftest is an initial one.)
    """
    from repro.runner import ENGINE_NAMES

    parser.addoption(
        "--bench-engine",
        default="serial",
        choices=ENGINE_NAMES,
        help="execution engine for runner-aware benchmarks",
    )
    parser.addoption(
        "--bench-workers",
        type=int,
        default=None,
        help="worker processes for --bench-engine process",
    )


@pytest.fixture
def engine(request):
    """The engine selected by ``--bench-engine``/``--bench-workers``."""
    from repro.runner import make_engine

    return make_engine(
        request.config.getoption("--bench-engine"),
        workers=request.config.getoption("--bench-workers"),
    )
