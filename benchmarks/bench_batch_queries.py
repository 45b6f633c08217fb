"""The query front door vs the PR 2 scalar per-query path (ISSUE 3).

The PR 2 engine answers one ``(task, horizon)`` question per call: under
the float backend every ``solving_probability(task, t)`` evolves the
state distribution from scratch (``t`` scatter-add rounds), so a sweep
over ``Q`` tasks and ``H`` horizons pays ``Q * H`` evolutions; the exact
backend shares its cached distributions but still runs one absorption
sweep per limit call.  The query front door
(:func:`repro.chain.run_queries`) answers the whole sweep in shared
passes -- one distribution evolution to the deepest horizon plus one
vectorized reverse-topological level sweep for all the limits at once.

This benchmark times the canonical multi-task, multi-horizon sweep both
ways and asserts

* the batched float path beats the scalar float path by at least the
  acceptance floor (5x; far more in practice), and
* the batched exact results are byte-identical to the scalar exact ones.

Runs standalone (``python benchmarks/bench_batch_queries.py``) or under
pytest-benchmark (``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import os
import time

from repro.chain import Query, compile_chain, run_queries
from repro.core import (
    k_leader_election,
    leader_and_deputy,
    leader_election,
    unique_ids,
    weak_symmetry_breaking,
)
from repro.randomness import RandomnessConfiguration

#: The sweep: one configuration, several tasks, several horizons, plus
#: per-task probability series and exact limits -- the access pattern of
#: the theorem experiments and the phase-diagram sweep.  Both paths run
#: against the same warm compiled chain: PR 2 already pays compilation
#: once process-wide, so what this benchmark isolates is purely the
#: per-query evaluation the batch layer collapses into shared passes.
SHAPE = (1, 1, 1, 2, 2)
N = sum(SHAPE)
HORIZONS = tuple(range(2, 17, 2))
T_MAX = max(HORIZONS)
TASKS = (
    ("leader", leader_election(N)),
    ("k-leader:2", k_leader_election(N, 2)),
    ("k-leader:3", k_leader_election(N, 3)),
    ("unique-ids", unique_ids(N)),
    ("deputy", leader_and_deputy(N)),
    ("weak-sb", weak_symmetry_breaking(N)),
)
#: Acceptance floor from the ISSUE; CI smoke runs on noisy shared
#: runners relax it via BATCH_BENCH_MIN_SPEEDUP (exact byte-identity is
#: asserted regardless).
REQUIRED_SPEEDUP = float(os.environ.get("BATCH_BENCH_MIN_SPEEDUP", "5.0"))


def _queries() -> list[Query]:
    queries = []
    for _, task in TASKS:
        for t in HORIZONS:
            queries.append(Query.probability(task, t))
        queries.append(Query.series(task, T_MAX))
        queries.append(Query.limit(task))
    return queries


def scalar_sweep(backend: str) -> list:
    """The PR 2 pattern: one scalar engine call per query."""
    chain = compile_chain(RandomnessConfiguration.from_group_sizes(SHAPE))
    results = []
    for _, task in TASKS:
        for t in HORIZONS:
            results.append(
                chain.solving_probability(task, t, backend=backend)
            )
        results.append(
            chain.solving_probability_series(task, T_MAX, backend=backend)
        )
        results.append(
            chain.limit_solving_probability(task, backend=backend)
        )
    return results


def batched_sweep(backend: str) -> list:
    """The same sweep as one query-front-door call."""
    chain = compile_chain(RandomnessConfiguration.from_group_sizes(SHAPE))
    return run_queries(chain, _queries(), backend=backend)


def _float_scalar() -> list:
    return scalar_sweep("float")


def _float_batched() -> list:
    return batched_sweep("float")


def _best_of(fn, rounds: int = 5) -> tuple[float, list]:
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def measure() -> dict:
    """Timings plus the byte-identity and speedup verdicts."""
    # Warm the shared chain (and its COO/CSR caches) for both paths.
    _float_scalar()
    _float_batched()
    scalar_seconds, scalar_float = _best_of(_float_scalar)
    batch_seconds, batch_float = _best_of(_float_batched)
    # Exact byte-identity: same values AND same types, query for query.
    scalar_exact = scalar_sweep("exact")
    batch_exact = batched_sweep("exact")
    assert batch_exact == scalar_exact, (
        "batched exact results must be byte-identical to scalar"
    )
    for got, want in zip(batch_exact, scalar_exact):
        inner_got = got if isinstance(got, list) else [got]
        inner_want = want if isinstance(want, list) else [want]
        assert [type(x) for x in inner_got] == [type(x) for x in inner_want]
    # Float agreement to 1e-12 between the paths.
    for got, want in zip(batch_float, scalar_float):
        inner_got = got if isinstance(got, list) else [got]
        inner_want = want if isinstance(want, list) else [want]
        for g, w in zip(inner_got, inner_want):
            assert abs(g - w) < 1e-12, (g, w)
    return {
        "scalar_float_seconds": scalar_seconds,
        "batched_float_seconds": batch_seconds,
        "speedup_float": scalar_seconds / batch_seconds,
        "queries": len(_queries()),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_batch_scalar_float_baseline(benchmark):
    """Per-query scalar float path (the PR 2 pattern)."""
    values = benchmark(_float_scalar)
    benchmark.extra_info["queries"] = len(_queries())
    assert len(values) == len(_queries())


def bench_batch_batched_float(benchmark):
    """Same sweep through one run_queries call."""
    values = benchmark(_float_batched)
    benchmark.extra_info["queries"] = len(_queries())
    assert len(values) == len(_queries())


def bench_batch_speedup_verdict(benchmark):
    """The acceptance check: >= 5x float speedup, exact byte-identity."""
    report = benchmark(measure)
    for key, value in report.items():
        benchmark.extra_info[key] = round(value, 6)
    assert report["speedup_float"] >= REQUIRED_SPEEDUP, report


def main() -> int:
    report = measure()
    print(
        f"multi-task multi-horizon sweep: shape {SHAPE}, "
        f"{len(TASKS)} tasks, horizons {HORIZONS}, "
        f"{report['queries']} queries"
    )
    print(
        f"  scalar float (per-query)   : "
        f"{report['scalar_float_seconds'] * 1e3:8.2f} ms"
    )
    print(
        f"  batched float (run_queries): "
        f"{report['batched_float_seconds'] * 1e3:8.2f} ms "
        f"({report['speedup_float']:.1f}x)"
    )
    ok = report["speedup_float"] >= REQUIRED_SPEEDUP
    print(
        f"exact results byte-identical to scalar: yes; "
        f">= {REQUIRED_SPEEDUP:.0f}x float speedup required: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
