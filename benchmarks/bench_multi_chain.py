"""Block-diagonal multi-chain groups vs one query call per chain (ISSUE 4).

``run_queries`` answers a whole set of ``(task, horizon)`` questions
against *one* chain in shared passes -- but a phase-diagram sweep that
calls it once per grid point runs one such pass per chain, so the
sweep's wall clock is dominated by fixed per-chain numpy dispatch rather
than arithmetic.
The multi-chain group engine (:mod:`repro.chain.multi`) stacks the whole
shape axis block-diagonally and answers every ``(chain, task, horizon,
quantity)`` cell in single vectorized evolution and reverse-level
passes.

This benchmark times the canonical phase-diagram shape axis -- every
size shape of several totals, under the blackboard and both standard
clique port assignments, with probability/series/limit/expected queries
per task -- both ways and asserts

* the grouped float path beats one float ``run_queries`` call per
  chain by at least the acceptance floor (3x; more in practice), and
* the grouped exact results are byte-identical to the per-chain ones.

A machine-readable report is written to ``BENCH_multi.json`` (override
with ``BENCH_MULTI_JSON``) so CI can archive the perf trajectory.

Runs standalone (``python benchmarks/bench_multi_chain.py``) or under
pytest-benchmark (``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import json
import os
import time

from repro.chain import MultiQueryPlan, Query, compile_chain, run_queries
from repro.core import k_leader_election, leader_election
from repro.models import adversarial_assignment, round_robin_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

#: The sweep: the full shape axis of several totals x both models (the
#: clique under adversarial and round-robin ports), with the
#: phase-diagram access pattern per chain -- probabilities at several
#: horizons, a series, a limit, and an expected time for each task.
TOTALS = (4, 5, 6)
HORIZONS = tuple(range(2, 13, 2))
T_MAX = max(HORIZONS)
#: Acceptance floor from the ISSUE; CI smoke runs on noisy shared
#: runners relax it via MULTI_BENCH_MIN_SPEEDUP (exact byte-identity is
#: asserted regardless).
REQUIRED_SPEEDUP = float(os.environ.get("MULTI_BENCH_MIN_SPEEDUP", "3.0"))
REPORT_PATH = os.environ.get("BENCH_MULTI_JSON", "BENCH_multi.json")


def _items() -> list[tuple]:
    items = []
    for n in TOTALS:
        tasks = (leader_election(n), k_leader_election(n, 2))
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            ports_axis = (
                None,
                adversarial_assignment(shape),
                round_robin_assignment(n),
            )
            for ports in ports_axis:
                queries = []
                for task in tasks:
                    queries.extend(
                        Query.probability(task, t) for t in HORIZONS
                    )
                    queries.append(Query.series(task, T_MAX))
                    queries.append(Query.limit(task))
                    queries.append(Query.expected_time(task))
                items.append((compile_chain(alpha, ports), queries))
    return items


def per_chain_sweep(items: list[tuple], backend: str) -> list[list]:
    """The PR 3 pattern: one front-door call per chain of the axis."""
    return [
        run_queries(chain, queries, backend=backend)
        for chain, queries in items
    ]


def grouped_sweep(items: list[tuple], backend: str) -> list[list]:
    """The same axis through one multi-chain plan (stacked passes)."""
    return MultiQueryPlan(items).execute(backend=backend)


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
    items = _items()
    # Warm both paths (compilation, COO/dense caches, the group cache).
    per_chain_sweep(items, "float")
    grouped_sweep(items, "float")
    chain_seconds, chain_float = _best_of(
        lambda: per_chain_sweep(items, "float")
    )
    group_seconds, group_float = _best_of(
        lambda: grouped_sweep(items, "float")
    )
    # Exact byte-identity: same values AND same types, cell for cell.
    chain_exact = per_chain_sweep(items, "exact")
    group_exact = grouped_sweep(items, "exact")
    assert group_exact == chain_exact, (
        "grouped exact results must be byte-identical to per-chain"
    )
    for got_row, want_row in zip(group_exact, chain_exact):
        for got, want in zip(got_row, want_row):
            inner_got = got if isinstance(got, list) else [got]
            inner_want = want if isinstance(want, list) else [want]
            assert (
                [type(x) for x in inner_got]
                == [type(x) for x in inner_want]
            )
    # Float agreement to 1e-12 between the paths.
    for got_row, want_row in zip(group_float, chain_float):
        for got, want in zip(got_row, want_row):
            inner_got = got if isinstance(got, list) else [got]
            inner_want = want if isinstance(want, list) else [want]
            for g, w in zip(inner_got, inner_want):
                if g is None or w is None:
                    assert g == w, (g, w)
                else:
                    assert abs(g - w) < 1e-12, (g, w)
    return {
        "chains": len(items),
        "queries": sum(len(queries) for _, queries in items),
        "per_chain_float_seconds": chain_seconds,
        "grouped_float_seconds": group_seconds,
        "speedup_float": chain_seconds / group_seconds,
    }


def _write_report(report: dict) -> None:
    try:
        with open(REPORT_PATH, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    except OSError:
        pass  # read-only checkout: the printed report still stands


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_multi_per_chain_float_baseline(benchmark):
    """One float ``run_queries`` call per chain of the shape axis."""
    items = _items()
    per_chain_sweep(items, "float")
    values = benchmark(lambda: per_chain_sweep(items, "float"))
    benchmark.extra_info["chains"] = len(items)
    assert len(values) == len(items)


def bench_multi_grouped_float(benchmark):
    """Same axis through one block-diagonal MultiQueryPlan."""
    items = _items()
    grouped_sweep(items, "float")
    values = benchmark(lambda: grouped_sweep(items, "float"))
    benchmark.extra_info["chains"] = len(items)
    assert len(values) == len(items)


def bench_multi_speedup_verdict(benchmark):
    """The acceptance check: >= 3x float speedup, exact byte-identity."""
    report = benchmark(measure)
    for key, value in report.items():
        benchmark.extra_info[key] = round(value, 6)
    _write_report(report)
    assert report["speedup_float"] >= REQUIRED_SPEEDUP, report


def main() -> int:
    report = measure()
    _write_report(report)
    print(
        f"phase-diagram shape axis: totals {TOTALS}, "
        f"{report['chains']} chains, {report['queries']} query cells"
    )
    print(
        f"  per-chain float (run_queries each): "
        f"{report['per_chain_float_seconds'] * 1e3:8.2f} ms"
    )
    print(
        f"  grouped float (MultiQueryPlan)    : "
        f"{report['grouped_float_seconds'] * 1e3:8.2f} ms "
        f"({report['speedup_float']:.1f}x)"
    )
    ok = report["speedup_float"] >= REQUIRED_SPEEDUP
    print(
        f"grouped exact byte-identical to per-chain: yes; "
        f">= {REQUIRED_SPEEDUP:.0f}x float speedup required: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    print(f"report written to {REPORT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
