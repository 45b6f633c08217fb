"""Disabled-mode observability overhead on the batched query path.

``repro.obs`` instruments the hot tiers (compile, batch, group, memo,
warehouse) behind a single ``if OBS.enabled:`` attribute-load-and-branch
per site.  This benchmark puts a number on that claim: it times the
canonical multi-task, multi-horizon float sweep of
``bench_batch_queries`` through

* a replica of the ``run_queries`` front door without its OBS sites
  (same memo scan, one per-chain plan, execute, record), and
* the instrumented front door (``run_queries`` with tracing **off**),

and asserts the instrumented-disabled path stays within the acceptance
ceiling (2%; noise-relaxable in CI via ``OBS_BENCH_MAX_OVERHEAD``).
The tracing-**on** ratio is reported informationally -- enabled-mode
cost is a feature decision, not a regression gate.

Writes ``BENCH_obs.json`` (override the path with ``OBS_BENCH_OUT``)
when run standalone.  Runs standalone
(``python benchmarks/bench_obs_overhead.py``) or under pytest-benchmark
(``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.chain import Query, compile_chain, run_queries, validate_backend
from repro.chain.batch import QueryPlan, memoized_answers, record_answers
from repro.core import (
    k_leader_election,
    leader_and_deputy,
    leader_election,
    unique_ids,
    weak_symmetry_breaking,
)
from repro.obs import configure_tracing, reset_telemetry
from repro.randomness import RandomnessConfiguration

#: Same workload as ``bench_batch_queries``: what the overhead is
#: measured *against* is exactly the sweep access pattern the batch
#: layer was built for.
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
#: Acceptance ceiling from the ISSUE (disabled-mode time ratio vs the
#: raw path); CI smoke runs on noisy shared runners relax it via
#: OBS_BENCH_MAX_OVERHEAD.
MAX_OVERHEAD = float(os.environ.get("OBS_BENCH_MAX_OVERHEAD", "1.02"))

OUT_PATH = os.environ.get("OBS_BENCH_OUT", "BENCH_obs.json")


def _queries() -> list[Query]:
    queries = []
    for _, task in TASKS:
        for t in HORIZONS:
            queries.append(Query.probability(task, t))
        queries.append(Query.series(task, T_MAX))
        queries.append(Query.limit(task))
    return queries


def _chain():
    return compile_chain(RandomnessConfiguration.from_group_sizes(SHAPE))


def raw_sweep() -> list:
    """The ``run_queries`` front door with no OBS sites.

    Replicates its body (memo scan, one ``QueryPlan``, record) without
    instrumentation, so the only difference the paired timings see is
    what the instrumentation added.
    """
    chain = _chain()
    queries = _queries()
    validate_backend("float")
    results, tokens, misses = memoized_answers(chain.key, queries, "float")
    if misses:
        subset = [queries[i] for i in misses]
        answers = QueryPlan(chain, subset).execute(backend="float")
        for i, value in zip(misses, answers):
            results[i] = value
        record_answers(tokens, misses, results)
    return results


def instrumented_sweep() -> list:
    """The instrumented front door every caller actually uses."""
    return run_queries(_chain(), _queries(), backend="float")


#: Each timing sample runs the sweep this many times back to back (the
#: per-call cost is well under a millisecond, so single calls drown in
#: scheduler noise), and paths are sampled interleaved so CPU frequency
#: drift hits them equally.  The default ``ROUNDS`` is even, so each of the
#: raw and instrumented paths runs first in half of the rounds.
INNER_ITERATIONS = int(os.environ.get("OBS_BENCH_INNER", "10"))
ROUNDS = int(os.environ.get("OBS_BENCH_ROUNDS", "12"))


def _sample(fn) -> tuple[float, list]:
    started = time.perf_counter()
    for _ in range(INNER_ITERATIONS):
        value = fn()
    return time.perf_counter() - started, value


def measure() -> dict:
    """Timings plus the overhead verdicts (and float agreement)."""
    previous = configure_tracing(False)
    reset_telemetry()
    try:
        # Warm the shared chain and its dense caches for every path.
        raw_sweep()
        instrumented_sweep()
        raw_seconds = off_seconds = on_seconds = float("inf")
        ratios_off: list[float] = []
        ratios_on: list[float] = []
        raw_values = off_values = on_values = []
        for round_index in range(ROUNDS):
            configure_tracing(False)
            # Alternate which path runs first, so whatever favours the
            # first (or second) slot of a round lands on both paths
            # equally often.
            if round_index % 2:
                off_round, off_values = _sample(instrumented_sweep)
                raw_round, raw_values = _sample(raw_sweep)
            else:
                raw_round, raw_values = _sample(raw_sweep)
                off_round, off_values = _sample(instrumented_sweep)
            configure_tracing(True)
            on_round, on_values = _sample(instrumented_sweep)
            reset_telemetry()
            raw_seconds = min(raw_seconds, raw_round)
            off_seconds = min(off_seconds, off_round)
            on_seconds = min(on_seconds, on_round)
            # Paired ratios: raw and instrumented are sampled back to
            # back in the same round, so CPU frequency drift and
            # scheduler spikes cancel instead of landing on whichever
            # path ran second.
            ratios_off.append(off_round / raw_round)
            ratios_on.append(on_round / raw_round)
        # The gate statistic is the *median* paired ratio -- robust to
        # spike rounds in either direction.
        overhead_disabled = statistics.median(ratios_off)
        overhead_enabled = statistics.median(ratios_on)
    finally:
        configure_tracing(previous)
        reset_telemetry()
    for got in (off_values, on_values):
        for g, w in zip(got, raw_values):
            inner_g = g if isinstance(g, list) else [g]
            inner_w = w if isinstance(w, list) else [w]
            for a, b in zip(inner_g, inner_w):
                assert abs(a - b) < 1e-12, (a, b)
    return {
        "raw_seconds": raw_seconds,
        "disabled_seconds": off_seconds,
        "enabled_seconds": on_seconds,
        "overhead_disabled": overhead_disabled,
        "overhead_enabled": overhead_enabled,
        "max_overhead": MAX_OVERHEAD,
        "queries": len(_queries()),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_obs_raw_baseline(benchmark):
    """The uninstrumented front-door replica (no OBS sites)."""
    configure_tracing(False)
    values = benchmark(raw_sweep)
    benchmark.extra_info["queries"] = len(_queries())
    assert len(values) == len(_queries())


def bench_obs_disabled_instrumented(benchmark):
    """The instrumented front door with tracing off."""
    configure_tracing(False)
    values = benchmark(instrumented_sweep)
    benchmark.extra_info["queries"] = len(_queries())
    assert len(values) == len(_queries())


def bench_obs_overhead_verdict(benchmark):
    """The acceptance check: disabled overhead within the ceiling."""
    report = benchmark(measure)
    for key, value in report.items():
        benchmark.extra_info[key] = round(value, 6)
    assert report["overhead_disabled"] <= MAX_OVERHEAD, report


def main() -> int:
    report = measure()
    print(
        f"batched float sweep: shape {SHAPE}, {len(TASKS)} tasks, "
        f"horizons {HORIZONS}, {report['queries']} queries"
    )
    print(f"  raw batch path           : {report['raw_seconds'] * 1e3:8.2f} ms")
    print(
        f"  instrumented, tracing off: "
        f"{report['disabled_seconds'] * 1e3:8.2f} ms "
        f"({(report['overhead_disabled'] - 1) * 100:+.2f}%)"
    )
    print(
        f"  instrumented, tracing on : "
        f"{report['enabled_seconds'] * 1e3:8.2f} ms "
        f"({(report['overhead_enabled'] - 1) * 100:+.2f}%, informational)"
    )
    ok = report["overhead_disabled"] <= MAX_OVERHEAD
    print(
        f"disabled-mode overhead <= {(MAX_OVERHEAD - 1) * 100:.0f}% "
        f"required: {'PASS' if ok else 'FAIL'}"
    )
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
