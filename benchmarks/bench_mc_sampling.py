"""Vectorized MC kernel vs the scalar oracle, and warm memo merges (ISSUE 8).

The sampling tier answers ``Pr[S(t) | alpha]`` where the exact chain
cannot reach.  The scalar baseline walks one trajectory at a time
through ``realization_solves``; the vectorized kernel
(:mod:`repro.sampling.kernel`) decides whole 1000-trial substream blocks
in numpy passes over the same counter-based Philox words, so the two
paths are bit-identical trial by trial -- the speedup is pure batching.

This benchmark times both paths on blackboard and port-numbered-clique
cells and asserts

* the vectorized kernel beats the scalar oracle by at least the
  acceptance floor (10x; ~115-320x in practice),
* fast and slow paths agree bit for bit on every timed block, and
* a warm, memoized cell extended to a doubled budget (the merge the
  memo exists for) beats recomputing the doubled budget from scratch,
  in the median of :data:`PAIRS` alternating fresh/warm pairs.

Every timed pass starts from an empty task-free partition cache
(``_block_classes``), so repeated passes time the kernel cold instead of
cache hits.

A machine-readable report is written to ``BENCH_mc.json`` (override
with ``BENCH_MC_JSON``) so CI can archive the perf trajectory.

Runs standalone (``python benchmarks/bench_mc_sampling.py``) or under
pytest-benchmark (``pytest benchmarks/ -o python_files='bench_*.py'
-o python_functions='bench_*'``).
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time

import numpy as np

from repro.context import ExecutionContext, use_context
from repro.core import leader_election
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration
from repro.sampling import block_indicators, sample_cell, scalar_block_indicators
from repro.sampling.kernel import _block_classes

#: The timed cells: one blackboard, one clique, both at a horizon where
#: the knowledge partition does real per-round work.
CELLS = (
    ("blackboard", (1, 2, 2), None, 6),
    ("clique", (1, 2, 2), "adversarial", 6),
)
#: Blocks per timing pass (1000 trials each).
BLOCKS = 4
#: Fresh/warm pairs behind the warm-merge median.
PAIRS = 5
#: Acceptance floors from the ISSUE; CI smoke runs on noisy shared
#: runners relax them via the environment (bit-identity is asserted
#: regardless).
REQUIRED_SPEEDUP = float(os.environ.get("MC_BENCH_MIN_SPEEDUP", "10.0"))
REQUIRED_WARM_SPEEDUP = float(os.environ.get("MC_BENCH_MIN_WARM", "1.5"))
REPORT_PATH = os.environ.get("BENCH_MC_JSON", "BENCH_mc.json")


def _cell(sizes, port_kind):
    alpha = RandomnessConfiguration.from_group_sizes(sizes)
    ports = adversarial_assignment(sizes) if port_kind else None
    return alpha, leader_election(alpha.n), ports


def _run_blocks(fast: bool, sizes, port_kind, t: int) -> np.ndarray:
    alpha, task, ports = _cell(sizes, port_kind)
    _block_classes.cache_clear()
    solver = block_indicators if fast else scalar_block_indicators
    outputs = [
        solver(alpha, task, t, ports, stream_seed=0, block=block)
        for block in range(BLOCKS)
    ]
    return np.concatenate(outputs)


def _best_of(fn, rounds: int = 3) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(rounds):
        _block_classes.cache_clear()
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _warm_merge_timings() -> dict:
    """Median timings of :data:`PAIRS` alternating fresh/warm pairs.

    *Warm* is the doubled-budget rerun of a cell a 10k run memoized
    first (memoized blocks plus a fresh increment; the 10k run is
    reported, not gated), each pair in a new memo directory; *fresh*
    recomputes all 20k samples without the memo.  Pair 0 runs fresh
    first and the order alternates from there, so a slow spell of a
    shared machine lands on both sides; the gated ratio is the median
    of the per-pair fresh/warm ratios.
    """
    alpha, task, ports = _cell((1, 2, 2), None)

    def sample(samples: int, **kwargs):
        return sample_cell(
            alpha, task, 6, ports, stream_seed=3, samples=samples, **kwargs
        )

    expected = sample(20000, use_memo=False)

    def fresh() -> float:
        seconds, estimate = _best_of(
            lambda: sample(20000, use_memo=False), rounds=1
        )
        assert estimate == expected
        return seconds

    colds: list[float] = []
    freshes: list[float] = []
    warms: list[float] = []
    with tempfile.TemporaryDirectory() as root:

        def warm(index: int) -> float:
            memo = ExecutionContext(
                results_memo=os.path.join(root, f"memo-{index}")
            )
            with use_context(memo):
                cold_seconds, cold = _best_of(lambda: sample(10000), rounds=1)
                seconds, estimate = _best_of(lambda: sample(20000), rounds=1)
            assert estimate == expected, (
                "memo merge must not change the estimate"
            )
            # Sanity: cold is a real sub-estimate.
            assert estimate.merge(cold) != estimate
            colds.append(cold_seconds)
            return seconds

        for index in range(PAIRS):
            if index % 2:
                warms.append(warm(index))
                freshes.append(fresh())
            else:
                freshes.append(fresh())
                warms.append(warm(index))
    return {
        "pairs": PAIRS,
        "cold_10k_seconds": statistics.median(colds),
        "warm_20k_seconds": statistics.median(warms),
        "fresh_20k_seconds": statistics.median(freshes),
        "warm_speedup": statistics.median(
            f / w for f, w in zip(freshes, warms)
        ),
    }


def measure() -> dict:
    """Timings plus bit-identity and warm-merge verdicts."""
    report = {"cells": {}, "blocks": BLOCKS}
    speedups = []
    for name, sizes, port_kind, t in CELLS:
        _run_blocks(True, sizes, port_kind, t)  # warm caches
        fast_seconds, fast = _best_of(
            lambda: _run_blocks(True, sizes, port_kind, t)
        )
        slow_seconds, slow = _best_of(
            lambda: _run_blocks(False, sizes, port_kind, t), rounds=1
        )
        assert np.array_equal(fast, slow), (
            f"{name}: vectorized and scalar verdicts must be bit-identical"
        )
        speedup = slow_seconds / fast_seconds
        speedups.append(speedup)
        report["cells"][name] = {
            "sizes": list(sizes),
            "t": t,
            "scalar_seconds": slow_seconds,
            "vectorized_seconds": fast_seconds,
            "speedup": speedup,
        }
    report["min_speedup"] = min(speedups)
    report["warm_merge"] = _warm_merge_timings()
    return report


def _write_report(report: dict) -> None:
    try:
        with open(REPORT_PATH, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    except OSError:
        pass  # read-only checkout: the printed report still stands


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_mc_scalar_baseline(benchmark):
    """The per-trajectory oracle loop on the blackboard cell."""
    name, sizes, port_kind, t = CELLS[0]
    result = benchmark(lambda: _run_blocks(False, sizes, port_kind, t))
    assert result.shape == (BLOCKS * 1000,)


def bench_mc_vectorized_kernel(benchmark):
    """The same blocks through the vectorized knowledge-partition passes."""
    name, sizes, port_kind, t = CELLS[0]
    _run_blocks(True, sizes, port_kind, t)
    result = benchmark(lambda: _run_blocks(True, sizes, port_kind, t))
    assert result.shape == (BLOCKS * 1000,)


def bench_mc_speedup_verdict(benchmark):
    """Acceptance: >= 10x vs scalar, warm merge wins, bit-identity."""
    report = benchmark(measure)
    benchmark.extra_info["min_speedup"] = round(report["min_speedup"], 3)
    benchmark.extra_info["warm_speedup"] = round(
        report["warm_merge"]["warm_speedup"], 3
    )
    _write_report(report)
    assert report["min_speedup"] >= REQUIRED_SPEEDUP, report
    assert (
        report["warm_merge"]["warm_speedup"] >= REQUIRED_WARM_SPEEDUP
    ), report


def main() -> int:
    report = measure()
    _write_report(report)
    print(
        f"vectorized substream kernel vs scalar oracle "
        f"({BLOCKS} blocks x 1000 trials, bit-identical verdicts)"
    )
    for name, cell in report["cells"].items():
        print(
            f"  {name:<11} sizes={tuple(cell['sizes'])} t={cell['t']}: "
            f"{cell['scalar_seconds'] * 1e3:8.2f} ms -> "
            f"{cell['vectorized_seconds'] * 1e3:7.2f} ms "
            f"({cell['speedup']:.1f}x)"
        )
    warm = report["warm_merge"]
    print(
        f"  warm 20k (10k memoized + 10k fresh), medians of "
        f"{warm['pairs']} pairs: "
        f"{warm['fresh_20k_seconds'] * 1e3:.2f} ms fresh -> "
        f"{warm['warm_20k_seconds'] * 1e3:.2f} ms warm "
        f"({warm['warm_speedup']:.2f}x median pair ratio)"
    )
    ok = (
        report["min_speedup"] >= REQUIRED_SPEEDUP
        and warm["warm_speedup"] >= REQUIRED_WARM_SPEEDUP
    )
    print(
        f">= {REQUIRED_SPEEDUP:.0f}x kernel speedup and >= "
        f"{REQUIRED_WARM_SPEEDUP:.1f}x warm merge required: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    print(f"report written to {REPORT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
