"""The benchmark's workloads: CLI argv from the seed, and output checks.

Every workload is one closed-loop client: a single main process runs
one ``repro.cli.main([...])`` call at a time, and pooled work uses at
most ``min(2, nproc)`` workers.  Checks run after the timed call and
never count toward its time; a wrong or missing job counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
from dataclasses import dataclass
from fractions import Fraction

#: ``experiments.json`` of ``repro report``, with every ``stamp`` key
#: removed, hashed as canonical JSON (sorted keys).
REPORT_DIGEST = (
    "ee707559be8e9c423c6305df6c983d775d1f1b731de61c788dc1f227c4435f82"
)
REPORT_EXPERIMENTS = 21

#: Monte-Carlo budget the sample-extend warehouse is filled with; the
#: timed sweep asks for twice as many trials per cell.  10k keeps one
#: repetition (prefill plus timed call) near 7 s on a 2-core Xeon, so
#: a run fits enough repetitions for a steady median.
PREFILL_SAMPLES = 10_000

#: Chance that a correct program fails the sample-extend check in one run.
FAMILY_WISE_ALPHA = 1e-3


def pool_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # "serial" or "process"
    #: Benchmark spans (``layers.py``) that must fire in a traced run.
    busy_spans: tuple[str, ...]
    #: Per-layer metrics that must be nonzero in a traced run.
    busy_metrics: tuple[str, ...]

    def argv(self, work: pathlib.Path, seed: int) -> list[str]:
        """The timed command line (fresh directories under ``work``)."""
        if self.name == "report":
            return ["report", str(work / "report")]
        if self.name == "exact-sweep":
            return [
                "sweep", "--n", "9",
                "--models", "blackboard", "clique",
                "--ports", "adversarial", "round-robin", "random",
                "--engine", "process", "--workers", str(pool_workers()),
                "--master-seed", str(seed),
                "--run-dir", str(work / "run"),
                "--warehouse", str(work / "warehouse"),
            ]
        return _sample_argv(work, seed, 2 * PREFILL_SAMPLES, "run")

    def prefill_argv(self, work: pathlib.Path, seed: int) -> "list[str] | None":
        """Set-up command filling the warehouse, or ``None``."""
        if self.name != "sample-extend":
            return None
        return _sample_argv(work, seed, PREFILL_SAMPLES, "prefill")

    def check(self, work: pathlib.Path, seed: int) -> tuple[int, int]:
        """``(attempted, failed)`` over the timed call's outputs."""
        return CHECKS[self.name](work, seed)


def _sample_argv(work, seed, samples, run_dir) -> list[str]:
    return [
        "sweep", "--n", "7", "--kind", "sample", "--t", "4",
        "--models", "blackboard", "clique",
        "--ports", "adversarial", "random",
        "--tasks", "leader", "k-leader:2",
        "--samples", str(samples),
        "--master-seed", str(seed),
        "--run-dir", str(work / run_dir),
        "--warehouse", str(work / "warehouse"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report",
            "the reproduction users run: all 21 paper experiments, dominated "
            "by analysis and one-shot chain compiles; no randomness, ignores "
            "the seed",
            "serial",
            busy_spans=("analysis.experiment", "analysis.write_report",
                        "chain.compile", "chain.query"),
            busy_metrics=("analysis.worst_case_search_s",
                          "analysis.symmetry_census_s",
                          "chain.compile.unmemoized", "chain.batch.plans"),
        ),
        Workload(
            "exact-sweep",
            "pooled exact sweep (n=9, 120 jobs, 2 workers): quotient "
            "compiles, shm publish, grouped queries, warehouse and memo writes",
            "process",
            # Compiles and queries run in pool workers, out of reach of
            # the benchmark's spans: the program's folded counters and
            # spans must show them instead.
            busy_spans=("runner.sweep", "runner.persist", "results.store"),
            busy_metrics=("runner.jobs", "runner.groups",
                          "runner.worker_busy_s", "chain.compile.miss",
                          "chain.compile.busy_s", "chain.quotient.compiles",
                          "chain.multi.items", "results.memo.records",
                          "results.store.rows_ingested"),
        ),
        Workload(
            "sample-extend",
            "Monte-Carlo refinement to twice a prefilled budget: half the "
            "blocks are memo reads, half fresh kernel work; bypasses chain",
            "serial",
            busy_spans=("runner.sweep", "runner.job", "runner.persist",
                        "results.store", "results.memo", "sampling.sample",
                        "sampling.kernel"),
            busy_metrics=("runner.jobs", "mc.samples", "mc.memo.hit",
                          "results.memo.hit", "sampling.busy_s"),
        ),
    )
}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _records(run_dir: pathlib.Path) -> list[dict]:
    path = run_dir / "records.jsonl"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _strip_stamps(value):
    if isinstance(value, dict):
        return {k: _strip_stamps(v) for k, v in value.items() if k != "stamp"}
    if isinstance(value, list):
        return [_strip_stamps(v) for v in value]
    return value


def check_report(work: pathlib.Path, seed: int) -> tuple[int, int]:
    """21/21 experiments pass and ``experiments.json`` matches the pin."""
    path = work / "report" / "experiments.json"
    if not path.is_file():
        return REPORT_EXPERIMENTS, REPORT_EXPERIMENTS
    with open(path, encoding="utf-8") as handle:
        experiments = json.load(handle)
    failed = sum(1 for e in experiments if not e.get("passed"))
    failed += max(0, REPORT_EXPERIMENTS - len(experiments))
    canonical = json.dumps(_strip_stamps(experiments), sort_keys=True)
    if hashlib.sha256(canonical.encode()).hexdigest() != REPORT_DIGEST:
        # The digest covers the whole document; count it as every
        # experiment being suspect.
        failed = REPORT_EXPERIMENTS
    return REPORT_EXPERIMENTS, failed


def check_exact_sweep(work: pathlib.Path, seed: int) -> tuple[int, int]:
    """Zero-one law everywhere; closed forms on blackboard and
    adversarial cells (Theorems 4.1/4.2 and their task generalizations),
    decided without building a chain."""
    from repro.core.characterization import (
        blackboard_task_solvable,
        message_passing_worst_case_task_solvable,
    )
    from repro.randomness.configuration import RandomnessConfiguration
    from repro.runner import make_task

    expected = {
        (shape, model, ports)
        for shape in _partitions(9)
        for model, ports in (
            ("blackboard", "none"),
            ("clique", "adversarial"),
            ("clique", "round-robin"),
            ("clique", "random"),
        )
    }
    seen = set()
    failed = 0
    for record in _records(work / "run"):
        spec = record["spec"]
        cell = (tuple(sorted(spec["sizes"], reverse=True)), spec["model"],
                spec["ports"])
        limit = record["value"]["limit"]
        ok = cell in expected and cell not in seen and limit in ("0", "1")
        seen.add(cell)
        if ok and spec["ports"] in ("none", "adversarial"):
            alpha = RandomnessConfiguration.from_group_sizes(spec["sizes"])
            task = make_task(spec["task"], alpha.n)
            closed_form = (
                blackboard_task_solvable(alpha, task)
                if spec["ports"] == "none"
                else message_passing_worst_case_task_solvable(alpha, task)
            )
            ok = closed_form == (limit == "1")
        failed += not ok
    failed += len(expected - seen)
    return len(expected), failed


def _binomial_tail(k: int, n: int, p: float) -> float:
    """The tail of Binomial(n, p) at ``k`` on the side away from the mean:
    P(X <= k) when k <= n*p, else P(X >= k)."""
    if p in (0.0, 1.0):
        return 1.0 if k == round(n * p) else 0.0

    def pmf(j):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    # Past the mode the terms shrink geometrically: stop once they vanish.
    step = -1 if k <= n * p else 1
    total = 0.0
    j = k
    while 0 <= j <= n:
        term = pmf(j)
        total += term
        if term <= total * 1e-17:
            break
        j += step
    return total


def _exact_probabilities(records: list[dict], seed: int) -> dict[str, str]:
    """Exact Pr[S(t)] per job key, from the chain (not the MC kernel)."""
    from repro.chain import Query, compile_chain, run_queries
    from repro.randomness.configuration import RandomnessConfiguration
    from repro.runner import RunSpec, derive_seed, make_ports, make_task

    exact = {}
    for record in records:
        spec = RunSpec.from_dict(record["spec"])
        alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
        # The cell's ports exactly as the sampling job derives them.
        stream = derive_seed(seed, "mc\x1f" + spec.stream_key)
        ports = make_ports(spec.ports, spec.sizes, derive_seed(stream, "ports"))
        chain = compile_chain(alpha, ports)
        query = Query.probability(make_task(spec.task, alpha.n), spec.t)
        exact[spec.job_key] = str(run_queries(chain, [query])[0])
    return exact


def check_sample_extend(work: pathlib.Path, seed: int) -> tuple[int, int]:
    """Each cell's exact (Clopper-Pearson) interval holds the exact
    Pr[S(t)], at a per-cell level that keeps a correct program's failure
    chance per run under ``FAMILY_WISE_ALPHA`` (Bonferroni over the
    cells).

    A Wilson interval cannot give that guarantee here: many cells have
    Pr[S(4)] within 1e-4 of 1, so well under one failure is expected in
    a cell, where Wilson's tail falls far short of its nominal level
    (seed 33: 4 failures against 0.5 expected, a 1-in-500 event that a
    Wilson interval at the Bonferroni level rejects).  The interval
    holds p exactly when neither binomial tail at the observed count is
    below half the per-cell level.
    """
    cells = len(list(_partitions(7))) * 3 * 2
    records = _records(work / "run")
    # The exact values depend only on the seed; reps of one run share them.
    cache = work.parent / "exact.json"
    if cache.is_file():
        with open(cache, encoding="utf-8") as handle:
            exact = json.load(handle)
    else:
        exact = _exact_probabilities(records, seed)
        with open(cache, "w", encoding="utf-8") as handle:
            json.dump(exact, handle)
    level = FAMILY_WISE_ALPHA / cells
    keys = set()
    failed = 0
    for record in records:
        value = record["value"]
        samples = value["samples"]
        key = record["key"]
        ok = (
            key in exact
            and key not in keys
            and samples == 2 * PREFILL_SAMPLES
            and 0 <= value["successes"] <= samples
        )
        keys.add(key)
        if ok:
            p = float(Fraction(exact[key]))
            ok = _binomial_tail(value["successes"], samples, p) >= level / 2
        failed += not ok
    failed += max(0, cells - len(keys))
    return cells, failed


CHECKS = {
    "report": check_report,
    "exact-sweep": check_exact_sweep,
    "sample-extend": check_sample_extend,
}
