"""Convergence-rate analysis of the solving probability.

The paper's blackboard bound ``Pr[S(t)] >= 1 - (k-1)/2^t`` suggests the
failure probability decays geometrically with ratio 1/2 (each extra round
halves the chance that some colliding source pair is still colliding).
This module measures the decay exactly and by regression:

* :func:`exact_tail_ratio` -- the ratio ``(1 - Pr[S(t+1)]) / (1 - Pr[S(t)])``
  from the chain's exact series at a large horizon (a rational number);
* :func:`fitted_decay_rate` -- a least-squares fit of
  ``log(1 - Pr[S(t)])`` against ``t`` (numpy), as an experimentalist would
  estimate it from data.

Both must agree with each other, and for blackboard configurations with a
unique source they must equal exactly 1/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core.leader_election import leader_election
from ..chain import CompiledChain, Query, compile_chain, run_queries
from ..models.ports import adversarial_assignment
from ..randomness.configuration import RandomnessConfiguration
from .result import ExperimentResult


def fitted_decay_rate(
    series: Sequence[Fraction | float], *, skip: int = 0
) -> float:
    """Least-squares geometric decay rate of ``1 - p_t``.

    Fits ``log(1 - p_t) = a + t log(r)`` over the entries with ``p_t < 1``
    and returns ``r``.  ``skip`` drops the first rounds, whose transient is
    not yet geometric.  Raises when fewer than two usable points exist.
    """
    points = [
        (t, math.log(1 - float(p)))
        for t, p in enumerate(series, start=1)
        if float(p) < 1.0 and t > skip
    ]
    if len(points) < 2:
        raise ValueError("need at least two sub-1 probabilities to fit")
    ts = np.array([t for t, _ in points], dtype=float)
    logs = np.array([v for _, v in points], dtype=float)
    slope, _ = np.polyfit(ts, logs, 1)
    return float(math.exp(slope))


def exact_tail_ratio(
    chain: "CompiledChain | object",
    task,
    *,
    horizon: int = 24,
) -> Fraction | None:
    """``(1 - Pr[S(horizon)]) / (1 - Pr[S(horizon - 1)])``, exactly.

    ``None`` when the failure probability is already 0 (solved surely in
    finite time) or identically 1 (never solvable).
    """
    series = chain.solving_probability_series(task, horizon)
    prev_fail = 1 - series[-2]
    fail = 1 - series[-1]
    if prev_fail == 0 or series[-1] == 0:
        return None
    return fail / prev_fail


def convergence_rates(horizon: int = 20) -> ExperimentResult:
    """Measured decay rates vs the implied 1/2 (blackboard, n_1 = 1)."""
    rows = []
    passed = True
    for sizes in ((1, 2), (1, 2, 2), (1, 2, 2, 2), (1, 3)):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        task = leader_election(alpha.n)
        chain = compile_chain(alpha)
        series = run_queries(chain, [Query.series(task, horizon)])[0]
        fit = fitted_decay_rate(series, skip=horizon // 2)
        ratio = exact_tail_ratio(chain, task, horizon=horizon)
        assert ratio is not None
        # With several pair sources the exact ratio is 1/2 (1 + O(2^-t)):
        # demand convergence at the horizon's scale, not exact equality.
        ok = (
            abs(fit - 0.5) < 0.02
            and abs(float(ratio) - 0.5) < 2.0 ** -(horizon - 8)
        )
        passed &= ok
        rows.append(
            (
                "blackboard",
                sizes,
                f"{fit:.5f}",
                f"{float(ratio):.5f}",
                "1/2",
                "ok" if ok else "MISMATCH",
            )
        )

    # Clique with adversarial ports: rates are also geometric; report the
    # exact tail ratio and require fit/ratio agreement (no closed form
    # claimed by the paper).
    for sizes in ((2, 3), (1, 2)):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        task = leader_election(alpha.n)
        chain = compile_chain(alpha, adversarial_assignment(sizes))
        series = run_queries(chain, [Query.series(task, horizon)])[0]
        ratio = exact_tail_ratio(chain, task, horizon=horizon)
        if ratio is None:
            rows.append(("clique (adv)", sizes, "-", "exact 0 tail", "-", "ok"))
            continue
        fit = fitted_decay_rate(series, skip=horizon // 2)
        ok = abs(fit - float(ratio)) < 0.05
        passed &= ok
        rows.append(
            (
                "clique (adv)",
                sizes,
                f"{fit:.5f}",
                f"{float(ratio):.5f}",
                "(geometric)",
                "ok" if ok else "MISMATCH",
            )
        )
    return ExperimentResult(
        experiment_id="extension-convergence-rate",
        title="Geometric decay of the failure probability",
        headers=(
            "model",
            "sizes",
            "fitted rate",
            "exact tail ratio",
            "theory",
            "check",
        ),
        rows=rows,
        notes=[
            "blackboard with a unique source: failure halves each round, "
            "exactly, matching the 1-(k-1)/2^t bound's rate",
        ],
        passed=passed,
    )


__all__ = ["convergence_rates", "exact_tail_ratio", "fitted_decay_rate"]
