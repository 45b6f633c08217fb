"""Reproduction of the theorem-level results (Sections 4.1, 4.2, Appendix B).

Each generator sweeps configurations, computes exact probabilities/limits
with the partition Markov chain, and compares against the paper's
closed-form characterization.  These are the paper's "evaluation": its
claims, made executable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ..core.characterization import (
    blackboard_k_leader_solvable,
    blackboard_solvable,
    message_passing_worst_case_k_leader_solvable,
    message_passing_worst_case_solvable,
)
from ..core.leader_election import k_leader_election, leader_election
from ..chain import Query, compile_chain, run_group_queries, run_queries
from ..core.reachability import gcd_divides_k, worst_case_k_leader_solvable
from ..core.zero_one import (
    blackboard_unique_source_linear_bound,
    blackboard_unique_source_lower_bound,
    is_monotone_non_decreasing,
)
from ..models.ports import adversarial_assignment, round_robin_assignment
from ..randomness.configuration import (
    RandomnessConfiguration,
    enumerate_size_shapes,
)
from ..randomness.realizations import (
    iter_consistent_realizations,
    realization_probability,
)
from .result import ExperimentResult


def _series_str(series: list[Fraction], digits: int = 4) -> str:
    return " ".join(f"{float(p):.{digits}f}" for p in series)


def theorem41_blackboard(n_max: int = 5, t_max: int = 6) -> ExperimentResult:
    """Theorem 4.1: blackboard LE solvable iff some ``n_i = 1``.

    For every group-size shape of every ``n <= n_max``: the exact
    ``Pr[S(t)]`` series, its exact limit, and the predicted 0/1.
    """
    configs = []
    for n in range(1, n_max + 1):
        task = leader_election(n)
        for shape in enumerate_size_shapes(n):
            configs.append(
                (n, shape, RandomnessConfiguration.from_group_sizes(shape), task)
            )
    # One grouped pass over the whole shape axis: every chain's series
    # and limit answered together (per chain, the two queries share the
    # cached distributions / absorption sweep exactly as before).
    answers = run_group_queries(
        [
            (
                compile_chain(alpha),
                [Query.series(task, t_max), Query.limit(task)],
            )
            for _, _, alpha, task in configs
        ]
    )
    rows = []
    passed = True
    for (n, shape, alpha, task), (series, limit) in zip(configs, answers):
        predicted = Fraction(1) if blackboard_solvable(alpha) else Fraction(0)
        monotone = is_monotone_non_decreasing(series)
        ok = limit == predicted and monotone and limit in (0, 1)
        passed &= ok
        rows.append(
            (
                n,
                shape,
                _series_str(series),
                float(limit),
                "yes" if predicted == 1 else "no",
                "ok" if ok else "MISMATCH",
            )
        )
    return ExperimentResult(
        experiment_id="theorem-4.1",
        title="Blackboard leader election: solvable iff exists n_i = 1",
        headers=("n", "sizes", "Pr[S(t)] t=1..", "exact limit", "paper", "check"),
        rows=rows,
        notes=["limits are exact absorption probabilities of the partition chain"],
        passed=passed,
    )


def theorem41_convergence(
    k_values: tuple[int, ...] = (2, 3, 4), t_max: int = 8
) -> ExperimentResult:
    """Section 4.1 rate: with ``n_1 = 1``,
    ``Pr[S(t)] >= ((2^t-1)/2^t)^{k-1} >= 1 - (k-1)/2^t``.

    The configuration used is ``(1, 2, 2, ...)``: one unique source plus
    ``k-1`` pair sources.
    """
    rows = []
    passed = True
    for k in k_values:
        sizes = (1,) + (2,) * (k - 1)
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        task = leader_election(alpha.n)
        series = run_queries(
            compile_chain(alpha), [Query.series(task, t_max)]
        )[0]
        for t, prob in enumerate(series, start=1):
            strong = blackboard_unique_source_lower_bound(k, t)
            linear = blackboard_unique_source_linear_bound(k, t)
            ok = prob >= strong >= linear
            passed &= ok
            rows.append(
                (
                    k,
                    t,
                    f"{float(prob):.6f}",
                    f"{float(strong):.6f}",
                    f"{float(linear):.6f}",
                    "ok" if ok else "VIOLATED",
                )
            )
    return ExperimentResult(
        experiment_id="theorem-4.1-rate",
        title="Blackboard convergence vs the paper's lower bounds (n_1=1)",
        headers=("k", "t", "exact Pr[S(t)]", "(1-2^-t)^(k-1)", "1-(k-1)/2^t", "check"),
        rows=rows,
        passed=passed,
    )


def theorem42_message_passing(
    n_max: int = 6, t_max: int = 4
) -> ExperimentResult:
    """Theorem 4.2: worst-case clique LE solvable iff ``gcd(n_i) = 1``.

    For every shape: exact limit under the Lemma 4.3 adversarial ports
    (must be 1 iff gcd = 1) and under benign round-robin ports (may be 1
    even when gcd > 1 -- footnote 5; always 1 when gcd = 1).
    """
    configs = []
    items = []
    for n in range(2, n_max + 1):
        task = leader_election(n)
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            configs.append((n, shape, alpha))
            items.append(
                (
                    compile_chain(alpha, adversarial_assignment(shape)),
                    [Query.limit(task)],
                )
            )
            items.append(
                (
                    compile_chain(alpha, round_robin_assignment(n)),
                    [Query.limit(task)],
                )
            )
    # Both port assignments of every shape answered in one grouped
    # pass: items alternate adversarial/round-robin per shape.
    answers = run_group_queries(items)
    rows = []
    passed = True
    for (n, shape, alpha), (adv_limit,), (rr_limit,) in zip(
        configs, answers[0::2], answers[1::2]
    ):
        predicted = message_passing_worst_case_solvable(alpha)
        ok = (
            (adv_limit == 1) == predicted
            and adv_limit in (0, 1)
            and rr_limit in (0, 1)
            and (not predicted or rr_limit == 1)
        )
        passed &= ok
        rows.append(
            (
                n,
                shape,
                alpha.gcd,
                float(adv_limit),
                float(rr_limit),
                "yes" if predicted else "no",
                "ok" if ok else "MISMATCH",
            )
        )
    return ExperimentResult(
        experiment_id="theorem-4.2",
        title="Message-passing worst-case leader election: solvable iff gcd = 1",
        headers=(
            "n",
            "sizes",
            "gcd",
            "limit (adversarial ports)",
            "limit (round-robin ports)",
            "paper (worst case)",
            "check",
        ),
        rows=rows,
        notes=[
            "benign ports may solve gcd>1 shapes (the adversarial limit is "
            "the worst case the theorem speaks about)",
        ],
        passed=passed,
    )


def lemma_b1_equiprobability(n_max: int = 4, t_max: int = 3) -> ExperimentResult:
    """Lemma B.1: consistent realizations are equiprobable with mass 2^-tk."""
    rows = []
    passed = True
    for n in range(1, n_max + 1):
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            for t in range(1, t_max + 1):
                counts = Counter(
                    realization_probability(rho, alpha)
                    for rho in iter_consistent_realizations(alpha, t)
                )
                probs = set(counts)
                total = sum(mass * count for mass, count in counts.items())
                expected = Fraction(1, 2 ** (t * alpha.k))
                ok = probs == {expected} and total == 1
                passed &= ok
                rows.append(
                    (
                        n,
                        shape,
                        t,
                        str(expected),
                        len(probs),
                        str(total),
                        "ok" if ok else "MISMATCH",
                    )
                )
    return ExperimentResult(
        experiment_id="lemma-B.1",
        title="Equiprobability of consistent realizations (Lemma B.1)",
        headers=("n", "sizes", "t", "2^-tk", "#distinct probs", "total mass", "check"),
        rows=rows,
        passed=passed,
    )


def extension_k_leader(n_max: int = 7) -> ExperimentResult:
    """Extension: k-leader election characterizations in both models.

    Blackboard: solvable iff a sub-multiset of the ``n_i`` sums to ``k``.
    Worst-case clique: solvable iff ``gcd(n_i) | k`` -- validated against
    the matching-closure oracle and (for small n) the exact chain limits
    under adversarial ports.
    """
    rows = []
    passed = True
    for n in range(2, n_max + 1):
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            adv_limits = bb_limits = None
            if n <= 5:
                # One batch per chain across every k: all the limits
                # share one topologically-ordered pass each.
                tasks = [k_leader_election(n, k) for k in range(1, n + 1)]
                adv_limits = run_queries(
                    compile_chain(alpha, adversarial_assignment(shape)),
                    [Query.limit(t) for t in tasks],
                )
                bb_limits = run_queries(
                    compile_chain(alpha),
                    [Query.limit(t) for t in tasks],
                )
            for k in range(1, n + 1):
                bb = blackboard_k_leader_solvable(alpha, k)
                oracle = worst_case_k_leader_solvable(shape, k)
                closed = gcd_divides_k(shape, k)
                agree = oracle == closed
                chain_check = "-"
                if adv_limits is not None:
                    limit = adv_limits[k - 1]
                    bb_limit = bb_limits[k - 1]
                    agree &= (limit == 1) == oracle
                    agree &= (bb_limit == 1) == bb
                    chain_check = f"adv={float(limit):g} bb={float(bb_limit):g}"
                passed &= agree
                rows.append(
                    (
                        n,
                        shape,
                        k,
                        "yes" if bb else "no",
                        "yes" if oracle else "no",
                        "yes" if closed else "no",
                        chain_check,
                        "ok" if agree else "MISMATCH",
                    )
                )
    return ExperimentResult(
        experiment_id="extension-k-leader",
        title="k-leader election: subset-sum (blackboard) and gcd | k (clique)",
        headers=(
            "n",
            "sizes",
            "k",
            "blackboard",
            "clique oracle",
            "gcd|k",
            "chain limits",
            "check",
        ),
        rows=rows,
        notes=[
            "the Section 1.2 exercise (2-leader election) is the k=2 row: "
            "blackboard needs a sub-multiset summing to 2, the clique needs "
            "gcd in {1, 2}",
        ],
        passed=passed,
    )


def extension_k_leader_closed_form(
    alpha: RandomnessConfiguration, k: int
) -> bool:
    """Convenience re-export used by examples."""
    return message_passing_worst_case_k_leader_solvable(alpha, k)


__all__ = [
    "extension_k_leader",
    "extension_k_leader_closed_form",
    "lemma_b1_equiprobability",
    "theorem41_blackboard",
    "theorem41_convergence",
    "theorem42_message_passing",
]
