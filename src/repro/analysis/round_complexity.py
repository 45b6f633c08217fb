"""Round complexity: protocol decision rounds vs the chain's expectation.

The chain computes the exact expected round at which the *global state*
first solves the task; the protocols decide exactly one round later (the
partition becomes common knowledge with a one-round lag).  This experiment
runs the leader-election protocols many times and checks the empirical
mean decision round against ``E[T] + 1`` -- tying the analysis layer to the
executable layer quantitatively, not just on the 0/1 outcome.

What runs: the blackboard election (``BlackboardLeaderNode``'s rule) on
four shapes and the Euclid election (``EuclidLeaderNode``'s rule) on two
shapes under the Lemma 4.3 adversarial ports, 400 seeds each.  All seeds
of a shape run in one batched pass,
:func:`repro.algorithms.batched_election.election_rounds`, over one bit
table drawn for the whole experiment.  What pins that pass to the node
classes: ``tests/algorithms/test_network_reference.py`` requires its
per-seed decision round to equal ``network.run().rounds`` of the real
nodes, on every shape with ``n <= 6`` and on these six shapes at all 400
seeds, and CI keeps the batched module free of node and simulator code.
"""

from __future__ import annotations

import math

import numpy as np

from ..algorithms.batched_election import (
    TABLE_ROUNDS,
    draw_bits,
    election_rounds,
)
from ..core.leader_election import leader_election
from ..chain import Query, compile_chain, run_queries
from ..models.ports import adversarial_assignment
from ..randomness.configuration import RandomnessConfiguration
from .result import ExperimentResult


def _protocol_mean_rounds(
    shape: tuple[int, ...],
    *,
    clique: bool,
    runs: int,
    max_rounds: int = 256,
    bits: np.ndarray | None = None,
) -> tuple[float, float]:
    """Empirical mean and standard error of the decision round.

    Seeds ``0..runs-1``; ``bits`` is a :func:`draw_bits` table for them
    (without one, ``election_rounds`` draws its own).
    """
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = adversarial_assignment(shape) if clique else None
    rounds = election_rounds(
        alpha, range(runs), ports=ports, max_rounds=max_rounds, bits=bits
    )
    undecided = np.flatnonzero(rounds < 0)
    if undecided.size:
        raise AssertionError(
            f"protocol failed to decide on {shape} (seed {undecided[0]})"
        )
    total = int(rounds.sum())
    total_sq = int((rounds * rounds).sum())
    mean = total / runs
    variance = max(0.0, total_sq / runs - mean * mean)
    return mean, math.sqrt(variance / runs)


def protocol_round_complexity(
    runs: int = 400,
) -> ExperimentResult:
    """Mean protocol decision round vs chain ``E[T] + 1``.

    Blackboard cases must match closely (the blackboard protocol decides
    exactly one round after the state solves).  Clique cases give an upper
    bound check only: the Euclid protocol's matching moves can *shorten*
    the wait relative to passive knowledge exchange, and its decision rule
    lags one round.
    """
    rows = []
    passed = True
    blackboard_shapes = [(1, 1), (1, 2), (1, 2, 2), (1, 1, 2)]
    clique_shapes = [(2, 3), (1, 2)]
    # One table of every stream the six shapes read, drawn once.
    sources = max(map(len, blackboard_shapes + clique_shapes))
    bits = draw_bits(range(runs), sources, TABLE_ROUNDS)
    for shape in blackboard_shapes:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        task = leader_election(alpha.n)
        (expected,) = run_queries(
            compile_chain(alpha), [Query.expected_time(task)]
        )
        assert expected is not None
        predicted = float(expected) + 1
        mean, stderr = _protocol_mean_rounds(
            shape, clique=False, runs=runs, bits=bits
        )
        # Allow 5 standard errors plus a small absolute slack.
        ok = abs(mean - predicted) <= 5 * stderr + 0.05
        passed &= ok
        rows.append(
            (
                "blackboard",
                shape,
                f"{predicted:.4f}",
                f"{mean:.4f}",
                f"{stderr:.4f}",
                "ok" if ok else "MISMATCH",
            )
        )

    for shape in clique_shapes:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        task = leader_election(alpha.n)
        (expected,) = run_queries(
            compile_chain(alpha, adversarial_assignment(shape)),
            [Query.expected_time(task)],
        )
        assert expected is not None
        mean, stderr = _protocol_mean_rounds(
            shape, clique=True, runs=runs, bits=bits
        )
        # The protocol may beat passive refinement (matching pressure) but
        # never by more than its one-round announcement lag allows; sanity
        # bound: within [1, E[T] + 3].
        ok = 1.0 <= mean <= float(expected) + 3
        passed &= ok
        rows.append(
            (
                "clique (adv)",
                shape,
                f"<= {float(expected) + 1:.4f} (+lag)",
                f"{mean:.4f}",
                f"{stderr:.4f}",
                "ok" if ok else "MISMATCH",
            )
        )

    return ExperimentResult(
        experiment_id="extension-round-complexity",
        title="Protocol decision rounds vs exact chain expectation",
        headers=(
            "model",
            "sizes",
            "chain E[T]+1",
            "protocol mean",
            "std err",
            "check",
        ),
        rows=rows,
        notes=[
            f"{runs} runs per configuration; blackboard must match "
            "E[T]+1 statistically, the clique protocol is bounded",
        ],
        passed=passed,
    )


__all__ = ["protocol_round_complexity"]
