"""Exact and sampled computation of ``Pr[S(t) | alpha]`` (Section 3.4).

``S(t)`` is the set of realizations at time ``t`` that solve the task; its
probability given a configuration ``alpha`` is the number of solving
*source* realizations times ``2^{-tk}`` (Lemma B.1).  Three engines:

* :func:`solving_probability_enumerated` -- literal enumeration of the
  ``2^{tk}`` source realizations; the ground truth for everything else.
* :class:`~repro.core.markov.ConsistencyChain` -- exact via the partition
  Markov chain (polynomial in the number of reachable partitions rather
  than exponential in ``tk``); see :mod:`repro.core.markov`.
  :func:`solving_probability_exact` / :func:`solving_probability_series`
  ask the compiled chain through the query front door
  (:func:`repro.chain.run_queries`).
* :func:`solving_probability_sampled` -- Monte-Carlo estimate, for
  parameters where exactness is out of reach.

The test suite cross-validates all three.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Iterator

from ..models.base import CommunicationModel
from ..models.blackboard import BlackboardModel
from ..models.message_passing import MessagePassingModel
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration
from ..randomness.realizations import (
    NodeRealization,
    iter_consistent_realizations,
)
from .solvability import realization_solves
from .tasks import SymmetryBreakingTask

#: Guard for the literal enumerator (2^(t*k) source realizations).
ENUMERATION_LIMIT = 1 << 22


def model_for(
    alpha: RandomnessConfiguration, ports: PortAssignment | None = None
) -> CommunicationModel:
    """The communication model implied by ``ports`` (None = blackboard)."""
    if ports is None:
        return BlackboardModel(alpha.n)
    if ports.n != alpha.n:
        raise ValueError("port assignment size does not match alpha")
    return MessagePassingModel(ports)


def solving_realizations(
    model: CommunicationModel,
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
) -> Iterator[NodeRealization]:
    """The positive-probability members of ``S(t)`` (with multiplicity per
    source realization, matching the measure of Lemma B.1)."""
    for realization in iter_consistent_realizations(alpha, t):
        if realization_solves(model, realization, task):
            yield realization


def solving_probability_enumerated(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    solver: Callable[[CommunicationModel, NodeRealization, SymmetryBreakingTask], bool]
    | None = None,
) -> Fraction:
    """Exact ``Pr[S(t) | alpha]`` by enumerating source realizations.

    ``solver`` defaults to the fast partition-refinement criterion; tests
    inject the literal Definition 3.1/3.4 map searches here to check
    Lemma 3.5 end to end.
    """
    total = 2 ** (t * alpha.k)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration would visit {total} realizations; use the "
            "ConsistencyChain or sampling instead"
        )
    solver = solver or realization_solves
    model = model_for(alpha, ports)
    solving = sum(
        1
        for realization in iter_consistent_realizations(alpha, t)
        if solver(model, realization, task)
    )
    return Fraction(solving, total)


def solving_probability_exact(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    backend: str = "exact",
) -> "Fraction | float":
    """``Pr[S(t) | alpha]`` via the compiled partition Markov chain.

    ``backend="exact"`` (default) returns a ``Fraction``;
    ``backend="float"`` the numpy ``float64`` value.  Routed through the
    query front door (:func:`repro.chain.run_queries`), which shares the
    chain's cached exact distributions across calls.
    """
    from ..chain import Query, compile_chain, run_queries

    return run_queries(
        compile_chain(alpha, ports),
        [Query.probability(task, t)],
        backend=backend,
    )[0]


def solving_probability_series(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t_max: int,
    ports: PortAssignment | None = None,
    *,
    backend: str = "exact",
) -> "list[Fraction] | list[float]":
    """``Pr[S(t) | alpha]`` for ``t = 1..t_max`` (one front-door query)."""
    from ..chain import Query, compile_chain, run_queries

    return run_queries(
        compile_chain(alpha, ports),
        [Query.series(task, t_max)],
        backend=backend,
    )[0]


def solving_probability_sampled(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    samples: int = 2000,
    seed: int | None = 0,
    method: str = "auto",
) -> float:
    """Monte-Carlo estimate of ``Pr[S(t) | alpha]``.

    Routed through the vectorized substream kernel
    (:mod:`repro.sampling`): the estimate is the first ``samples``
    trials of the counter-based stream keyed by ``seed``, so it is a
    pure function of its arguments, independent of execution order, and
    extends bit-exactly under a larger budget.  ``seed=None`` draws a
    fresh stream.  ``method`` selects the batch solver (``"bits"``
    knowledge-partition passes or ``"scalar"``, the legacy
    per-trajectory oracle loop).
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    from ..sampling import sample_cell

    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big") >> 1
    return sample_cell(
        alpha, task, t, ports, stream_seed=seed, samples=samples,
        method=method,
    ).probability


def eventually_solvable(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    ports: PortAssignment | None = None,
) -> bool:
    """Exact Definition 3.3 decision via the chain's absorption analysis."""
    from ..chain import Query, compile_chain, run_queries

    return run_queries(
        compile_chain(alpha, ports), [Query.solvable(task)]
    )[0]


__all__ = [
    "ENUMERATION_LIMIT",
    "eventually_solvable",
    "model_for",
    "solving_probability_enumerated",
    "solving_probability_exact",
    "solving_probability_sampled",
    "solving_probability_series",
    "solving_realizations",
]
