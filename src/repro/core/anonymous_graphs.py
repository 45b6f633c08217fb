"""Solvability on anonymous graphs (the conclusion's open direction).

With a *single* randomness source (``k = 1``) every node receives the same
bits, so bit equalities carry no information and the consistency partition
evolves deterministically: one round of refinement is exactly one round of
**port-aware color refinement** (1-WL on the port-labeled graph), and the
partition stabilizes at the coarsest equitable partition within at most
``n - 1`` rounds.  A task is then solvable iff the stable partition solves
it -- this is the deterministic-algorithm side of anonymous computing
(Angluin; Yamashita-Kameda), recovered as the ``k = 1`` slice of the
paper's framework.

For small graphs the module computes the *worst case over all port
labelings* by exhaustive enumeration, which reproduces two results the
paper cites:

* Angluin 1980: no deterministic leader election on anonymous rings;
* Codenotti et al.: leader election on ``K_{m,n}`` iff ``gcd(m, n) = 1``
  (under the classical semantics where messages carry the sender's port,
  ``include_back_ports=True``).
"""

from __future__ import annotations

from typing import Iterator

from ..models.graph import GraphTopology
from ..randomness.configuration import RandomnessConfiguration
from .eventual import eventual_partition
from .markov import PartitionState
from .tasks import SymmetryBreakingTask


def color_refinement_fixpoint(
    topology: GraphTopology, *, include_back_ports: bool = True
) -> PartitionState:
    """The coarsest equitable partition of the port-labeled graph.

    This is the deterministic (``k = 1``) limit of the consistency
    partition: what an anonymous network can distinguish without usable
    randomness -- the eventual partition of a single-source
    configuration.
    """
    return eventual_partition(
        RandomnessConfiguration.from_group_sizes((topology.n,)),
        topology,
        back_ports=include_back_ports,
    )


def deterministic_solvable(
    topology: GraphTopology,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
) -> bool:
    """Deterministic solvability on one labeled topology."""
    state = color_refinement_fixpoint(
        topology, include_back_ports=include_back_ports
    )
    return task.solvable_from_partition([frozenset(b) for b in state])


def iter_labeling_verdicts(
    base: GraphTopology,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 16,
) -> Iterator[tuple[GraphTopology, bool]]:
    """Deterministic solvability for every port labeling of ``base``."""
    for labeled in base.iter_labelings(limit=limit):
        yield labeled, deterministic_solvable(
            labeled, task, include_back_ports=include_back_ports
        )


def worst_case_deterministic_solvable(
    base: GraphTopology,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 16,
) -> bool:
    """True when *every* port labeling solves the task deterministically."""
    return all(
        verdict
        for _, verdict in iter_labeling_verdicts(
            base, task, include_back_ports=include_back_ports, limit=limit
        )
    )


def randomized_worst_case_solvable(
    base: GraphTopology,
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 12,
) -> bool:
    """Worst case over labelings of the *randomized* eventual solvability.

    Uses the exact chain limit per labeling; only for small graphs (the
    labeling count is capped at ``limit``).
    """
    from ..chain import compile_chain

    if alpha.n != base.n:
        raise ValueError("configuration and topology sizes differ")
    for labeled in base.iter_labelings(limit=limit):
        # One-shot chains, one per labeling: bypass the process-wide
        # memo so exhaustive labeling sweeps do not pin them forever.
        chain = compile_chain(
            alpha,
            labeled,
            include_back_ports=include_back_ports,
            use_memo=False,
        )
        if not chain.eventually_solvable(task):
            return False
    return True


__all__ = [
    "color_refinement_fixpoint",
    "deterministic_solvable",
    "iter_labeling_verdicts",
    "randomized_worst_case_solvable",
    "worst_case_deterministic_solvable",
]
