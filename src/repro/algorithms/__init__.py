"""Runnable protocols on the simulated anonymous networks.

The framework of :mod:`repro.core` decides *whether* a task is solvable;
this package contains the protocols that *solve* it: leader election on
the blackboard (Theorem 4.1), the Euclid-style election on the clique
(Theorem 4.2), the literal ``CreateMatching`` of Algorithm 1, and the
Theorem C.1 reduction of name-independent tasks to leader election.
:mod:`repro.algorithms.batched_election` runs the two elections over many
seeds at once for the round-complexity experiment.
"""

from .blackboard_leader import BlackboardLeaderNode, choose_classes
from .euclid_leader import EuclidLeaderNode
from .matching import (
    OBSERVER,
    V1,
    V2,
    CreateMatchingNode,
    matching_summary,
)
from .network import (
    BlackboardNetwork,
    CliqueNetwork,
    NodeContext,
    NodeProtocol,
    RunResult,
)
from .reductions import (
    Specification,
    consensus_on_max,
    frequency_rank,
    is_name_independent,
    parity_of_sum,
    solve_name_independent_task,
)

__all__ = [
    "BlackboardLeaderNode",
    "BlackboardNetwork",
    "CliqueNetwork",
    "CreateMatchingNode",
    "EuclidLeaderNode",
    "NodeContext",
    "NodeProtocol",
    "OBSERVER",
    "RunResult",
    "Specification",
    "V1",
    "V2",
    "choose_classes",
    "consensus_on_max",
    "frequency_rank",
    "is_name_independent",
    "matching_summary",
    "parity_of_sum",
    "solve_name_independent_task",
]
