"""Theorem 4.2 under Eq. 2: the sorted port table is a counterexample.

In the sorted labelling, port ``j`` of node ``i`` leads to the ``j``-th
other node in increasing order.  Under Eq. 2 as coded (a receiver
learns the sender's knowledge, not which of the sender's ports faces
it; ``include_back_ports=False``), nodes with equal sources then see
equal labels behind every port, so the source partition never splits
and leader election stays unsolvable although ``gcd = 1``.  With back
ports the same table elects a leader with probability 1.  These tests
pin those facts on the chain (full and quotient), on the enumeration
oracle and on the literal Definition 3.4 search, which builds no chain.
Which semantics is the paper's clique model is still open (ROADMAP
item 1(b)).
"""

import pytest

from repro.chain import compile_chain
from repro.core import leader_election, solving_probability_enumerated
from repro.core.solvability import solves_by_definition_34
from repro.models import PortAssignment
from repro.randomness import RandomnessConfiguration


def sorted_ports(n):
    return PortAssignment([[j for j in range(n) if j != i] for i in range(n)])


@pytest.mark.parametrize("shape", [(2, 3), (2, 5)])
@pytest.mark.parametrize("quotient", [False, True], ids=["full", "quotient"])
@pytest.mark.parametrize(
    "back_ports, limit", [(False, 0), (True, 1)], ids=["eq2", "back-ports"]
)
def test_chain_limit(shape, quotient, back_ports, limit):
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    chain = compile_chain(
        alpha, sorted_ports(alpha.n),
        include_back_ports=back_ports, quotient=quotient,
    )
    assert chain.limit_solving_probability(leader_election(alpha.n)) == limit


@pytest.mark.parametrize(
    "solver", [None, solves_by_definition_34], ids=["partition", "def-3.4"]
)
def test_eq2_never_solves_at_2_3(solver):
    alpha = RandomnessConfiguration.from_group_sizes((2, 3))
    task = leader_election(5)
    for t in (1, 2, 3):
        assert solving_probability_enumerated(
            alpha, task, t, sorted_ports(5), solver=solver
        ) == 0
