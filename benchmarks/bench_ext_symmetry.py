"""Extension: the symmetry census (generalized Lemma 4.3 and its limits).

Exhaustively verifies, over every port assignment of the 4-clique, that a
non-trivial source-preserving automorphism always defeats leader election
-- and that the converse fails (the knowledge obstruction is finer than
global symmetry).
"""

from repro.analysis import has_nontrivial_automorphism, symmetry_census
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration


def bench_symmetry_census_experiment(run_experiment):
    run_experiment(symmetry_census, shapes=((2, 2), (1, 3)), rounds=1)


def bench_automorphism_search_kernel(benchmark):
    """Automorphism search (node-0 image propagation) for the (3,3)
    adversarial clique."""
    shape = (3, 3)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = adversarial_assignment(shape)

    def kernel():
        return has_nontrivial_automorphism(ports, alpha)

    assert benchmark(kernel) is True
