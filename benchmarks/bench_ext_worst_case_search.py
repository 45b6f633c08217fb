"""Extension: Theorem 4.2's worst-case quantifier, brute-forced.

Enumerates every port assignment of small cliques and checks that the
minimum eventual-solvability limit is 1 iff gcd = 1, and that the
Lemma 4.3 construction attains the exact minimum (the paper's adversary
is optimal).  The kernel times one shape's cold orbit table: all 1296
assignments canonicalized under source-preserving relabeling, and the
177 orbit representatives compiled.
"""

from repro.analysis import (
    exhaustive_worst_case,
    port_orbit_table,
    worst_case_port_search,
)


def bench_worst_case_search_experiment(run_experiment):
    run_experiment(
        worst_case_port_search,
        shapes=((1, 2), (3,), (2, 2), (1, 3), (4,)),
        rounds=1,
    )


def bench_exhaustive_sweep_kernel(benchmark):
    """All 1296 assignments of the (2,2) clique, exact limit each."""

    def kernel():
        port_orbit_table.cache_clear()
        return exhaustive_worst_case((2, 2))

    lowest, highest, solvable, total = benchmark(kernel)
    assert (lowest, highest, total) == (0, 1, 1296)
    assert solvable == 1152
