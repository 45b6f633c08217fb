"""Exhaustive worst-case search over clique port assignments.

Theorem 4.2 quantifies over the *worst* port assignment, and Lemma 4.3
exhibits one explicit candidate.  For small cliques we can close the loop
by brute force: cover **all** ``(n-1)!^n`` port assignments, compute
the exact eventual-solvability limit for each, and check that

* when ``gcd = 1``: every assignment has limit 1 (the 'if' direction is
  truly assignment-independent);
* when ``gcd > 1``: the minimum over assignments is 0, and the Lemma 4.3
  construction attains it -- i.e. the paper's adversary is an *optimal*
  adversary, not merely a valid one.

The sweep also measures how adversarial the worst case is: the fraction
of assignments that keep leader election solvable (footnote 5 territory).

Each limit comes from the eventual partition
(:mod:`repro.core.eventual`): the consistency partition almost surely
settles at the stable port-aware refinement of the source partition, so
the limit is 1 exactly when that partition elects a leader (Lemma 3.2's
zero-one law with its value named).  No chain is compiled per
assignment; the Lemma 4.3 limit in
:func:`worst_case_port_search` is still an exact chain limit, so the
``Lemma 4.3 limit == min limit`` check compares two independent methods.

Orbits instead of assignments
-----------------------------
The system is anonymous.  Let ``G`` be the node permutations ``g`` that
map the source assignment onto itself up to a bijection ``h`` of the
sources.  ``g`` turns a port table ``T`` into ``g.T`` with
``(g.T)[g(i)] = g(T[i])``, and it maps every realization of
``(alpha, T)`` to an equally likely realization of ``(alpha, g.T)``:
rename the nodes by ``g`` and the i.i.d. source outcomes by ``h``.
Leader election only looks at knowledge-class sizes, so it is solved on
one exactly when it is solved on the other, and the limit is constant
on every ``G``-orbit.  :func:`port_orbit_table` therefore refines one
representative per orbit and weights it by the orbit size: the number
of (solvable) assignments is an exact sum of orbit sizes, and the
min/max limits range over the representatives.  For ``n = 4`` that is
60 to 333 refinements per shape instead of 1296.

The tables never exist as objects until the end: they are one integer
array built by index arithmetic, the orbits are folded on it
(:func:`~repro.core.anonymous_graphs.fold_orbits`, the fold the
anonymous-graph sweeps use), and all representatives of a shape are
refined in one :func:`~repro.core.eventual.eventual_labels` call.  The
report's seven shapes take 852 refinements in seven calls.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from ..chain import Query, compile_chain, run_queries
from ..core.anonymous_graphs import (
    fold_orbits,
    relabel_tables,
    source_automorphisms,
)
from ..core.eventual import eventual_labels, solvable_rows
from ..core.leader_election import leader_election
from ..models.graph import GraphTopology
from ..models.ports import PortAssignment, adversarial_assignment
from ..randomness.configuration import RandomnessConfiguration
from .result import ExperimentResult


def _port_tables(n: int, limit: int = 1 << 14) -> np.ndarray:
    """The ``(n-1)!^n`` clique port tables as one ``(count, n, n-1)``
    array of neighbour rows, in lexicographic order."""
    per_node = math.factorial(n - 1)
    total = per_node ** n
    if total > limit:
        raise ValueError(f"{total} assignments exceed the limit {limit}")
    orders = np.array(
        list(itertools.permutations(range(n - 1))), dtype=np.int64
    ).reshape(per_node, n - 1)
    others = np.array(
        [[x for x in range(n) if x != i] for i in range(n)], dtype=np.int64
    ).reshape(n, n - 1)
    # Table t picks order digit i (base per_node, node 0 most significant)
    # for node i.
    place = per_node ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = np.arange(total, dtype=np.int64)[:, None] // place % per_node
    return others[np.arange(n)[:, None], orders[digits]]


def iter_all_port_assignments(
    n: int, *, limit: int = 1 << 14
) -> Iterator[PortAssignment]:
    """All ``(n-1)!^n`` clique port assignments (guarded by count)."""
    for rows in _port_tables(n, limit):
        yield PortAssignment(rows.tolist())


class PortOrbit(NamedTuple):
    """One ``G``-orbit of clique port assignments (see the module doc)."""

    #: The orbit's first member in :func:`iter_all_port_assignments` order.
    ports: PortAssignment
    #: How many assignments the orbit holds.
    size: int
    #: The exact leader-election limit, shared by the whole orbit.
    limit: Fraction
    #: Whether a non-identity automorphism preserves every source exactly
    #: (the census's symmetry; also constant on the orbit).
    symmetric: bool


@functools.lru_cache(maxsize=8)
def port_orbit_table(shape: tuple[int, ...]) -> tuple[PortOrbit, ...]:
    """Every clique port assignment of ``shape``, one row per orbit.

    The tables are one integer array in enumeration order, folded into
    orbits by :func:`~repro.core.anonymous_graphs.fold_orbits`; each
    orbit is represented by its first member.  All representatives are
    refined in one :func:`~repro.core.eventual.eventual_labels` call,
    and leader election is asked once per distinct size multiset.
    Memoized per shape: the rows depend on nothing else.
    """
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    n, source = alpha.n, alpha.assignment
    tables = _port_tables(n)
    group = source_automorphisms(GraphTopology.complete(n), source)
    first, inverse = fold_orbits(tables, group)
    sizes = np.bincount(inverse).tolist()
    representatives = tables[first]
    solvable = solvable_rows(
        eventual_labels(source, representatives), leader_election(n)
    ).tolist()
    symmetric = np.zeros(len(first), dtype=bool)
    identity = tuple(range(n))
    for g in group:
        if g != identity and all(source[g[i]] == source[i] for i in range(n)):
            image = relabel_tables(representatives, g)
            symmetric |= (image == representatives).all(axis=(1, 2))
    limits = (Fraction(0), Fraction(1))
    return tuple(
        PortOrbit(PortAssignment(rows), size, limits[ok], flag)
        for rows, size, ok, flag in zip(
            representatives.tolist(), sizes, solvable, symmetric.tolist()
        )
    )


def exhaustive_worst_case(
    shape: tuple[int, ...],
) -> tuple[Fraction, Fraction, int, int]:
    """(min limit, max limit, #solvable assignments, #assignments),
    exact over all ``(n-1)!^n`` assignments via :func:`port_orbit_table`."""
    table = port_orbit_table(tuple(shape))
    limits = {row.limit for row in table}
    return (
        min(limits),
        max(limits),
        sum(row.size for row in table if row.limit == 1),
        sum(row.size for row in table),
    )


def worst_case_port_search(
    shapes: tuple[tuple[int, ...], ...] = ((1, 2), (3,), (2, 2), (1, 3), (1, 1, 2), (4,), (1, 1, 1, 1)),
) -> ExperimentResult:
    """Theorem 4.2's worst-case quantifier, checked by brute force."""
    rows = []
    passed = True
    for shape in shapes:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        task = leader_election(alpha.n)
        lowest, highest, solvable, total = exhaustive_worst_case(shape)
        (lemma_limit,) = run_queries(
            compile_chain(alpha, adversarial_assignment(shape)),
            [Query.limit(task)],
        )
        predicted_worst = Fraction(1) if alpha.gcd == 1 else Fraction(0)
        ok = (
            lowest == predicted_worst
            and lemma_limit == lowest
            and lowest in (0, 1)
            and highest in (0, 1)
        )
        passed &= ok
        rows.append(
            (
                shape,
                alpha.gcd,
                total,
                f"{solvable}/{total}",
                float(lowest),
                float(lemma_limit),
                "yes" if predicted_worst == 1 else "no",
                "ok" if ok else "MISMATCH",
            )
        )
    return ExperimentResult(
        experiment_id="extension-worst-case-search",
        title="Theorem 4.2's worst case, by exhaustive port enumeration",
        headers=(
            "sizes",
            "gcd",
            "#assignments",
            "solvable assignments",
            "min limit",
            "Lemma 4.3 limit",
            "paper worst case",
            "check",
        ),
        rows=rows,
        notes=[
            "the Lemma 4.3 assignment always attains the exact minimum: "
            "the paper's adversary is optimal, not merely valid",
            "gcd>1 shapes still have many solvable assignments "
            "(footnote 5): the worst case is genuinely adversarial",
        ],
        passed=passed,
    )


__all__ = [
    "PortOrbit",
    "exhaustive_worst_case",
    "iter_all_port_assignments",
    "port_orbit_table",
    "worst_case_port_search",
]
