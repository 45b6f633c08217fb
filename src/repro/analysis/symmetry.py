"""Symmetries of port assignments and the limits of Lemma 4.3's argument.

Lemma 4.3's impossibility engine is an *equivariant symmetry*: a
non-trivial permutation of the nodes that preserves sources and ports
forces whole orbits to stay knowledge-consistent, so no singleton class
(hence no leader) can emerge.  This module generalizes the engine and
measures its reach:

* :func:`source_preserving_automorphisms` finds **all** such symmetries of
  a given assignment;
* the census experiment verifies, exhaustively over every port assignment
  of the 4-clique, that a non-trivial automorphism always implies
  unsolvability (the generalized Lemma 4.3), and
* shows the converse **fails**: most unsolvable assignments carry *no*
  global automorphism.  The knowledge-partition obstruction is strictly
  finer than symmetry -- which matches the related work's use of graph
  *fibrations* (Boldi et al.) rather than automorphisms for the
  deterministic characterization.

The census compiles no chain: it reads
:func:`~repro.analysis.worst_case_search.port_orbit_table`, which takes
each orbit representative's limit from the eventual partition
(:func:`~repro.core.eventual.eventual_labels`, the stable port-aware
refinement of the source partition).  Its orbit-weighted counts are
exact because anonymity makes the limit constant on every orbit of
source-preserving node relabelings.  The
symmetry flag is orbit-constant too: if ``g`` is an automorphism of
``T`` that fixes every source and ``r`` relabels nodes (and sources by
``h``), then ``r g r^-1`` is an automorphism of ``r.T`` with
``source(r g r^-1(j)) = h(source(g(r^-1 j))) = source(j)``.
"""

from __future__ import annotations

from typing import Iterator

from ..chain.engine import neighbour_tables
from ..chain.quotient import _port_automorphisms
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration
from .result import ExperimentResult
from .worst_case_search import port_orbit_table


def source_preserving_automorphisms(
    ports: PortAssignment, alpha: RandomnessConfiguration
) -> Iterator[tuple[int, ...]]:
    """Non-trivial node permutations preserving sources and ports.

    A permutation ``g`` qualifies when ``source(g(i)) = source(i)`` and
    ``neighbour(g(i), p) = g(neighbour(i, p))`` for every node ``i`` and
    port ``p``.  These are the chain's structural automorphisms (at most
    ``n``, found by node-0 image propagation) that relabel no source,
    yielded in lexicographic order.
    """
    n = ports.n
    if alpha.n != n:
        raise ValueError("configuration and ports sizes differ")
    source = alpha.assignment
    identity = tuple(range(n))
    for g in sorted(_port_automorphisms(source, neighbour_tables(ports), None)):
        if g != identity and all(source[g[i]] == source[i] for i in range(n)):
            yield g


def has_nontrivial_automorphism(
    ports: PortAssignment, alpha: RandomnessConfiguration
) -> bool:
    """True when at least one non-trivial symmetry exists."""
    for _ in source_preserving_automorphisms(ports, alpha):
        return True
    return False


def symmetry_census(
    shapes: tuple[tuple[int, ...], ...] = ((2, 2), (4,), (1, 3), (1, 1, 2)),
) -> ExperimentResult:
    """Exhaustive n=4 census: symmetry implies unsolvability, never the
    reverse; and symmetry does not exhaust unsolvability."""
    rows = []
    passed = True
    for shape in shapes:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        table = port_orbit_table(tuple(shape))
        total = sum(row.size for row in table)
        solvable = sum(row.size for row in table if row.limit == 1)
        solvable_with_symmetry = sum(
            row.size for row in table if row.limit == 1 and row.symmetric
        )
        unsolvable_with_symmetry = sum(
            row.size for row in table if row.limit != 1 and row.symmetric
        )
        unsolvable_without_symmetry = (
            total - solvable - unsolvable_with_symmetry
        )
        # The sound direction must be exceptionless.
        ok = solvable_with_symmetry == 0
        # For gcd > 1 shapes the converse must visibly fail (that is the
        # finding): some unsolvable assignment without global symmetry.
        if alpha.gcd > 1:
            ok &= unsolvable_without_symmetry > 0
        passed &= ok
        rows.append(
            (
                shape,
                alpha.gcd,
                total,
                solvable,
                unsolvable_with_symmetry,
                unsolvable_without_symmetry,
                solvable_with_symmetry,
                "ok" if ok else "VIOLATED",
            )
        )
    return ExperimentResult(
        experiment_id="extension-symmetry-census",
        title="Port-assignment symmetries vs solvability (exhaustive, n=4)",
        headers=(
            "sizes",
            "gcd",
            "#assignments",
            "solvable",
            "unsolvable w/ symmetry",
            "unsolvable w/o symmetry",
            "solvable w/ symmetry (must be 0)",
            "check",
        ),
        rows=rows,
        notes=[
            "a non-trivial source-preserving port-automorphism always kills "
            "leader election (generalized Lemma 4.3) -- zero exceptions",
            "the converse fails: most unsolvable assignments have no global "
            "automorphism; the knowledge-partition obstruction is finer "
            "(cf. Boldi et al.'s fibrations in the paper's related work)",
        ],
        passed=passed,
    )


__all__ = [
    "has_nontrivial_automorphism",
    "source_preserving_automorphisms",
    "symmetry_census",
]
