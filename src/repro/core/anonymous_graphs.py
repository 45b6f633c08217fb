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

Labelings are integer arrays, never one ``GraphTopology`` each:
:func:`labeling_tables` builds any index range of the
:meth:`~repro.models.graph.GraphTopology.iter_labelings` enumeration by
index arithmetic.  The deterministic sweep refines ``CHUNK`` labelings
per :func:`~repro.core.eventual.eventual_labels` call and stops after the
first chunk holding an unsolvable labeling.  The randomized worst case
needs an exact chain limit per labeling, and compiles one chain per
*labeling orbit* instead: an automorphism ``g`` of the base graph that
maps sources onto sources turns labeling ``T`` into ``g.T`` with
``(g.T)[g(i)] = g(T[i])``, and renaming nodes by ``g`` (and sources
alike) maps the realizations of one onto equally likely realizations of
the other, so the limit is constant on every orbit (the fold
:func:`fold_orbits` also serves the clique's port tables in
``analysis.worst_case_search``).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from ..models.graph import GraphTopology
from ..randomness.configuration import RandomnessConfiguration
from .eventual import eventual_labels, eventual_partition, solvable_rows
from .markov import PartitionState
from .tasks import SymmetryBreakingTask

#: Labelings refined per kernel call of the deterministic sweep: bounds
#: the temporaries and what a sweep that stops early has refined.
CHUNK = 128


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


def _checked_count(base: GraphTopology, limit: int) -> int:
    count = base.labeling_count()
    if count > limit:
        raise ValueError(f"{count} labelings exceed the limit {limit}")
    return count


def labeling_tables(
    base: GraphTopology, start: int, stop: int, *, back_ports: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Labelings ``start .. stop - 1`` of ``base`` as arrays.

    The order is :meth:`~repro.models.graph.GraphTopology.iter_labelings`'
    (the last node's port order varies fastest).  Returns the ``(count,
    n, d)`` neighbour array padded with ``-1`` and, with ``back_ports``,
    the sender's port of every entry (else ``None``).
    """
    rows = [base.neighbours(i) for i in range(base.n)]
    orders = [
        np.array(list(itertools.permutations(range(len(row)))),
                 dtype=np.int64).reshape(-1, len(row))
        for row in rows
    ]
    index = np.arange(start, stop, dtype=np.int64)
    perms: list[np.ndarray] = []
    for order in reversed(orders):
        index, digit = np.divmod(index, len(order))
        perms.append(order[digit])
    perms.reverse()  # perms[i][c, p]: the base slot behind port p + 1
    behind = np.full(
        (stop - start, base.n, max(map(len, rows), default=0)), -1,
        dtype=np.int64,
    )
    for i, (row, perm) in enumerate(zip(rows, perms)):
        behind[:, i, : len(row)] = np.asarray(row, dtype=np.int64)[perm]
    if not back_ports:
        return behind, None
    # inverse[i][c, o]: the port (minus one) of node i's base slot o.
    inverse = [np.argsort(perm, axis=1) for perm in perms]
    back = np.full_like(behind, -1)
    labelings = np.arange(stop - start)
    for i, row in enumerate(rows):
        for slot, j in enumerate(row):
            facing = inverse[j][:, rows[j].index(i)] + 1
            back[labelings, i, inverse[i][:, slot]] = facing
    return behind, back


def _verdict_chunks(
    base: GraphTopology,
    task: SymmetryBreakingTask,
    include_back_ports: bool,
    limit: int,
) -> Iterator[np.ndarray]:
    """Deterministic verdicts of every labeling, ``CHUNK`` at a time."""
    count = _checked_count(base, limit)
    for start in range(0, count, CHUNK):
        behind, back = labeling_tables(
            base, start, min(start + CHUNK, count),
            back_ports=include_back_ports,
        )
        labels = eventual_labels(np.zeros(base.n, dtype=np.int64), behind, back)
        yield solvable_rows(labels, task)


def iter_labeling_verdicts(
    base: GraphTopology,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 16,
) -> Iterator[tuple[GraphTopology, bool]]:
    """Deterministic solvability for every port labeling of ``base``."""
    labelings = base.iter_labelings(limit=limit)
    for verdicts in _verdict_chunks(base, task, include_back_ports, limit):
        for verdict in verdicts.tolist():
            yield next(labelings), verdict


def worst_case_deterministic_solvable(
    base: GraphTopology,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 16,
) -> bool:
    """True when *every* port labeling solves the task deterministically."""
    return all(
        verdicts.all()
        for verdicts in _verdict_chunks(base, task, include_back_ports, limit)
    )


def relabel_tables(tables: np.ndarray, g: Sequence[int]) -> np.ndarray:
    """``g.T`` for every table ``T`` of a ``(B, n, d)`` neighbour array
    (``-1`` padding kept): ``(g.T)[g(i)] = g(T[i])``."""
    perm = np.asarray(g, dtype=np.int64)
    # Entry -1 reads the appended -1: padding stays padding.
    return np.append(perm, -1)[tables][:, np.argsort(perm), :]


def _words(digits: np.ndarray, base: int) -> np.ndarray:
    """Rows of digits ``0 <= d < base`` packed into ``int64`` words, as
    many digits per word as fit: the word rows order like the digit
    rows (lexicographically)."""
    per_word = 1
    while base ** (per_word + 1) < 1 << 63:
        per_word += 1
    chunks = np.split(digits, range(per_word, digits.shape[1], per_word), axis=1)
    return np.stack(
        [
            chunk @ base ** np.arange(chunk.shape[1] - 1, -1, -1, dtype=np.int64)
            for chunk in chunks
        ],
        axis=1,
    )


def fold_orbits(
    tables: np.ndarray, group: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of a closed set of tables under the node permutations
    ``group``: ``(first, inverse)``.

    Each table is packed into words that order like its entries, and one
    numpy pass per ``g`` keeps, per table, the least table of its orbit
    met so far.  ``first`` holds each orbit's first table in array
    order, orbits in order of their least table; ``inverse[b]`` is the
    orbit of table ``b``.
    """
    count, n, _ = tables.shape

    def pack(batch: np.ndarray) -> np.ndarray:
        return _words(batch.reshape(count, -1) + 1, n + 1)

    least = pack(tables)
    rows = np.arange(count)
    for g in group:
        image = pack(relabel_tables(tables, g))
        column = (image != least).argmax(axis=1)  # first differing word
        smaller = image[rows, column] < least[rows, column]
        least = np.where(smaller[:, None], image, least)
    order = np.lexsort(least.T[::-1])  # stable: equal rows keep order
    ordered = least[order]
    opens = np.ones(count, dtype=bool)
    opens[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(count, dtype=np.int64)
    inverse[order] = np.cumsum(opens) - 1
    return order[opens], inverse


def source_automorphisms(
    base: GraphTopology, source: Sequence[int]
) -> list[tuple[int, ...]]:
    """The automorphisms of ``base``'s underlying graph that map the
    source groups of ``source`` onto source groups, in lexicographic
    order (a backtracking search that keeps adjacency at every step)."""
    from ..chain.quotient import _is_source_relabeling

    adjacent = [set(base.neighbours(i)) for i in range(base.n)]
    found: list[tuple[int, ...]] = []

    def extend(g: list[int]) -> None:
        i = len(g)
        if i == base.n:
            if _is_source_relabeling(source, g):
                found.append(tuple(g))
            return
        for image in range(base.n):
            if image in g or len(adjacent[image]) != len(adjacent[i]):
                continue
            if all(
                (j in adjacent[i]) == (g[j] in adjacent[image])
                for j in range(i)
            ):
                extend(g + [image])

    extend([])
    return found


def labeling_orbits(
    base: GraphTopology, source: Sequence[int], *, limit: int = 1 << 12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every labeling of ``base`` and its orbit under
    :func:`source_automorphisms`: ``(tables, first, inverse)`` as in
    :func:`fold_orbits`."""
    tables, _ = labeling_tables(base, 0, _checked_count(base, limit))
    first, inverse = fold_orbits(tables, source_automorphisms(base, source))
    return tables, first, inverse


def randomized_worst_case_solvable(
    base: GraphTopology,
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    *,
    include_back_ports: bool = True,
    limit: int = 1 << 12,
) -> bool:
    """Worst case over labelings of the *randomized* eventual solvability.

    Uses the exact chain limit of one labeling per labeling orbit (see
    the module doc); only for small graphs (the labeling count is capped
    at ``limit``).
    """
    from ..chain import compile_chain

    if alpha.n != base.n:
        raise ValueError("configuration and topology sizes differ")
    tables, first, _ = labeling_orbits(base, alpha.assignment, limit=limit)
    for table in tables[first]:
        labeled = GraphTopology([row[row >= 0].tolist() for row in table])
        # One-shot chains, one per orbit: bypass the process-wide memo
        # so exhaustive labeling sweeps do not pin them forever.
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
    "CHUNK",
    "color_refinement_fixpoint",
    "deterministic_solvable",
    "fold_orbits",
    "iter_labeling_verdicts",
    "labeling_orbits",
    "labeling_tables",
    "randomized_worst_case_solvable",
    "relabel_tables",
    "source_automorphisms",
    "worst_case_deterministic_solvable",
]
