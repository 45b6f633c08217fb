"""Input-free symmetry-breaking tasks (Section 3.1).

A task is defined solely by a *symmetric* chromatic output complex ``O``:
the input complex is the single facet ``{(i, bottom) : i in [n]}`` and the
specification maps it to every output simplex.  Symmetry (stability under
name permutation) is what makes per-facet solvability name-independent.

Two representations are provided:

* :class:`OutputComplexTask` -- an explicit output complex; solvability is
  the partition-refinement criterion derived from Definition 3.4 (see
  :mod:`repro.core.solvability` for the derivation and the equivalence
  tests against literal simplicial-map search);
* :class:`CountTask` -- the common special case where legality depends only
  on *how many* nodes output each value (leader election: one ``1`` and
  ``n-1`` ``0``s).  Such tasks admit a fast solvability check via a
  bin-packing of knowledge-class sizes into value counts, and their output
  complexes can be generated on demand.

All node names are 0-based internally; renderers restore the paper's
1-based numbering.
"""

from __future__ import annotations

import abc
import itertools
from functools import lru_cache
from typing import Hashable, Iterable, Mapping, Sequence

from ..topology import Simplex, SimplicialComplex, Vertex

#: Blocks of node indices: frozensets, or any iterables such as the
#: node tuples of a canonical ``PartitionState``.
Partition = Iterable[Iterable[int]]


def _validate_partition(
    partition: Partition, n: int
) -> tuple[frozenset[int], ...]:
    """The blocks of ``partition`` as frozensets, checked to partition
    ``{0..n-1}`` (non-empty, disjoint, covering)."""
    blocks = tuple(frozenset(block) for block in partition)
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise ValueError("partition blocks must be non-empty")
        if seen & block:
            raise ValueError(f"partition blocks overlap: {sorted(seen & block)}")
        seen |= block
    if seen != set(range(n)):
        raise ValueError(
            f"partition covers {sorted(seen)}, expected all of 0..{n - 1}"
        )
    return blocks


class SymmetryBreakingTask(abc.ABC):
    """An input-free task given by a symmetric output complex."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n

    # ------------------------------------------------------------------
    # Complexes
    # ------------------------------------------------------------------
    def input_complex(self) -> SimplicialComplex:
        """The trivial input complex ``I = {(i, bottom)}`` (input-free)."""
        return SimplicialComplex(
            [Simplex(Vertex(i, None) for i in range(self.n))]
        )

    @abc.abstractmethod
    def output_complex(self) -> SimplicialComplex:
        """The output complex ``O``."""

    def projected_output(self) -> SimplicialComplex:
        """``pi(O)`` -- the union of consistency projections of all facets."""
        from .projection import project_complex

        return project_complex(self.output_complex())

    # ------------------------------------------------------------------
    # Solvability
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def solvable_from_partition(self, partition: Partition) -> bool:
        """Does a global state with this consistency partition solve the task?

        ``partition`` is the partition of ``{0..n-1}`` into knowledge
        classes (the facets of ``pi~(rho)``).  The criterion is Definition
        3.4 reduced to combinatorics: the task is solved iff the knowledge
        partition *refines* the value partition of some output facet.
        """

    def solvable_from_sizes(self, sizes: Iterable[int]) -> bool:
        """Solvability from knowledge-class sizes alone.

        Correct for every *symmetric* output complex: symmetry means facet
        value-partitions are closed under renaming, so only the multiset of
        block sizes matters.  The default implementation materializes an
        arbitrary partition with the given sizes.
        """
        sizes = list(sizes)
        if sum(sizes) != self.n:
            raise ValueError(f"sizes {sizes} do not sum to n={self.n}")
        partition: list[frozenset[int]] = []
        next_node = 0
        for size in sizes:
            partition.append(frozenset(range(next_node, next_node + size)))
            next_node += size
        return self.solvable_from_partition(partition)


class OutputComplexTask(SymmetryBreakingTask):
    """A task given by an explicit output complex."""

    def __init__(self, complex_: SimplicialComplex, *, validate: bool = True):
        names = complex_.names()
        if not names:
            raise ValueError("output complex must be non-empty")
        n = max(names) + 1
        super().__init__(n)
        if validate:
            if names != frozenset(range(n)):
                raise ValueError(
                    f"output complex names {sorted(names)} must be 0..{n - 1}"
                )
            if not complex_.is_chromatic():
                raise ValueError("output complex must be chromatic")
            if not complex_.is_pure() or complex_.dimension != n - 1:
                raise ValueError(
                    "output complex facets must involve all n nodes"
                )
            if not complex_.is_symmetric():
                raise ValueError(
                    "symmetry-breaking tasks need a symmetric output complex"
                )
        self._complex = complex_

    def output_complex(self) -> SimplicialComplex:
        return self._complex

    def solvable_from_partition(self, partition: Partition) -> bool:
        blocks = _validate_partition(partition, self.n)
        for facet in self._complex.facets:
            value_blocks = facet.value_partition()
            if _refines(blocks, value_blocks):
                return True
        return False


def _refines(
    fine: Sequence[frozenset[int]], coarse: Sequence[frozenset[int]]
) -> bool:
    """Every block of ``fine`` is contained in some block of ``coarse``."""
    return all(
        any(block <= coarse_block for coarse_block in coarse)
        for block in fine
    )


class CountTask(SymmetryBreakingTask):
    """A symmetric task whose legality depends only on output-value counts.

    ``profiles`` is a collection of legal count profiles, each a mapping
    ``value -> count`` with counts summing to ``n``.  A facet is legal iff
    the multiset of its output values matches some profile.  Leader election
    is ``{leader: 1, follower: n-1}``.
    """

    def __init__(
        self,
        n: int,
        profiles: Iterable[Mapping[Hashable, int]],
        *,
        name: str = "count-task",
    ):
        super().__init__(n)
        normalized: list[tuple[tuple[Hashable, int], ...]] = []
        for profile in profiles:
            items = tuple(sorted(profile.items(), key=lambda kv: repr(kv[0])))
            if any(count < 1 for _, count in items):
                raise ValueError(f"profile {profile} has non-positive counts")
            if sum(count for _, count in items) != n:
                raise ValueError(f"profile {profile} does not cover n={n} nodes")
            normalized.append(items)
        if not normalized:
            raise ValueError("need at least one profile")
        self.profiles = tuple(sorted(set(normalized)))
        self.name = name

    # ------------------------------------------------------------------
    def count_multisets(self) -> tuple[tuple[int, ...], ...]:
        """For each profile, the sorted multiset of value counts."""
        return tuple(
            tuple(sorted(count for _, count in profile))
            for profile in self.profiles
        )

    def output_complex(self) -> SimplicialComplex:
        """Generate ``O`` explicitly (exponential in ``n``; small ``n`` only)."""
        facets: list[Simplex] = []
        for profile in self.profiles:
            values: list[Hashable] = []
            for value, count in profile:
                values.extend([value] * count)
            for arrangement in set(itertools.permutations(values)):
                facets.append(
                    Simplex(
                        Vertex(i, value) for i, value in enumerate(arrangement)
                    )
                )
        return SimplicialComplex(facets)

    def solvable_from_partition(self, partition: Partition) -> bool:
        blocks = _validate_partition(partition, self.n)
        sizes = tuple(sorted(len(block) for block in blocks))
        return any(
            _can_pack(sizes, targets) for targets in self.count_multisets()
        )

    def solvable_from_sizes(self, sizes: Iterable[int]) -> bool:
        sizes = tuple(sorted(sizes))
        if sum(sizes) != self.n:
            raise ValueError(f"sizes {sizes} do not sum to n={self.n}")
        return any(
            _can_pack(sizes, targets) for targets in self.count_multisets()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountTask({self.name!r}, n={self.n})"


@lru_cache(maxsize=65536)
def _can_pack(sizes: tuple[int, ...], targets: tuple[int, ...]) -> bool:
    """Can ``sizes`` be split into groups summing exactly to each target?

    Both arguments are sorted tuples.  Standard backtracking with
    memoization; the instance sizes here are tiny (``n <= 12``).
    """
    if not sizes:
        return not targets
    if not targets:
        return False
    if sum(sizes) != sum(targets):
        return False
    largest = sizes[-1]
    rest = sizes[:-1]
    tried: set[int] = set()
    for index, target in enumerate(targets):
        if target < largest or target in tried:
            continue
        tried.add(target)
        remaining = target - largest
        new_targets = list(targets[:index]) + list(targets[index + 1 :])
        if remaining:
            new_targets.append(remaining)
        if _can_pack(rest, tuple(sorted(new_targets))):
            return True
    return False


__all__ = [
    "CountTask",
    "OutputComplexTask",
    "Partition",
    "SymmetryBreakingTask",
]
