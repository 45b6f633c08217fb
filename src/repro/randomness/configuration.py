"""Randomness configurations (the facets ``alpha`` of the assignment complex ``A``).

A configuration assigns every node ``i in [n]`` to a source ``R_j``; the
paper normalizes source indices to be contiguous ``1..k``.  Internally we
use 0-based node indices ``0..n-1`` and 0-based source indices ``0..k-1``;
presentation helpers restore the paper's 1-based convention.

The derived quantities driving both characterizations live here:
``group_sizes`` (the ``n_i``), ``gcd`` (Theorem 4.2), and
``has_singleton_source`` (Theorem 4.1).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .source import BitSource


class RandomnessConfiguration:
    """An assignment ``alpha`` of nodes to randomness sources.

    ``assignment[i]`` is the 0-based source index of node ``i``.  The
    constructor normalizes source indices to first-appearance order, which
    makes configurations canonical: two assignments that differ only in the
    naming of sources compare equal.
    """

    __slots__ = ("_assignment", "_k")

    def __init__(self, assignment: Sequence[int]):
        if not assignment:
            raise ValueError("a configuration needs at least one node")
        relabel: dict[int, int] = {}
        normalized = []
        for source in assignment:
            if source not in relabel:
                relabel[source] = len(relabel)
            normalized.append(relabel[source])
        self._assignment = tuple(normalized)
        self._k = len(relabel)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def independent(cls, n: int) -> "RandomnessConfiguration":
        """Every node has its own private source (``k = n``)."""
        return cls(tuple(range(n)))

    @classmethod
    def shared(cls, n: int) -> "RandomnessConfiguration":
        """All nodes share one source (``k = 1``)."""
        return cls((0,) * n)

    @classmethod
    def from_group_sizes(cls, sizes: Iterable[int]) -> "RandomnessConfiguration":
        """Nodes ``0..n_1-1`` on source 0, next ``n_2`` on source 1, etc."""
        assignment: list[int] = []
        for index, size in enumerate(sizes):
            if size < 1:
                raise ValueError(f"group sizes must be positive, got {size}")
            assignment.extend([index] * size)
        return cls(assignment)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def assignment(self) -> tuple[int, ...]:
        return self._assignment

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._assignment)

    @property
    def k(self) -> int:
        """Number of distinct sources actually used (``k(alpha)``)."""
        return self._k

    def source_of(self, node: int) -> int:
        return self._assignment[node]

    def groups(self) -> list[tuple[int, ...]]:
        """Nodes per source, indexed by 0-based source id."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for node, source in enumerate(self._assignment):
            out[source].append(node)
        return [tuple(group) for group in out]

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """The paper's ``(n_1, ..., n_k)`` in source order."""
        return tuple(len(group) for group in self.groups())

    @property
    def sorted_group_sizes(self) -> tuple[int, ...]:
        """Sizes sorted ascending -- the shape of the configuration."""
        return tuple(sorted(self.group_sizes))

    @property
    def gcd(self) -> int:
        """``gcd(n_1, ..., n_k)`` -- the Theorem 4.2 quantity."""
        return math.gcd(*self.group_sizes)

    @property
    def has_singleton_source(self) -> bool:
        """``exists i: n_i = 1`` -- the Theorem 4.1 condition."""
        return 1 in self.group_sizes

    def source_partition(self) -> list[frozenset[int]]:
        """The partition of nodes induced by shared sources."""
        return [frozenset(group) for group in self.groups()]

    # ------------------------------------------------------------------
    # Sampling support
    # ------------------------------------------------------------------
    def make_sources(self, seed: int | None = None) -> list[BitSource]:
        """One independent :class:`BitSource` per source id."""
        rng_seeds = (
            [None] * self.k
            if seed is None
            else [seed * 1_000_003 + j for j in range(self.k)]
        )
        return [BitSource(s) for s in rng_seeds]

    def node_bits(
        self, sources: Sequence[BitSource], t: int
    ) -> tuple[tuple[int, ...], ...]:
        """Per-node bit prefixes at time ``t`` given per-source streams."""
        prefixes = [source.prefix(t) for source in sources]
        return tuple(prefixes[self._assignment[i]] for i in range(self.n))

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, RandomnessConfiguration):
            return self._assignment == other._assignment
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._assignment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomnessConfiguration(sizes={self.group_sizes})"


def enumerate_configurations(n: int) -> Iterator[RandomnessConfiguration]:
    """All configurations of ``n`` nodes -- the facets of the complex ``A``.

    Configurations are in bijection with set partitions of ``[n]`` (a Bell
    number of them), generated via restricted-growth strings, which is
    exactly the normalized-assignment encoding.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def grow(prefix: list[int], used: int) -> Iterator[RandomnessConfiguration]:
        if len(prefix) == n:
            yield RandomnessConfiguration(tuple(prefix))
            return
        for source in range(used + 1):
            prefix.append(source)
            yield from grow(prefix, max(used, source + 1))
            prefix.pop()

    yield from grow([], 0)


def enumerate_size_shapes(n: int) -> Iterator[tuple[int, ...]]:
    """All multisets of group sizes (integer partitions of ``n``), sorted.

    Two configurations with the same shape behave identically for every
    input-free symmetry-breaking task (anonymity), so sweeps iterate shapes
    rather than all Bell(n) configurations.
    """

    def parts(remaining: int, minimum: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in parts(remaining - first, first):
                yield (first, *rest)

    yield from parts(n, 1)


__all__ = [
    "RandomnessConfiguration",
    "enumerate_configurations",
    "enumerate_size_shapes",
]
