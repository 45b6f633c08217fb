"""Port-number assignments for the message-passing clique.

Each node privately labels its ``n-1`` incident edges with distinct port
numbers ``1..n-1`` (Section 2.1).  A :class:`PortAssignment` records, for
every node, which node sits behind each of its ports.  Port numbers at the
two ends of an edge are uncorrelated.

Three constructors matter:

* :func:`round_robin_assignment` -- the canonical benign labeling
  ``port j of i -> (i + j) mod n``;
* :func:`random_assignment` -- an adversary-free random labeling;
* :func:`adversarial_assignment` -- the Lemma 4.3 construction: when every
  group size is divisible by ``g``, ports are numbered so that the cyclic
  shift ``f(m*g + r) = m*g + (r+1 mod g)`` preserves both sources and ports,
  forcing every knowledge class to be a union of ``f``-orbits (size
  multiples of ``g``), which kills leader election when ``g > 1``.

Erratum note: the paper states the construction as
``((i+j) mod g + ceil(i/g)*g + ceil(j/g)*g) mod n``; with ``ceil(i/g)`` the
map is not a valid port assignment (node 1 gets itself as a neighbour
already for ``g=2, n=4``).  With ``floor(i/g)`` both required properties
hold -- validity and ``f``-equivariance -- and the test suite checks them
for a range of ``(n, g)``; we implement the repaired formula.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence


class PortAssignment:
    """For every node, the neighbour behind each port.

    ``neighbour(i, j)`` is the node connected to node ``i`` by the edge
    labeled ``j`` at ``i``, with ports ``1..n-1`` (paper numbering).
    """

    __slots__ = ("_table",)

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        if n < 1:
            raise ValueError("need at least one node")
        nodes = set(range(n))
        cleaned: list[tuple[int, ...]] = []
        for i, row in enumerate(table):
            row = tuple(map(int, row))
            if len(row) != n - 1:
                raise ValueError(
                    f"node {i}: expected {n - 1} ports, got {len(row)}"
                )
            others = set(row)
            if len(others) != n - 1 or i in others or not others <= nodes:
                raise ValueError(
                    f"node {i}: ports {row} are not a bijection onto the "
                    f"other {n - 1} nodes"
                )
            cleaned.append(row)
        self._table = tuple(cleaned)

    @property
    def n(self) -> int:
        return len(self._table)

    def neighbour(self, node: int, port: int) -> int:
        """The node behind ``port`` (1-based) of ``node`` -- ``pi_node(port)``."""
        if not 1 <= port <= self.n - 1:
            raise ValueError(f"port must be in 1..{self.n - 1}, got {port}")
        return self._table[node][port - 1]

    def neighbours(self, node: int) -> tuple[int, ...]:
        """All neighbours of ``node`` in port order (ports ``1..n-1``)."""
        return self._table[node]

    def port_to(self, node: int, target: int) -> int:
        """The port of ``node`` whose edge leads to ``target`` (1-based)."""
        return self._table[node].index(target) + 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PortAssignment):
            return self._table == other._table
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._table)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortAssignment(n={self.n})"


def round_robin_assignment(n: int) -> PortAssignment:
    """The canonical labeling: port ``j`` of node ``i`` leads to ``(i+j) mod n``."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PortAssignment(
        [[(i + j) % n for j in range(1, n)] for i in range(n)]
    )


def random_assignment(n: int, rng: random.Random | int | None = None) -> PortAssignment:
    """Independently shuffle each node's port labels."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    table: list[list[int]] = []
    for i in range(n):
        others = [x for x in range(n) if x != i]
        rng.shuffle(others)
        table.append(others)
    return PortAssignment(table)


def adversarial_assignment(group_sizes: Iterable[int]) -> PortAssignment:
    """The Lemma 4.3 construction for ``g = gcd(group_sizes)``.

    Nodes are assumed numbered so that the first ``n_1`` share source 1, the
    next ``n_2`` share source 2, etc. (the layout produced by
    :meth:`RandomnessConfiguration.from_group_sizes`).  Port ``j`` of node
    ``i`` leads to ``((i+j) mod g + floor(i/g)*g + ceil(j/g)*g) mod n``.
    """
    sizes = tuple(group_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"invalid group sizes {sizes}")
    n = sum(sizes)
    g = math.gcd(*sizes)
    if n == 1:
        return PortAssignment([[]])
    table = [
        [((i + j) % g + (i // g) * g + math.ceil(j / g) * g) % n for j in range(1, n)]
        for i in range(n)
    ]
    return PortAssignment(table)


def shift_symmetry(n: int, g: int) -> dict[int, int]:
    """The Lemma 4.3 symmetry ``f``: cyclic shift inside each ``g``-block.

    ``f(m*g + r) = m*g + ((r + 1) mod g)``.  Under the adversarial
    assignment, ``f`` preserves sources (when ``g`` divides every group
    size) and ports: ``neighbour(f(i), j) = f(neighbour(i, j))``.
    """
    if n % g:
        raise ValueError(f"g={g} must divide n={n}")
    mapping = {}
    for i in range(n):
        m, r = divmod(i, g)
        mapping[i] = m * g + (r + 1) % g
    return mapping


def is_equivariant(ports: PortAssignment, symmetry: dict[int, int]) -> bool:
    """Check ``neighbour(f(i), j) == f(neighbour(i, j))`` for all ``i, j``."""
    n = ports.n
    for i in range(n):
        for j in range(1, n):
            if ports.neighbour(symmetry[i], j) != symmetry[ports.neighbour(i, j)]:
                return False
    return True


__all__ = [
    "PortAssignment",
    "adversarial_assignment",
    "is_equivariant",
    "random_assignment",
    "round_robin_assignment",
    "shift_symmetry",
]
