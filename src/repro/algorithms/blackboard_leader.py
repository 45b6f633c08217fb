"""Leader election on the blackboard (Theorem 4.1's algorithmic side).

Every round each node posts its full random-bit history.  After round
``r``, every node knows the multiset of all ``n`` bit histories up to round
``r-1`` (the ``n-1`` posted ones plus its own prefix), and on a blackboard
this multiset determines the consistency partition exactly (knowledge
equality = bit-string equality).  The election rule is common knowledge:

    as soon as some sub-multiset of history classes has total size ``k``,
    the canonically-least such set of classes is elected; a node outputs 1
    iff its history lies in a chosen class.

With ``k = 1`` this is the paper's algorithm: elect once one node's
history is unique (its class is a singleton).  The generalized rule solves
``k``-leader election exactly when a sub-multiset of the group sizes
``n_i`` sums to ``k`` -- the blackboard characterization this library
derives and benchmarks.
"""

from __future__ import annotations

import functools
from typing import Hashable, Sequence

from .network import NodeProtocol, Payload

Bits = tuple[int, ...]


def choose_classes(
    class_sizes: Sequence[tuple[Hashable, int]], k: int
) -> tuple[Hashable, ...] | None:
    """Canonically choose classes whose sizes sum exactly to ``k``.

    ``class_sizes`` is a list of ``(class key, size)`` with distinct,
    totally-ordered keys; the choice must be a pure function of the multiset
    so that all nodes agree.  Returns the chosen keys (the first achieving
    subset in key-sorted bitmask order) or ``None`` when impossible.
    """
    return _choose_classes(tuple(class_sizes), k)


@functools.lru_cache(maxsize=1024)
def _choose_classes(
    class_sizes: tuple[tuple[Hashable, int], ...], k: int
) -> tuple[Hashable, ...] | None:
    # Every node asks with the same multiset in a round (the partition is
    # common knowledge), so all but the first call of a round are hits.
    # Cache keys compare by ``==``, so keys that are equal must have equal
    # reprs -- true of the bit tuples and interned ints the protocols use.
    ordered = sorted(class_sizes, key=lambda kv: repr(kv[0]))
    sizes = [size for _, size in ordered]
    # totals[mask] = totals[mask without its lowest bit] + that bit's size
    totals = [0]
    for mask in range(1, 1 << len(ordered)):
        low = mask & -mask
        total = totals[mask ^ low] + sizes[low.bit_length() - 1]
        if total == k:
            return tuple(
                key
                for index, (key, _) in enumerate(ordered)
                if mask >> index & 1
            )
        totals.append(total)
    return None


class BlackboardLeaderNode(NodeProtocol):
    """Blackboard node electing ``k`` leaders (default 1)."""

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self._bits: list[int] = []
        self._output: int | None = None

    def compose(self) -> Payload:
        return tuple(self._bits)

    def absorb(self, bit: int, inbox: Sequence[Payload]) -> None:
        my_prefix: Bits = tuple(self._bits)
        self._bits.append(bit)
        if self._output is not None:
            return
        histories: list[Bits] = [my_prefix] + [tuple(p) for p in inbox]
        counts: dict[Bits, int] = {}
        for history in histories:
            counts[history] = counts.get(history, 0) + 1
        if self.k > len(histories):
            return
        chosen = choose_classes(sorted(counts.items()), self.k)
        if chosen is None:
            return
        self._output = 1 if my_prefix in chosen else 0

    def output(self) -> int | None:
        return self._output


__all__ = ["BlackboardLeaderNode", "choose_classes"]
