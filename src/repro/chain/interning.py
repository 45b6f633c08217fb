"""State interning: canonical partitions as dense integer label vectors.

The seed implementation represented a consistency partition as a sorted
tuple of sorted node tuples and re-canonicalized it (allocating dozens of
small tuples) on every refinement step.  The compiled engine instead
works on *label vectors* in restricted-growth form: ``labels[i]`` is the
block index of node ``i``, with block indices assigned in order of first
appearance.  Restricted-growth strings are in bijection with set
partitions, so the label vector IS the canonical form -- no sorting, no
nested tuples, and hash-consing a partition is one dict lookup on a flat
``tuple[int, ...]``.

:class:`StateTable` is the hash-consing table: it assigns dense integer
ids to label vectors, so the rest of the engine can store transitions as
flat integer arrays.
"""

from __future__ import annotations

from typing import Hashable, Iterable

#: A canonical label vector: ``labels[i]`` is node ``i``'s block index,
#: blocks numbered in order of first appearance (restricted growth).
LabelVector = tuple[int, ...]


def canonical_labels(raw: Iterable[Hashable]) -> LabelVector:
    """Renumber an arbitrary per-node key/label vector into RGS form.

    Two vectors canonicalize identically iff they induce the same
    partition (the same equality pattern), which is exactly the
    consistency semantics: only *which nodes share* matters.
    """
    relabel: dict[int, int] = {}
    out = []
    for value in raw:
        index = relabel.get(value)
        if index is None:
            index = relabel[value] = len(relabel)
        out.append(index)
    return tuple(out)


def labels_from_blocks(blocks: Iterable[Iterable[int]]) -> LabelVector:
    """Label vector of a partition given as blocks of node indices."""
    assigned: dict[int, int] = {}
    for index, block in enumerate(blocks):
        for node in block:
            assigned[node] = index
    raw = [assigned[node] for node in range(len(assigned))]
    return canonical_labels(raw)


def blocks_from_labels(labels: LabelVector) -> tuple[tuple[int, ...], ...]:
    """The partition as the seed's canonical state: sorted tuple of
    sorted node tuples (see :data:`repro.core.markov.PartitionState`)."""
    count = max(labels) + 1 if labels else 0
    blocks: list[list[int]] = [[] for _ in range(count)]
    for node, label in enumerate(labels):
        blocks[label].append(node)
    return tuple(sorted(tuple(block) for block in blocks))


def block_count(labels: LabelVector) -> int:
    """Number of blocks (``max + 1`` in restricted-growth form)."""
    return max(labels) + 1 if labels else 0


def block_sizes(labels: LabelVector) -> tuple[int, ...]:
    """Sorted multiset of block sizes -- all a symmetric task looks at."""
    counts = [0] * block_count(labels)
    for label in labels:
        counts[label] += 1
    return tuple(sorted(counts))


class StateTable:
    """Hash-consing table from label vectors to dense integer ids."""

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        self._ids: dict[LabelVector, int] = {}
        self._labels: list[LabelVector] = []

    def intern(self, labels: LabelVector) -> int:
        """The id of ``labels``, assigning the next dense id if new."""
        sid = self._ids.get(labels)
        if sid is None:
            sid = self._ids[labels] = len(self._labels)
            self._labels.append(labels)
        return sid

    def get(self, labels: LabelVector) -> int | None:
        return self._ids.get(labels)

    def labels_of(self, sid: int) -> LabelVector:
        return self._labels[sid]

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)


__all__ = [
    "LabelVector",
    "StateTable",
    "block_count",
    "block_sizes",
    "blocks_from_labels",
    "canonical_labels",
    "labels_from_blocks",
]
