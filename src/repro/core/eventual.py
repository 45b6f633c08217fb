"""The eventual consistency partition: Lemma 3.2's limit, named.

Nodes that share a randomness source draw equal bits in every round, and
nodes with distinct sources draw different bits at some round with
probability 1.  So the consistency partition almost surely reaches the
*stable port-aware refinement of the source partition* and never moves
again:

* it refines the source partition, once every pair of sources has
  differed;
* nodes in one block of the stable refinement keep equal knowledge
  forever (induction on rounds: equal sources give equal bits, and the
  stable refinement puts the nodes behind each port in equal blocks).

``Pr[S(t)]`` therefore tends to 1 when the task is solvable from that
partition's class sizes and to 0 otherwise: the zero-one law of
Lemma 3.2 with its value named.  The refinement round is Eq. 2's
signature, ``(label[i], labels behind each port of i)``; with
``back_ports`` every received label is paired with the sender's port
(the Yamashita--Kameda convention).  On the blackboard (``ports=None``)
nothing refines the source partition: Theorem 4.1.

This module is an oracle *independent* of the compiled chains: it
imports no chain code (CI greps for it), so the chains' exact limits
can be checked against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from ..randomness.configuration import RandomnessConfiguration

if TYPE_CHECKING:
    from .markov import PartitionState


def _canonical(keys: Iterable[Hashable]) -> tuple[int, ...]:
    """Restricted-growth labels: equal keys get equal labels, numbered
    in order of first appearance."""
    seen: dict[Hashable, int] = {}
    return tuple(seen.setdefault(key, len(seen)) for key in keys)


def _blocks(labels: tuple[int, ...]) -> "PartitionState":
    """The partition of a label vector as sorted node tuples.

    Labels are numbered in order of each block's least node, so the
    blocks already come out sorted.
    """
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for node, label in enumerate(labels):
        blocks[label].append(node)
    return tuple(tuple(block) for block in blocks)


def eventual_partition(
    alpha: RandomnessConfiguration, ports=None, *, back_ports: bool = False
) -> "PartitionState":
    """The partition the consistency chain of ``(alpha, ports)`` absorbs in.

    ``ports`` is a :class:`~repro.models.ports.PortAssignment`, a
    :class:`~repro.models.graph.GraphTopology`, or ``None`` for the
    blackboard.  Starting from the source labels, one refinement round
    is repeated until no block splits; the result is in the
    :data:`~repro.core.markov.PartitionState` form.
    """
    labels = _canonical(alpha.assignment)
    if ports is None:
        return _blocks(labels)
    n = alpha.n
    if ports.n != n:
        raise ValueError("configuration and ports sizes differ")
    behind = [ports.neighbours(i) for i in range(n)]
    if back_ports:
        behind = [
            tuple((j, ports.port_to(j, i)) for j in row)
            for i, row in enumerate(behind)
        ]
    while True:
        if back_ports:
            keys = (
                (labels[i], tuple((labels[j], port) for j, port in row))
                for i, row in enumerate(behind)
            )
        else:
            keys = (
                (labels[i], tuple(labels[j] for j in row))
                for i, row in enumerate(behind)
            )
        refined = _canonical(keys)
        if refined == labels:
            return _blocks(labels)
        labels = refined


__all__ = ["eventual_partition"]
