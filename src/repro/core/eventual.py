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
signature, ``(label[i], labels behind each port of i)``; with back
ports every received label is paired with the sender's port (the
Yamashita--Kameda convention).  On the blackboard (``ports=None``)
nothing refines the source partition: Theorem 4.1.

:func:`eventual_labels` is the one refinement kernel.  It refines a
batch of port tables at once (``behind[b, i, p]``: the node behind port
``p + 1`` of node ``i`` in table ``b``, ``-1`` past a node's degree), one
numpy pass per round over the tables whose partition still moved.
:func:`eventual_partition` is its one-table call, and the exhaustive
sweeps (every clique port table in ``analysis.worst_case_search``, every
labeling of a small graph in ``core.anonymous_graphs``) refine whole
batches; :func:`solvable_rows` then asks the task once per distinct
size multiset.

This module is an oracle *independent* of the compiled chains: it
imports no chain code (CI greps for it), so the chains' exact limits
can be checked against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..randomness.configuration import RandomnessConfiguration

if TYPE_CHECKING:
    from .markov import PartitionState


def restricted_growth(keys: np.ndarray) -> np.ndarray:
    """Restricted-growth labels of the key rows ``keys[b, i, :]`` per
    ``b``: equal keys get equal labels, numbered in order of first
    appearance.

    When the key columns fit, each key row is first packed into one
    integer (a mixed-radix code, injective on the keys), so nodes
    compare one number instead of a row.
    """
    if keys.size:
        low = int(keys.min())
        base = int(keys.max()) - low + 1
        if base ** keys.shape[2] < 1 << 63:
            place = base ** np.arange(keys.shape[2], dtype=np.int64)
            keys = ((keys - low) @ place)[:, :, None]
    same = (keys[:, :, None, :] == keys[:, None, :, :]).all(axis=3)
    first = same.argmax(axis=2)  # the first node with an equal key
    opens = first == np.arange(keys.shape[1])
    rank = np.cumsum(opens, axis=1) - 1
    return np.take_along_axis(rank, first, axis=1)


def eventual_labels(source, behind, back=None) -> np.ndarray:
    """The stable refinement of ``source`` under every table of a batch.

    ``behind`` is a ``(B, n, d)`` array of neighbour ids, padded with
    ``-1`` for nodes of degree below ``d``; ``back`` (same shape, or
    ``None`` for Eq. 2) holds the sender's port of each entry.
    ``source`` is one ``(n,)`` label row for every table or a ``(B, n)``
    array.  Returns the ``(B, n)`` restricted-growth labels of each
    table's fixpoint.  A pass refines only the tables that split in the
    previous pass: a refinement that splits no block leaves the labels
    unchanged, since every key starts with the node's own label.
    """
    behind = np.asarray(behind, dtype=np.int64)
    batch, n, width = behind.shape
    source = np.broadcast_to(np.asarray(source, dtype=np.int64), (batch, n))
    labels = restricted_growth(source[:, :, None])
    present = behind >= 0
    flat = np.where(present, behind, 0).reshape(batch, n * width)
    if back is not None:
        back = np.where(present, np.asarray(back, dtype=np.int64), -1)
    active = np.arange(batch)
    while active.size:
        current = labels[active]
        seen = np.take_along_axis(current, flat[active], axis=1)
        seen = seen.reshape(len(active), n, width)
        keys = [current[:, :, None], np.where(present[active], seen, -1)]
        if back is not None:
            keys.append(back[active])
        refined = restricted_growth(np.concatenate(keys, axis=2))
        moved = (refined != current).any(axis=1)
        labels[active[moved]] = refined[moved]
        active = active[moved]
    return labels


def solvable_rows(labels: np.ndarray, task) -> np.ndarray:
    """Per label row: is ``task`` solvable from its class sizes?

    The task is asked once per distinct size multiset.
    """
    n = labels.shape[1]
    sizes = np.sort((labels[:, :, None] == np.arange(n)).sum(axis=1), axis=1)
    distinct, inverse = np.unique(sizes, axis=0, return_inverse=True)
    verdicts = np.array(
        [task.solvable_from_sizes(row[row > 0].tolist()) for row in distinct],
        dtype=bool,
    )
    return verdicts[inverse.reshape(-1)]


def _blocks(labels) -> "PartitionState":
    """The partition of a label vector as sorted node tuples.

    Labels are numbered in order of each block's least node, so the
    blocks already come out sorted.
    """
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for node, label in enumerate(labels):
        blocks[label].append(node)
    return tuple(tuple(block) for block in blocks)


def _padded(rows) -> np.ndarray:
    """Ragged integer rows as one array padded with ``-1``."""
    width = max(map(len, rows), default=0)
    table = np.full((len(rows), width), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        table[i, : len(row)] = row
    return table


def eventual_partition(
    alpha: RandomnessConfiguration, ports=None, *, back_ports: bool = False
) -> "PartitionState":
    """The partition the consistency chain of ``(alpha, ports)`` absorbs in.

    ``ports`` is a :class:`~repro.models.ports.PortAssignment`, a
    :class:`~repro.models.graph.GraphTopology`, or ``None`` for the
    blackboard.  The result is :func:`eventual_labels` of the one table,
    in the :data:`~repro.core.markov.PartitionState` form.
    """
    if ports is None:
        # The constructor numbers sources in first-appearance order.
        return _blocks(alpha.assignment)
    n = alpha.n
    if ports.n != n:
        raise ValueError("configuration and ports sizes differ")
    rows = [ports.neighbours(i) for i in range(n)]
    back = None
    if back_ports:
        back = _padded(
            [[ports.port_to(j, i) for j in row] for i, row in enumerate(rows)]
        )[None]
    labels = eventual_labels(alpha.assignment, _padded(rows)[None], back)
    return _blocks(labels[0].tolist())


__all__ = [
    "eventual_labels",
    "eventual_partition",
    "restricted_growth",
    "solvable_rows",
]
