"""Leader election over many seeds at once: the decision round of each seed.

The round-complexity experiment runs one election hundreds of times per
shape, one seed per run, and reads only the round at which each run
decided.  :func:`election_rounds` runs all of those seeds together, one
numpy pass per round over the seeds still undecided.  It re-derives the
two election rules from their definitions instead of driving the node
classes, so the per-seed node simulator stays an independent reference:
the tests compare the two seed by seed.

The state is the consistency partition itself.  Per seed, each node
carries the restricted-growth label of its knowledge class: the ``i``-th
distinct class met in node order is labelled ``i``.  Round ``r`` reads
the time-``r-1`` labels:

* **Decision.**  Every node sees the multiset of time-``r-1`` classes,
  so the election decides in round ``r`` exactly when some sub-multiset
  of their sizes sums to ``k`` (the rule of ``choose_classes``).
* **Refinement.**  Otherwise the labels refine by the round's bit and by
  what arrived.  A ``BlackboardLeaderNode``'s class is its bit history,
  so the key is ``(label, bit)``.  An ``EuclidLeaderNode``'s tag folds
  in everything it received, so the key is ``(label, bit, (sender label,
  request flag) per port)``.
* **Matching move** (clique only).  A node of the smallest class ``A``
  requests through the ``index``-th of its ports facing the next-larger
  class ``B``.  Each of ``A`` and ``B`` is the least tag id of its size.
  Tag ids of one round are allocated in node order, so the least id is
  the least restricted-growth label.  ``index`` is the node's bit
  history read as a binary number, taken modulo ``|B| <= n - 1``; it is
  kept modulo ``lcm(1..n-1)``.

Bits come from a :func:`draw_bits` table.  Stream ``j`` of seed ``s`` is
``alpha.make_sources(s)[j]`` whatever the shape, so one table serves
every shape with at most as many sources.  A seed still undecided past
the end of the table re-draws its streams up to ``max_rounds``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration

#: Largest ``n`` handled: subset sums of class sizes live in a uint64 bit
#: mask, and bit-history indices modulo ``lcm(1..n-1)`` in int64.
MAX_NODES = 40

#: Rounds per stream of a drawn table.  Every seed of the round-complexity
#: experiment decides by round 13; a seed outliving the table re-draws.
TABLE_ROUNDS = 32


def draw_bits(seeds: Iterable[int], sources: int, rounds: int) -> np.ndarray:
    """The bit table: ``table[row, j, t - 1]`` is round ``t``'s bit of
    stream ``j`` of ``seeds[row]``.

    Stream ``j`` of ``seed`` is ``alpha.make_sources(seed)[j]`` for every
    ``alpha`` with more than ``j`` sources.  Only the bits are kept, not
    the generators.
    """
    seeds = list(seeds)
    table = np.empty((len(seeds), sources, rounds), dtype=np.uint8)
    config = RandomnessConfiguration.independent(sources)
    for row, seed in enumerate(seeds):
        table[row] = [stream.prefix(rounds) for stream in
                      config.make_sources(seed)]
    return table


def election_rounds(
    alpha: RandomnessConfiguration,
    seeds: Iterable[int],
    *,
    k: int = 1,
    ports: PortAssignment | None = None,
    max_rounds: int = 64,
    bits: np.ndarray | None = None,
) -> np.ndarray:
    """The round at which the ``k``-leader election decides, per seed.

    ``ports=None`` runs the ``BlackboardLeaderNode`` rule; a port
    assignment runs the ``EuclidLeaderNode`` rule on that clique.  Entry
    ``s`` is the ``rounds`` of a run of those nodes with ``seeds[s]``
    when that run decides within ``max_rounds`` rounds, and ``-1`` when
    it does not.  ``bits`` is a :func:`draw_bits` table for ``seeds``
    with at least ``alpha.k`` sources; without one, a table is drawn.
    """
    seeds = [int(seed) for seed in seeds]
    rounds = np.full(len(seeds), -1, dtype=np.int64)
    for r, live, _, decided in _partitions(
        alpha, seeds, k, ports, max_rounds, bits
    ):
        rounds[live[decided]] = r
    return rounds


def _partitions(
    alpha: RandomnessConfiguration,
    seeds: list[int],
    k: int,
    ports: PortAssignment | None,
    max_rounds: int,
    bits: np.ndarray | None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per round ``r``: ``(r, live, labels, decided)``.

    ``live`` holds the indices into ``seeds`` still undecided before
    round ``r``, ``labels`` their time-``r-1`` labels (one row each), and
    ``decided`` which of them decide in round ``r``.
    """
    n = alpha.n
    if k < 1:
        raise ValueError("need k >= 1")
    if n > MAX_NODES:
        raise ValueError(f"batched election handles n <= {MAX_NODES}")
    if ports is not None and ports.n != n:
        raise ValueError("ports and alpha disagree on n")
    if bits is None:
        bits = draw_bits(seeds, alpha.k, min(max_rounds, TABLE_ROUNDS))
    elif bits.shape[0] != len(seeds) or bits.shape[1] < alpha.k:
        raise ValueError(
            f"need a bit table of {len(seeds)} seeds x {alpha.k} sources, "
            f"got {bits.shape[:2]}"
        )
    if k > n:
        return
    source = np.asarray(alpha.assignment)
    live = np.arange(len(seeds))
    labels = np.zeros((len(seeds), n), dtype=np.int64)
    if ports is not None:
        neighbour = np.array(
            [ports.neighbours(i) for i in range(n)], dtype=np.int64
        ).reshape(n, n - 1)
        # back[i, p - 1]: the port of neighbour[i, p - 1] facing i.
        back = np.array(
            [[ports.port_to(j, i) for j in ports.neighbours(i)]
             for i in range(n)],
            dtype=np.int64,
        ).reshape(n, n - 1)
        modulus = math.lcm(*range(1, n))
        index = np.zeros((len(seeds), alpha.k), dtype=np.int64)
        request = np.zeros((len(seeds), n), dtype=np.int64)  # 0: none
    for r in range(1, max_rounds + 1):
        sizes = (labels[:, :, None] == np.arange(n)).sum(axis=1)
        decided = _has_subset_sum(sizes, k)
        yield r, live, labels, decided
        if decided.any():
            undecided = ~decided
            live, labels, sizes, bits = (
                live[undecided], labels[undecided], sizes[undecided],
                bits[undecided],
            )
            if ports is not None:
                index, request = index[undecided], request[undecided]
        if not live.size:
            return
        if r > bits.shape[2]:
            bits = draw_bits([seeds[s] for s in live], alpha.k, max_rounds)
        round_bits = bits[:, : alpha.k, r - 1]
        bit = round_bits[:, source]
        if ports is None:
            labels = _first_appearance(np.stack([labels, bit], axis=2))
            continue
        received = labels[:, neighbour] * 2 + (request[:, neighbour] == back)
        index = (2 * index + round_bits) % modulus
        request = _requests(labels, sizes, index[:, source], neighbour)
        labels = _first_appearance(
            np.concatenate(
                [labels[:, :, None], bit[:, :, None], received], axis=2
            )
        )


def _has_subset_sum(sizes: np.ndarray, k: int) -> np.ndarray:
    """Per row: does some sub-multiset of the class sizes sum to ``k``?"""
    reachable = np.ones(len(sizes), dtype=np.uint64)  # bit s: sum s reachable
    for column in sizes.T.astype(np.uint64):
        reachable |= reachable << column
    return (reachable >> np.uint64(k)) & np.uint64(1) == 1


def _first_appearance(keys: np.ndarray) -> np.ndarray:
    """Restricted-growth labels of the key rows ``keys[s, i, :]`` per ``s``."""
    same = (keys[:, :, None, :] == keys[:, None, :, :]).all(axis=3)
    first = same.argmax(axis=2)  # the first node with an equal key
    opens = first == np.arange(keys.shape[1])
    rank = np.cumsum(opens, axis=1) - 1
    return np.take_along_axis(rank, first, axis=1)


def _requests(
    labels: np.ndarray,
    sizes: np.ndarray,
    index: np.ndarray,
    neighbour: np.ndarray,
) -> np.ndarray:
    """Each node's matching-request port (``0`` for none) from the
    time-``r-1`` labels and class sizes and its bit-history index."""
    n = labels.shape[1]
    absent = n + 1  # larger than every class size
    smallest = np.where(sizes > 0, sizes, absent).min(axis=1)
    larger = np.where(sizes > smallest[:, None], sizes, absent).min(axis=1)
    class_a = (sizes == smallest[:, None]).argmax(axis=1)
    class_b = (sizes == larger[:, None]).argmax(axis=1)
    requests = (labels == class_a[:, None]) & (larger < absent)[:, None]
    faces_b = labels[:, neighbour] == class_b[:, None, None]
    target = index % larger[:, None]
    chosen = faces_b & (np.cumsum(faces_b, axis=2) - 1 == target[:, :, None])
    chosen &= requests[:, :, None]
    return np.where(chosen.any(axis=2), chosen.argmax(axis=2) + 1, 0)


__all__ = ["MAX_NODES", "TABLE_ROUNDS", "draw_bits", "election_rounds"]
