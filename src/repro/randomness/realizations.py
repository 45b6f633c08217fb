"""Realizations of the randomness and their probabilities (Lemma B.1).

A *realization* at time ``t`` is the tuple ``(x_1, ..., x_n)`` of ``t``-bit
strings received by the nodes -- a facet of the realization complex
``R(t)``.  Given a configuration ``alpha``:

* a realization is *consistent* with ``alpha`` when nodes sharing a source
  hold identical strings (otherwise it lies in the bad set ``B_alpha`` and
  has probability zero);
* every consistent realization has probability exactly ``2^{-tk}``
  (Lemma B.1), because it is determined by the ``k`` source strings.

Exact probability engines therefore enumerate the ``2^{tk}`` *source*
realizations instead of the ``2^{tn}`` node realizations.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .configuration import RandomnessConfiguration

Bits = tuple[int, ...]
NodeRealization = tuple[Bits, ...]


def all_bit_strings(t: int) -> Iterator[Bits]:
    """All ``2^t`` bit strings of length ``t`` in lexicographic order."""
    yield from itertools.product((0, 1), repeat=t)


def iter_source_realizations(k: int, t: int) -> Iterator[tuple[Bits, ...]]:
    """All ``2^{tk}`` assignments of ``t``-bit strings to ``k`` sources."""
    yield from itertools.product(all_bit_strings(t), repeat=k)


def node_realization(
    alpha: RandomnessConfiguration, source_bits: Sequence[Bits]
) -> NodeRealization:
    """Expand per-source strings into the per-node realization."""
    if len(source_bits) != alpha.k:
        raise ValueError(
            f"expected {alpha.k} source strings, got {len(source_bits)}"
        )
    return tuple(map(source_bits.__getitem__, alpha.assignment))


def iter_consistent_realizations(
    alpha: RandomnessConfiguration, t: int
) -> Iterator[NodeRealization]:
    """All positive-probability realizations at time ``t`` given ``alpha``.

    Note that *distinct* sources are allowed to emit identical strings; only
    same-source nodes are forced to agree.  The iterator therefore has
    exactly ``2^{tk}`` elements, possibly with repeated node realizations
    when two sources happen to coincide -- repetitions are kept because each
    corresponds to a distinct elementary event of probability ``2^{-tk}``.
    """
    for source_bits in iter_source_realizations(alpha.k, t):
        yield node_realization(alpha, source_bits)


def is_consistent(
    realization: NodeRealization, alpha: RandomnessConfiguration
) -> bool:
    """True when the realization is outside the bad set ``B_alpha``."""
    if len(realization) != alpha.n:
        raise ValueError(
            f"realization has {len(realization)} nodes, alpha has {alpha.n}"
        )
    first_of_source: dict[int, Bits] = {}
    for source, bits in zip(alpha.assignment, realization):
        if first_of_source.setdefault(source, bits) != bits:
            return False
    return True


def realization_probability(
    realization: NodeRealization, alpha: RandomnessConfiguration
) -> Fraction:
    """``Pr[rho | alpha]`` per Lemma B.1: ``0`` or ``2^{-tk}`` exactly.

    All strings in the realization must have equal length ``t``; ``t`` is
    inferred from the realization itself.
    """
    lengths = set(map(len, realization))
    if len(lengths) != 1:
        raise ValueError(f"ragged realization lengths: {sorted(lengths)}")
    t = lengths.pop()
    if not is_consistent(realization, alpha):
        return Fraction(0)
    return _mass(t, alpha.k)


@functools.lru_cache(maxsize=None)
def _mass(t: int, k: int) -> Fraction:
    """``2^{-tk}``, one shared ``Fraction`` per ``(t, k)``."""
    return Fraction(1, 2 ** (t * k))


def count_consistent_realizations(alpha: RandomnessConfiguration, t: int) -> int:
    """``2^{tk}`` -- closed form, used to cross-check the enumerators."""
    return 2 ** (t * alpha.k)


__all__ = [
    "Bits",
    "NodeRealization",
    "all_bit_strings",
    "count_consistent_realizations",
    "is_consistent",
    "iter_consistent_realizations",
    "iter_source_realizations",
    "node_realization",
    "realization_probability",
]
