"""Dual numerical backends for compiled-chain queries.

Every query on a :class:`~repro.chain.engine.CompiledChain` is a pass
over the same sparse integer transition structure; what varies is the
arithmetic:

* ``exact`` -- ``fractions.Fraction`` throughout.  Transition weights are
  ``count / 2^(k-1)`` with integer counts, so every probability is the
  exact rational the seed implementation produced (sums of Fractions are
  order-independent, hence byte-identical results).
* ``float`` -- numpy ``float64``.  Distributions are dense vectors and a
  round is one scatter-add over the COO arrays; absorption and hitting
  times are one reverse-topological pass over ``float64``.  Within
  ~1e-12 of exact for the state-space sizes the engine accepts, and far
  cheaper for long horizons or wide sweeps.

Backends only change representations, never the traversal order: both
rely on states being topologically sorted by block count (refinement
strictly increases the block count except for self-loops).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import CompiledChain

#: Recognized backend names (the ``backend=`` kwarg / ``--backend`` flag).
BACKENDS = ("exact", "float")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


# ----------------------------------------------------------------------
# Exact (Fraction) kernels
# ----------------------------------------------------------------------
def step_exact(
    chain: "CompiledChain", dist: dict[int, Fraction]
) -> dict[int, Fraction]:
    """One synchronous round applied to a sparse exact distribution."""
    nxt: dict[int, Fraction] = {}
    for sid, prob in dist.items():
        for dst, weight in chain.exact_out_edges(sid):
            step = prob * weight
            have = nxt.get(dst)
            nxt[dst] = step if have is None else have + step
    return nxt


def mass_exact(dist: dict[int, Fraction], mask: Sequence[bool]) -> Fraction:
    """Total probability of the masked states."""
    return sum(
        (prob for sid, prob in dist.items() if mask[sid]), Fraction(0)
    )


def distribution_exact(chain: "CompiledChain", t: int) -> dict[int, Fraction]:
    """Exact state distribution after ``t`` rounds (sparse, by state id).

    Distributions are task-independent, so they are cached on the chain:
    a sweep that queries one configuration for many tasks pays for the
    Fraction stepping exactly once.
    """
    return chain.cached_distribution_exact(t)


def series_exact(
    chain: "CompiledChain", mask: Sequence[bool], t_max: int
) -> list[Fraction]:
    """``[Pr[S(1)], ..., Pr[S(t_max)]]`` over the cached distributions.

    Horizons past the chain's distribution-cache cap stream one
    transient step at a time (still exact, still linear in ``t_max``)
    instead of re-stepping from the last cached entry per horizon.
    """
    cap = chain.distribution_cache_cap
    cached_until = min(t_max, cap - 1)
    series = [
        mass_exact(chain.cached_distribution_exact(t), mask)
        for t in range(1, cached_until + 1)
    ]
    if t_max > cached_until:
        dist = chain.cached_distribution_exact(cached_until)
        for _ in range(cached_until + 1, t_max + 1):
            dist = step_exact(chain, dist)
            series.append(mass_exact(dist, mask))
    return series


def absorption_exact(
    chain: "CompiledChain", mask: Sequence[bool]
) -> list[Fraction]:
    """Per-state probability of ever hitting the masked (solving) set.

    Solvability is monotone under refinement, so hitting the set equals
    absorption.  States arrive topologically sorted by block count, so a
    single reverse pass solves the first-step equations exactly.
    """
    probs: list[Fraction] = [Fraction(0)] * chain.num_states
    for sid in range(chain.num_states - 1, -1, -1):
        if mask[sid]:
            probs[sid] = Fraction(1)
            continue
        self_weight = Fraction(0)
        total = Fraction(0)
        for dst, weight in chain.exact_out_edges(sid):
            if dst == sid:
                self_weight = weight
            else:
                total += weight * probs[dst]
        if self_weight == 1:
            probs[sid] = Fraction(0)
        else:
            probs[sid] = total / (1 - self_weight)
    return probs


def expected_exact(
    chain: "CompiledChain", mask: Sequence[bool]
) -> list[Fraction | None]:
    """Per-state exact expected rounds to first hit the masked set.

    ``None`` marks states from which the set is not reached almost
    surely (infinite expectation).
    """
    expected: list[Fraction | None] = [None] * chain.num_states
    for sid in range(chain.num_states - 1, -1, -1):
        if mask[sid]:
            expected[sid] = Fraction(0)
            continue
        self_weight = Fraction(0)
        total = Fraction(1)
        feasible = True
        for dst, weight in chain.exact_out_edges(sid):
            if dst == sid:
                self_weight = weight
                continue
            sub = expected[dst]
            if sub is None:
                feasible = False
                break
            total += weight * sub
        if not feasible or self_weight == 1:
            expected[sid] = None
        else:
            expected[sid] = total / (1 - self_weight)
    return expected


# ----------------------------------------------------------------------
# Float (numpy) kernels
# ----------------------------------------------------------------------
def distribution_float(chain: "CompiledChain", t: int) -> np.ndarray:
    """Dense ``float64`` state distribution after ``t`` rounds."""
    src, dst, weight = chain.coo()
    dist = np.zeros(chain.num_states)
    dist[chain.start] = 1.0
    for _ in range(t):
        nxt = np.zeros(chain.num_states)
        np.add.at(nxt, dst, dist[src] * weight)
        dist = nxt
    return dist


def series_float(
    chain: "CompiledChain", mask: Sequence[bool], t_max: int
) -> list[float]:
    """Float solving-probability series via dense scatter-add rounds."""
    src, dst, weight = chain.coo()
    mask_array = np.asarray(mask, dtype=bool)
    dist = np.zeros(chain.num_states)
    dist[chain.start] = 1.0
    series: list[float] = []
    for _ in range(t_max):
        nxt = np.zeros(chain.num_states)
        np.add.at(nxt, dst, dist[src] * weight)
        dist = nxt
        series.append(float(dist[mask_array].sum()))
    return series


def _self_loop_weights(chain: "CompiledChain") -> np.ndarray:
    """Per-state self-loop weight as float64 (exact: powers of two)."""
    src, dst, weight = chain.coo()
    self_w = np.zeros(chain.num_states)
    loops = src == dst
    self_w[src[loops]] = weight[loops]
    return self_w


def _reverse_level_sweep(
    chain: "CompiledChain",
    masks: np.ndarray,
    *,
    accumulator_init: float,
    masked_value: float,
    absorbing_value: float,
) -> np.ndarray:
    """The shared first-step-equation solver over block-count levels.

    States are topologically sorted by block count and refinement edges
    never stay inside a level except as self-loops, so one reverse pass
    over the ``O(n)`` levels solves ``x[s] = (init + sum_{s' != s}
    P(s->s') x[s']) / (1 - P(s->s))`` for every mask row at once --
    ``masks`` is ``(Q, S)`` boolean, the result ``(Q, S)`` float64.
    Masked states take ``masked_value``; pure non-masked self-loops
    (``P(s->s) = 1``) take ``absorbing_value``.  Absorption uses
    ``(init=0, masked=1, absorbing=0)``; expected hitting time uses
    ``(init=1, masked=0, absorbing=inf)``, where ``inf`` propagates
    through the recurrence exactly like the scalar kernel's ``None``
    (every stored edge weight is positive, so ``0 * inf`` never arises).
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    src, dst, weight = chain.coo()
    indptr = chain.csr()[0]
    self_w = _self_loop_weights(chain)
    values = np.zeros((masks.shape[0], chain.num_states))
    for start, stop in reversed(chain.levels()):
        lo, hi = int(indptr[start]), int(indptr[stop])
        s, d, w = src[lo:hi], dst[lo:hi], weight[lo:hi]
        cross = s != d
        total = np.full(
            (masks.shape[0], stop - start), accumulator_init
        )
        if cross.any():
            np.add.at(
                total,
                (slice(None), s[cross] - start),
                w[cross] * values[:, d[cross]],
            )
        hold = 1.0 - self_w[start:stop]
        vals = np.divide(
            total,
            hold[None, :],
            out=np.full_like(total, absorbing_value),
            where=hold > 0.0,
        )
        values[:, start:stop] = np.where(
            masks[:, start:stop], masked_value, vals
        )
    return values


def absorption_float_matrix(
    chain: "CompiledChain", masks: np.ndarray
) -> np.ndarray:
    """Per-state hitting probabilities for a *batch* of masks at once.

    One :func:`_reverse_level_sweep`: all ``Q`` mask rows share each
    pass over the transition arrays.
    """
    return _reverse_level_sweep(
        chain,
        masks,
        accumulator_init=0.0,
        masked_value=1.0,
        absorbing_value=0.0,
    )


def absorption_float(
    chain: "CompiledChain", mask: Sequence[bool]
) -> np.ndarray:
    """Float analogue of :func:`absorption_exact` (same traversal,
    vectorized level passes instead of a per-state python loop)."""
    return absorption_float_matrix(chain, np.asarray([mask], dtype=bool))[0]


def expected_float_matrix(
    chain: "CompiledChain", masks: np.ndarray
) -> np.ndarray:
    """Per-state expected hitting times for a batch of masks at once.

    Infinite expectations (the masked set is not reached almost surely)
    come back as ``np.inf``; see :func:`_reverse_level_sweep`.
    """
    return _reverse_level_sweep(
        chain,
        masks,
        accumulator_init=1.0,
        masked_value=0.0,
        absorbing_value=np.inf,
    )


def expected_float(
    chain: "CompiledChain", mask: Sequence[bool]
) -> list[float | None]:
    """Float analogue of :func:`expected_exact` (vectorized sweep)."""
    row = expected_float_matrix(chain, np.asarray([mask], dtype=bool))[0]
    return [None if np.isinf(value) else float(value) for value in row]


__all__ = [
    "BACKENDS",
    "absorption_exact",
    "absorption_float",
    "absorption_float_matrix",
    "distribution_exact",
    "distribution_float",
    "expected_exact",
    "expected_float",
    "expected_float_matrix",
    "mass_exact",
    "series_exact",
    "series_float",
    "step_exact",
    "validate_backend",
]
