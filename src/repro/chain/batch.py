"""Queries and the per-chain planner behind the one query front door.

Every answer the paper asks for -- ``Pr[S(t) | alpha]``, its series,
its limit, the expected solving time, and Definition 3.3's verdict --
is a :class:`Query` (``quantity``, ``task``, optional ``horizon``).
:func:`run_queries` answers a list of them against one chain; it is a
group of one item through :func:`~repro.chain.multi.run_group_queries`,
so both spellings share one memo scan, one execution step and one
recording step.

:class:`QueryPlan` is the per-chain planner the front door builds for
each item.  It groups queries per distinct solvability mask, records
which kernels they need, and :meth:`~QueryPlan.execute` runs them under
either backend.  Exact: the chain's cached task-independent
distributions are shared across all probability/series queries; each
distinct mask pays for at most one expected sweep; and limits are
decided on the chain's support (:func:`exact_limit`), paying for a
``Fraction`` absorption sweep only when the support leaves the limit
strictly between 0 and 1.  Float: one scatter-add evolution to the
deepest horizon covers every mass row, and one batched reverse level
sweep each covers the limit and expected-time masks.  Apart from the
support pass these are the very kernels the scalar
:class:`~repro.chain.engine.CompiledChain` methods use, so exact
answers equal the scalar ones by construction; the scalar methods stay
as the reference the tests compare against.

:func:`memoized_answers` / :func:`record_answers` are the query-memo
scan and write-back the front door wraps around every execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..obs import OBS
from .backends import (
    absorption_exact,
    absorption_float_matrix,
    expected_exact,
    expected_float_matrix,
    mass_exact,
    series_exact,
    validate_backend,
)
from .engine import key_digest

#: What a query may ask for.  ``solvable`` (Definition 3.3) is always
#: decided on exact arithmetic -- the zero-one law is asserted on exact
#: 0/1 limits -- whatever backend the rest of the batch runs under.
QUANTITIES = ("probability", "series", "limit", "expected", "solvable")


@dataclass(frozen=True)
class Query:
    """One ``(quantity, task, horizon)`` question against a chain."""

    quantity: str
    task: object
    horizon: "int | None" = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(
                f"unknown quantity {self.quantity!r}; "
                f"expected one of {QUANTITIES}"
            )
        if self.quantity in ("probability", "series"):
            if self.horizon is None or self.horizon < 0:
                raise ValueError(
                    f"{self.quantity} queries need a horizon >= 0"
                )
        elif self.horizon is not None:
            raise ValueError(
                f"{self.quantity} queries take no horizon"
            )

    # -- convenience constructors (the spellings call sites read best) --
    @classmethod
    def probability(cls, task, t: int) -> "Query":
        """``Pr[S(t) | alpha]`` at one horizon."""
        return cls("probability", task, t)

    @classmethod
    def series(cls, task, t_max: int) -> "Query":
        """``[Pr[S(1)], ..., Pr[S(t_max)]]``."""
        return cls("series", task, t_max)

    @classmethod
    def limit(cls, task) -> "Query":
        """``lim_t Pr[S(t) | alpha]`` (absorption from the start state)."""
        return cls("limit", task)

    @classmethod
    def expected_time(cls, task) -> "Query":
        """Expected rounds to first solve (``None`` when infinite)."""
        return cls("expected", task)

    @classmethod
    def solvable(cls, task) -> "Query":
        """Definition 3.3, decided exactly with the zero-one assertion."""
        return cls("solvable", task)


class QueryPlan:
    """One chain's queries, grouped for shared passes.

    Grouping happens per distinct *solvability mask* (two task objects
    with the same mask share every pass), and the plan records which
    kernels the batch needs: distribution masses at which times,
    absorption for which masks, expected times for which masks.
    """

    def __init__(self, chain, queries: Iterable[Query]):
        self.chain = chain
        self.queries = tuple(queries)
        if OBS.enabled:
            OBS.metrics.inc("chain.batch.plans")
            OBS.metrics.inc("chain.batch.queries", len(self.queries))
        self._masks: list[tuple[bool, ...]] = []
        slot_of: dict[tuple[bool, ...], int] = {}
        self._slots: list[int] = []
        for query in self.queries:
            mask = chain.solvable_mask(query.task)
            slot = slot_of.get(mask)
            if slot is None:
                slot = slot_of[mask] = len(self._masks)
                self._masks.append(mask)
            self._slots.append(slot)
        # Which (slot, t) masses the distribution pass must produce.
        self._mass_times: set[int] = set()
        self._mass_slots: set[int] = set()
        #: ``limit`` and ``solvable`` slots apart: under the float
        #: backend limits join the float absorption batch while
        #: ``solvable`` stays exact.
        self._limit_slots: set[int] = set()
        self._solvable_slots: set[int] = set()
        self._expected_slots: set[int] = set()
        for query, slot in zip(self.queries, self._slots):
            if query.quantity == "probability":
                self._mass_times.add(query.horizon)
                self._mass_slots.add(slot)
            elif query.quantity == "series":
                self._mass_times.update(range(1, query.horizon + 1))
                self._mass_slots.add(slot)
            elif query.quantity == "limit":
                self._limit_slots.add(slot)
            elif query.quantity == "solvable":
                self._solvable_slots.add(slot)
            else:  # expected
                self._expected_slots.add(slot)

    def __len__(self) -> int:
        return len(self.queries)

    def execute(self, backend: str = "exact") -> list:
        """Answer every query under ``backend``, in query order."""
        if validate_backend(backend) == "float":
            return self._execute_float()
        chain = self.chain
        limits = {
            slot: exact_limit(chain, self._masks[slot])
            for slot in self._limit_slots | self._solvable_slots
        }
        expected: dict[int, list] = {}
        for slot in self._expected_slots:
            expected[slot] = expected_exact(chain, self._masks[slot])
        results = []
        for query, slot in zip(self.queries, self._slots):
            mask = self._masks[slot]
            if query.quantity == "probability":
                results.append(
                    mass_exact(
                        chain.cached_distribution_exact(query.horizon), mask
                    )
                )
            elif query.quantity == "series":
                results.append(series_exact(chain, mask, query.horizon))
            elif query.quantity == "limit":
                results.append(limits[slot])
            elif query.quantity == "solvable":
                results.append(_assert_zero_one(chain, limits[slot]))
            else:  # expected
                results.append(expected[slot][chain.start])
        return results

    def _float_rows(self, slots: set[int]):
        """``slot -> row`` and the ``(rows, S)`` boolean mask matrix."""
        ordered = sorted(slots)
        masks = np.asarray([self._masks[s] for s in ordered], dtype=bool)
        return {slot: row for row, slot in enumerate(ordered)}, masks

    def _execute_float(self) -> list:
        chain = self.chain
        start = chain.start
        # One scatter-add evolution to the deepest mass time; every mass
        # row is read off each wanted time's distribution.
        masses: dict[int, np.ndarray] = {}
        if self._mass_slots:
            mass_row, mass_masks = self._float_rows(self._mass_slots)
            mass_masks = mass_masks.astype(np.float64)
            src, dst, weight = chain.coo()
            dist = np.zeros(chain.num_states)
            dist[start] = 1.0
            if 0 in self._mass_times:
                masses[0] = mass_masks @ dist
            for t in range(1, max(self._mass_times, default=0) + 1):
                dist = np.bincount(
                    dst, weights=dist[src] * weight,
                    minlength=chain.num_states,
                )
                if t in self._mass_times:
                    masses[t] = mass_masks @ dist
        if self._limit_slots:
            limit_row, masks = self._float_rows(self._limit_slots)
            absorption = absorption_float_matrix(chain, masks)[:, start]
        if self._expected_slots:
            expected_row, masks = self._float_rows(self._expected_slots)
            expected = expected_float_matrix(chain, masks)[:, start]
        # ``solvable`` stays exact whatever the backend: the zero-one
        # law is asserted on exact limits.
        verdicts = {
            slot: _assert_zero_one(
                chain, exact_limit(chain, self._masks[slot])
            )
            for slot in self._solvable_slots
        }
        results = []
        for query, slot in zip(self.queries, self._slots):
            if query.quantity == "probability":
                results.append(float(masses[query.horizon][mass_row[slot]]))
            elif query.quantity == "series":
                row = mass_row[slot]
                results.append(
                    [
                        float(masses[t][row])
                        for t in range(1, query.horizon + 1)
                    ]
                )
            elif query.quantity == "limit":
                results.append(float(absorption[limit_row[slot]]))
            elif query.quantity == "solvable":
                results.append(verdicts[slot])
            else:  # expected
                value = expected[expected_row[slot]]
                results.append(None if np.isinf(value) else float(value))
        return results


def exact_limit(chain, mask: Sequence[bool]) -> Fraction:
    """The exact limit of ``Pr[S(t)]``: absorption into ``mask`` from
    the start state, decided on the chain's support when it can be.

    One reverse pass over the ``(dst, count)`` table (states are
    topologically sorted, so every edge but a self-loop points to a
    later state) tracks two facts per state: it can reach the mask, and
    it can reach a non-mask absorbing state while avoiding the mask.
    Every trajectory ends in an absorbing state, so a start that cannot
    reach the mask has limit 0 and one that cannot avoid it has limit 1.
    Only when both facts hold -- never for a mask closed under
    refinement, by the zero-one law -- does the limit lie strictly
    between, and then the exact ``Fraction`` sweep
    (:func:`~repro.chain.backends.absorption_exact`) computes it.  The
    pass reads only the support, never the edge weights.
    """
    out = chain.out_table()
    reach = [False] * chain.num_states
    avoid = [False] * chain.num_states
    for sid in range(chain.num_states - 1, -1, -1):
        if mask[sid]:
            reach[sid] = True
            continue
        absorbing = True
        for dst, _ in out[sid]:
            if dst != sid:
                absorbing = False
                reach[sid] = reach[sid] or reach[dst]
                avoid[sid] = avoid[sid] or avoid[dst]
        avoid[sid] = avoid[sid] or absorbing
    if not reach[chain.start]:
        return Fraction(0)
    if not avoid[chain.start]:
        return Fraction(1)
    return absorption_exact(chain, mask)[chain.start]


def _assert_zero_one(chain, limit: Fraction) -> bool:
    """Definition 3.3 verdict with the machine-checked zero-one law."""
    if limit not in (Fraction(0), Fraction(1)):
        raise AssertionError(
            f"zero-one law violated: limit {limit} for chain {chain.key!r}"
        )
    return limit == 1


def memoized_answers(key, queries: Sequence[Query], backend: str):
    """Split ``queries`` into memo hits and misses for the chain ``key``.

    ``key`` is the chain's effective key (``chain.key``, or
    :func:`~repro.chain.quotient.effective_chain_key` before anything
    is compiled), so a caller can look a chain's cells up without
    compiling it.  Returns ``(results, tokens, miss_indices)``:
    ``results`` has the decoded answer at every hit position and
    ``None`` at every miss, ``tokens`` the per-query memo keys (``None``
    where unmemoizable), and ``miss_indices`` the positions still to
    compute.  With no memo configured every query is a miss with a
    ``None`` token, so callers need no separate code path.  Exact hits
    decode to the very ``Fraction`` objects a fresh pass would produce
    -- byte-identical downstream records -- which is what lets warm
    sweeps skip evolution passes (and chain compilation) entirely.
    """
    from ..results.memo import MISS, query_memo, query_token

    memo = query_memo()
    if memo is None:
        return [None] * len(queries), [None] * len(queries), list(
            range(len(queries))
        )
    digest = key_digest(key)
    results: list = [None] * len(queries)
    tokens: list = []
    misses: list[int] = []
    for i, query in enumerate(queries):
        token = query_token(
            digest, query.quantity, query.task, query.horizon, backend
        )
        tokens.append(token)
        hit = memo.lookup(token)
        if hit is MISS:
            misses.append(i)
        else:
            results[i] = hit
    return results, tokens, misses


def record_answers(tokens: Sequence, indices: Sequence[int],
                   results: Sequence) -> None:
    """Record freshly computed answers under their memo tokens (no-op
    without a configured memo or for ``None`` tokens)."""
    from ..results.memo import query_memo

    memo = query_memo()
    if memo is None:
        return
    memo.record((tokens[i], results[i]) for i in indices)


def run_queries(
    chain, queries: Sequence[Query], *, backend: str = "exact"
) -> list:
    """Answer ``queries`` against ``chain``, in order.

    The one-chain spelling of
    :func:`~repro.chain.multi.run_group_queries`: a group of one item,
    with the same memo scan, execution and recording under every
    backend.
    """
    from .multi import run_group_queries

    return run_group_queries([(chain, queries)], backend=backend)[0]


__all__ = [
    "QUANTITIES",
    "Query",
    "QueryPlan",
    "exact_limit",
    "memoized_answers",
    "record_answers",
    "run_queries",
]
