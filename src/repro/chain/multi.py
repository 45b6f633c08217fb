"""Block-diagonal multi-chain execution: the query front door's executor.

:func:`run_group_queries` answers a list of ``(chain, queries)`` items;
:func:`~repro.chain.batch.run_queries` is the same call with one item.
Each item gets a per-chain :class:`~repro.chain.batch.QueryPlan` (mask
grouping and kernel registries); what this module adds is how the plans
run:

* **exact** -- plan by plan through :meth:`QueryPlan.execute
  <repro.chain.batch.QueryPlan.execute>`, the exact kernels the scalar
  :class:`~repro.chain.engine.CompiledChain` methods use, so exact
  answers are byte-identical to the scalar ones.
* **float** -- :class:`ChainGroup` places ``N`` compiled chains
  block-diagonally -- concatenated state ids (chain ``c``'s states live
  at ``offsets[c] .. offsets[c] + S_c``), concatenated COO transition
  arrays, every chain's start state carrying unit mass -- so one
  evolution step advances every chain at once (blocks never mix: all
  edges stay inside their chain).  Reverse level sweeps run over a
  **merged, end-aligned level schedule**: group step ``j`` processes
  each chain's ``j``-th level *from the end*, which preserves every
  chain's reverse-topological order (cross edges only ever point at
  levels already processed) while letting chains with different level
  structures share each pass.  Task masks are stacked per chain and
  padded to the widest chain's row count, so the common sweep shape
  (same queries against every chain) needs exactly as many sweep rows
  as one chain does.  A group of one chain is the per-chain float
  executor.

The grouping key is deliberately coarse: the merged level schedule makes
*any* chains structurally compatible, so chains are stacked greedily in
item order under a total-state budget (:data:`MAX_GROUP_STATES`) that
bounds each stacked pass's working set; a chain bigger than the budget
gets a singleton group of its own.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..obs import OBS, trace
from .backends import (
    absorption_exact,
    evolution_strategy,
    transition_density,
    validate_backend,
)
from .batch import (
    QueryPlan,
    _assert_zero_one,
    memoized_answers,
    record_answers,
)

#: Stacked-state budget per :class:`ChainGroup`: groups are split so one
#: stacked pass never sweeps more than this many states (the mask and
#: value matrices are ``rows x states`` float64).
MAX_GROUP_STATES = 1 << 15

#: How many built groups to keep around: a sweep re-queried across
#: backends, tasks, or resume passes stacks the same chain families
#: every time, and rebuilding the merged schedule is the dominant cost
#: of a warm group pass.  Keyed by member identity (compiled chains are
#: process-immortal via the memo); the strong references the cache holds
#: keep the ids valid for exactly as long as the entries live.
GROUP_CACHE_SIZE = 16

_GROUP_CACHE: "dict[tuple[int, ...], ChainGroup]" = {}


def plan_chunks(chains: Sequence) -> "list[list]":
    """Greedy partition of an ordered chain list under the state budget.

    :class:`MultiQueryPlan` splits its items into stacked passes by this
    rule.  Repeated chains (the memo makes equal configurations the same
    object) count against the budget once per chunk, mirroring the
    stacking dedup.
    """
    chunks: list[list] = []
    current: list = []
    seen: set[int] = set()
    states = 0
    for chain in chains:
        size = 0 if id(chain) in seen else chain.num_states
        if current and states + size > MAX_GROUP_STATES:
            chunks.append(current)
            current, seen, states = [], set(), chain.num_states
        else:
            states += size
        current.append(chain)
        seen.add(id(chain))
    if current:
        chunks.append(current)
    return chunks


def _cached_group(chains: Sequence) -> "ChainGroup":
    key = tuple(id(chain) for chain in chains)
    group = _GROUP_CACHE.pop(key, None)
    if group is None:
        group = ChainGroup(chains)
    _GROUP_CACHE[key] = group  # (re)insert as most recently used
    while len(_GROUP_CACHE) > GROUP_CACHE_SIZE:
        _GROUP_CACHE.pop(next(iter(_GROUP_CACHE)))
    return group


class ChainGroup:
    """``N`` compiled chains stacked into block-diagonal flat arrays.

    Construction is one linear pass over the member chains' CSR arrays;
    the group owns nothing but index arrays (the chains keep their own
    caches), so groups are cheap enough to build per sweep call.
    """

    def __init__(self, chains: Sequence):
        self.chains = tuple(chains)
        if not self.chains:
            raise ValueError("a ChainGroup needs at least one chain")
        offsets = [0]
        for chain in self.chains:
            offsets.append(offsets[-1] + chain.num_states)
        #: Global id of chain ``c``'s state 0 (also the reduceat segment
        #: boundaries of the per-chain mass sums).
        self.offsets = np.asarray(offsets[:-1], dtype=np.int64)
        self.num_states = offsets[-1]
        #: Global ids of every chain's start state (each carries unit
        #: mass in the stacked evolution).
        self.starts = np.asarray(
            [off + chain.start for off, chain in zip(offsets, self.chains)],
            dtype=np.int64,
        )
        src_parts, dst_parts, w_parts, self_parts = [], [], [], []
        for off, chain in zip(offsets, self.chains):
            src, dst, weight = chain.coo()
            src_parts.append(src + off)
            dst_parts.append(dst + off)
            w_parts.append(weight)
            self_w = np.zeros(chain.num_states)
            loops = src == dst
            self_w[src[loops]] = weight[loops]
            self_parts.append(self_w)
        self._src = np.concatenate(src_parts)
        self._dst = np.concatenate(dst_parts)
        self._weight = np.concatenate(w_parts)
        self._self_w = np.concatenate(self_parts)
        self.num_transitions = int(len(self._src))
        #: Fraction of the stacked dense matrix occupied (block-diagonal
        #: stacking divides per-chain density by roughly the group size).
        self.density = transition_density(
            self.num_states, self.num_transitions
        )
        #: The adaptive dense-vs-scatter verdict for the stacked
        #: evolution (density-measured; see ``repro.chain.backends``).
        self.evolution = evolution_strategy(
            self.num_states, self.num_transitions
        )
        self._dense: "np.ndarray | None" = None
        self._steps = self._merged_level_steps(offsets)

    def __len__(self) -> int:
        return len(self.chains)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChainGroup(chains={len(self.chains)}, "
            f"states={self.num_states}, nnz={self.num_transitions}, "
            f"density={self.density:.4f}, evolution={self.evolution})"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _merged_level_steps(self, offsets: list[int]):
        """The end-aligned reverse sweep schedule.

        Step ``j`` (processed first for ``j = 0``) covers each chain's
        ``j``-th level *counted from its deepest*: within a chain the
        deepest level is processed first exactly as the per-chain sweep
        does, and cross edges (strictly increasing block count) always
        land in a level the schedule has already processed.  Each step
        precomputes the global state ids it touches, its cross edges
        (edge source position within the step, global destination,
        weight), and is consumed by :meth:`reverse_sweep`.
        """
        depth = max(len(chain.levels()) for chain in self.chains)
        steps = []
        for j in range(depth):
            state_parts, pos_parts, dst_parts, w_parts = [], [], [], []
            base = 0
            for off, chain in zip(offsets, self.chains):
                levels = chain.levels()
                li = len(levels) - 1 - j
                if li < 0:
                    continue
                start, stop = levels[li]
                state_parts.append(np.arange(off + start, off + stop))
                indptr = chain.csr()[0]
                src, dst, weight = chain.coo()
                lo, hi = int(indptr[start]), int(indptr[stop])
                s, d, w = src[lo:hi], dst[lo:hi], weight[lo:hi]
                cross = s != d
                pos_parts.append(s[cross] - start + base)
                dst_parts.append(d[cross] + off)
                w_parts.append(w[cross])
                base += stop - start
            steps.append(
                (
                    np.concatenate(state_parts),
                    np.concatenate(pos_parts),
                    np.concatenate(dst_parts),
                    np.concatenate(w_parts),
                )
            )
        return steps

    def _mask_matrix(
        self, per_chain_masks: Sequence[Sequence], dtype
    ) -> np.ndarray:
        """Stack per-chain mask rows into a padded ``(Q, S_total)`` array.

        ``per_chain_masks[c]`` is chain ``c``'s ordered mask rows; rows a
        chain does not fill stay zero/False (their swept values are
        computed but never read).
        """
        rows = max((len(masks) for masks in per_chain_masks), default=0)
        matrix = np.zeros((rows, self.num_states), dtype=dtype)
        for off, masks in zip(self.offsets, per_chain_masks):
            for q, mask in enumerate(masks):
                matrix[q, off:off + len(mask)] = np.asarray(mask, dtype=dtype)
        return matrix

    def _dense_matrix(self) -> np.ndarray:
        if self._dense is None:
            dense = np.zeros((self.num_states, self.num_states))
            dense[self._src, self._dst] = self._weight
            self._dense = dense
        return self._dense

    # ------------------------------------------------------------------
    # Stacked kernels
    # ------------------------------------------------------------------
    def masses_over_time(
        self,
        per_chain_masks: Sequence[Sequence],
        times: Iterable[int],
    ) -> dict[int, np.ndarray]:
        """Per-chain masked masses at each requested time, in one evolution.

        One stacked evolution to ``max(times)`` advances every chain at
        once; the result maps each requested ``t`` to a ``(Q, N)``
        array whose ``[q, c]`` entry is chain ``c``'s mass under its
        ``q``-th mask row.
        """
        wanted = sorted(set(int(t) for t in times))
        if wanted and wanted[0] < 0:
            raise ValueError("need t >= 0")
        mask_matrix = self._mask_matrix(per_chain_masks, np.float64)
        dist = np.zeros(self.num_states)
        dist[self.starts] = 1.0
        out: dict[int, np.ndarray] = {}

        def masses() -> np.ndarray:
            return np.add.reduceat(
                mask_matrix * dist[None, :], self.offsets, axis=1
            )

        if wanted and wanted[0] == 0:
            out[0] = masses()
        remaining = set(wanted)
        dense = self._dense_matrix() if self.evolution == "dense" else None
        for t in range(1, (wanted[-1] if wanted else 0) + 1):
            if dense is not None:
                dist = dist @ dense
            else:
                dist = np.bincount(
                    self._dst,
                    weights=dist[self._src] * self._weight,
                    minlength=self.num_states,
                )
            if t in remaining:
                out[t] = masses()
        return out

    def reverse_sweep(
        self,
        per_chain_masks: Sequence[Sequence],
        *,
        accumulator_init: float,
        masked_value: float,
        absorbing_value: float,
    ) -> np.ndarray:
        """The stacked first-step-equation solver (every chain at once).

        Semantics per mask row are exactly those of
        :func:`~repro.chain.backends._reverse_level_sweep` -- absorption
        uses ``(init=0, masked=1, absorbing=0)``, expected hitting time
        ``(init=1, masked=0, absorbing=inf)`` -- swept over the merged
        end-aligned schedule.  Returns ``(Q, S_total)`` float64; chain
        ``c``'s row ``q`` answer from its start state is
        ``values[q, group.starts[c]]``.
        """
        mask_matrix = self._mask_matrix(per_chain_masks, bool)
        values = np.zeros((mask_matrix.shape[0], self.num_states))
        for state_idx, edge_pos, edge_dst, edge_w in self._steps:
            total = np.full(
                (mask_matrix.shape[0], len(state_idx)), accumulator_init
            )
            if len(edge_pos):
                np.add.at(
                    total,
                    (slice(None), edge_pos),
                    edge_w * values[:, edge_dst],
                )
            hold = 1.0 - self._self_w[state_idx]
            vals = np.divide(
                total,
                hold[None, :],
                out=np.full_like(total, absorbing_value),
                where=hold > 0.0,
            )
            values[:, state_idx] = np.where(
                mask_matrix[:, state_idx], masked_value, vals
            )
        return values


class MultiQueryPlan:
    """A batch of per-chain query batches, answered in group passes.

    ``items`` is a sequence of ``(chain, queries)`` pairs;
    :meth:`execute` returns one result list per item.  Exact answers
    are byte-identical to the scalar methods whatever the grouping;
    float answers depend on the grouping only through summation order
    (within float rounding).
    """

    def __init__(self, items: Iterable[tuple]):
        self.items = [
            (chain, tuple(queries)) for chain, queries in items
        ]
        #: One per-chain plan per item: the single planning/dedup layer
        #: both backends share (the exact path executes these directly).
        self.plans = [
            QueryPlan(chain, queries) for chain, queries in self.items
        ]

    def __len__(self) -> int:
        return len(self.plans)

    def execute(self, *, backend: str = "exact") -> list[list]:
        """Answer every item's queries; one result list per item."""
        if validate_backend(backend) == "exact":
            # Per chain, through the per-item plans: the scalar path's
            # exact kernels, hence byte-identical results.
            return [plan.execute() for plan in self.plans]
        return self._execute_float()

    # ------------------------------------------------------------------
    # Float: stacked group passes
    # ------------------------------------------------------------------
    def _chunks(self) -> list[list[int]]:
        """Greedy item partition under the stacked-state budget.

        Items sharing one chain (the memo makes equal configurations
        the same object) are stacked once per chunk, so only *distinct*
        chains' states count against the budget -- mirroring the dedup
        :meth:`_execute_float_chunk` applies.  Delegates to
        :func:`plan_chunks` (chunks are contiguous item runs).
        """
        chunks: list[list[int]] = []
        start = 0
        for chunk in plan_chunks([plan.chain for plan in self.plans]):
            chunks.append(list(range(start, start + len(chunk))))
            start += len(chunk)
        return chunks

    def _execute_float(self) -> list[list]:
        results: list = [None] * len(self.plans)
        for chunk in self._chunks():
            self._execute_float_chunk(chunk, results)
        return results

    def _execute_float_chunk(
        self, chunk: list[int], results: list
    ) -> None:
        # Distinct chains only: several items may query one chain (the
        # memo makes equal configurations the same object).
        position: dict[int, int] = {}
        chains = []
        for index in chunk:
            chain = self.plans[index].chain
            if id(chain) not in position:
                position[id(chain)] = len(chains)
                chains.append(chain)
        group = _cached_group(chains)
        if OBS.enabled:
            OBS.metrics.inc("chain.multi.groups")
            OBS.metrics.inc(f"chain.multi.evolution.{group.evolution}")
            OBS.metrics.observe("chain.multi.group_states",
                                group.num_states)
            OBS.metrics.observe("chain.multi.group_chains", len(chains))
        # Per-chain row registries: mask -> row, one numbering per chain
        # (rows are per-chain because the group result is (Q, N)).
        mass_rows: list[dict] = [{} for _ in chains]
        limit_rows: list[dict] = [{} for _ in chains]
        expected_rows: list[dict] = [{} for _ in chains]
        mass_times: set[int] = set()
        for index in chunk:
            plan = self.plans[index]
            c = position[id(plan.chain)]
            mass_times |= plan._mass_times
            for slot in sorted(plan._mass_slots):
                mass_rows[c].setdefault(plan._masks[slot], len(mass_rows[c]))
            for slot in sorted(plan._limit_slots):
                limit_rows[c].setdefault(
                    plan._masks[slot], len(limit_rows[c])
                )
            for slot in sorted(plan._expected_slots):
                expected_rows[c].setdefault(
                    plan._masks[slot], len(expected_rows[c])
                )

        def ordered(rows: list[dict]) -> list[list]:
            return [list(chain_rows.keys()) for chain_rows in rows]

        masses: dict[int, np.ndarray] = {}
        if mass_times and any(mass_rows):
            masses = group.masses_over_time(ordered(mass_rows), mass_times)
        absorption: "np.ndarray | None" = None
        if any(limit_rows):
            absorption = group.reverse_sweep(
                ordered(limit_rows),
                accumulator_init=0.0,
                masked_value=1.0,
                absorbing_value=0.0,
            )
        expected: "np.ndarray | None" = None
        if any(expected_rows):
            expected = group.reverse_sweep(
                ordered(expected_rows),
                accumulator_init=1.0,
                masked_value=0.0,
                absorbing_value=np.inf,
            )
        # ``solvable`` stays exact whatever the backend (the zero-one
        # law is asserted on exact limits); dedup per (chain, mask).
        exact_absorption: dict[tuple[int, tuple], list] = {}
        for index in chunk:
            plan = self.plans[index]
            chain = plan.chain
            c = position[id(chain)]
            start = int(group.starts[c])
            out = []
            for query, slot in zip(plan.queries, plan._slots):
                mask = plan._masks[slot]
                if query.quantity == "probability":
                    out.append(
                        float(masses[query.horizon][mass_rows[c][mask], c])
                    )
                elif query.quantity == "series":
                    row = mass_rows[c][mask]
                    out.append(
                        [
                            float(masses[t][row, c])
                            for t in range(1, query.horizon + 1)
                        ]
                    )
                elif query.quantity == "limit":
                    out.append(
                        float(absorption[limit_rows[c][mask], start])
                    )
                elif query.quantity == "solvable":
                    key = (id(chain), mask)
                    if key not in exact_absorption:
                        exact_absorption[key] = absorption_exact(chain, mask)
                    out.append(
                        _assert_zero_one(
                            chain, exact_absorption[key][chain.start]
                        )
                    )
                else:  # expected
                    value = expected[expected_rows[c][mask], start]
                    out.append(None if np.isinf(value) else float(value))
            results[index] = out


def run_group_queries(
    items: Iterable[tuple], *, backend: str = "exact"
) -> list[list]:
    """Answer many chains' query batches at once; one list per item.

    ``items`` is a sequence of ``(chain, queries)`` pairs.  The float
    backend runs stacked block-diagonal passes over
    :class:`ChainGroup`; the exact backend executes the per-chain plans.
    :func:`~repro.chain.batch.run_queries` is this call with one item.

    The current context's cross-run query memo
    (:func:`repro.results.memo.query_memo`) is consulted first:
    fully-memoized items never enter the group pass at all, and
    partially-memoized items contribute only their missing queries --
    so overlapping or repeated sweeps re-answer only genuinely new
    cells, with exact hits byte-identical to recomputation.
    """
    items = [(chain, list(queries)) for chain, queries in items]
    if not items:
        return []
    validate_backend(backend)
    results: list = [None] * len(items)
    pending: list[tuple] = []
    #: (item index, miss positions, per-query tokens, hit-filled answers)
    scatter: list[tuple] = []
    for index, (chain, queries) in enumerate(items):
        answers, tokens, misses = memoized_answers(chain, queries, backend)
        if not misses:
            if OBS.enabled:
                OBS.metrics.inc("chain.multi.items_memoized")
            results[index] = answers
            continue
        pending.append((chain, [queries[i] for i in misses]))
        scatter.append((index, misses, tokens, answers))
    if OBS.enabled:
        OBS.metrics.inc("chain.multi.items", len(items))
    if pending:
        if OBS.enabled:
            with trace("chain.multi.execute", items=len(pending)):
                computed = MultiQueryPlan(pending).execute(backend=backend)
        else:
            computed = MultiQueryPlan(pending).execute(backend=backend)
        for (index, misses, tokens, answers), values in zip(
            scatter, computed
        ):
            for i, value in zip(misses, values):
                answers[i] = value
            record_answers(tokens, misses, answers)
            results[index] = answers
    return results


__all__ = [
    "ChainGroup",
    "MAX_GROUP_STATES",
    "MultiQueryPlan",
    "plan_chunks",
    "run_group_queries",
]
