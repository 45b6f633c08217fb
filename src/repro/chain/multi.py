"""The query front door: many chains' query batches, memo first.

:func:`run_group_queries` answers a list of ``(chain, queries)`` items;
:func:`~repro.chain.batch.run_queries` is the same call with one item.
Per item it scans the current context's query memo, answers only the
misses through one per-chain :class:`~repro.chain.batch.QueryPlan`
(exact or float, see :meth:`QueryPlan.execute
<repro.chain.batch.QueryPlan.execute>`), and records what it computed
(:func:`answer_misses`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..obs import OBS, trace
from .backends import validate_backend
from .batch import QueryPlan, memoized_answers, record_answers


def run_group_queries(
    items: Iterable[tuple], *, backend: str = "exact"
) -> list[list]:
    """Answer many chains' query batches; one result list per item.

    ``items`` is a sequence of ``(chain, queries)`` pairs.  The current
    context's cross-run query memo (:func:`repro.results.memo.query_memo`)
    is consulted first: fully-memoized items never reach a plan, and
    partially-memoized items plan only their missing queries -- so
    overlapping or repeated sweeps re-answer only genuinely new cells,
    with exact hits byte-identical to recomputation.
    """
    validate_backend(backend)
    results: list = []
    #: (answers, miss positions) and the matching answer_misses items.
    slots: list[tuple] = []
    missed: list[tuple] = []
    for chain, queries in items:
        queries = list(queries)
        answers, tokens, misses = memoized_answers(
            chain.key, queries, backend
        )
        if misses:
            slots.append((answers, misses))
            missed.append((chain, [queries[i] for i in misses],
                           [tokens[i] for i in misses]))
        elif OBS.enabled:
            OBS.metrics.inc("chain.multi.items_memoized")
        results.append(answers)
    if OBS.enabled:
        OBS.metrics.inc("chain.multi.items", len(results) - len(missed))
    for (answers, misses), values in zip(
        slots, answer_misses(missed, backend)
    ):
        for i, value in zip(misses, values):
            answers[i] = value
    return results


def answer_misses(items: Sequence[tuple], backend: str = "exact") -> list[list]:
    """Compute and record queries already known to miss the memo.

    ``items`` holds ``(chain, queries, tokens)`` triples, ``tokens``
    being the queries' memo tokens (``None`` where unmemoizable).  One
    :class:`~repro.chain.batch.QueryPlan` per chain answers them, and
    the answers are recorded under their tokens in one memo append.
    :func:`run_group_queries` ends here after its memo scan; a caller
    that has already looked its cells up by chain key (the sweep worker
    does, to skip compiling warm chains) calls it directly, so no cell
    is looked up twice.
    """
    if OBS.enabled:
        OBS.metrics.inc("chain.multi.items", len(items))
    if not items:
        return []

    def execute() -> list[list]:
        return [
            QueryPlan(chain, queries).execute(backend)
            for chain, queries, _ in items
        ]

    if OBS.enabled:
        with trace("chain.multi.execute", items=len(items)):
            computed = execute()
    else:
        computed = execute()
    tokens = [token for _, _, item_tokens in items for token in item_tokens]
    values = [value for item_values in computed for value in item_values]
    record_answers(tokens, range(len(values)), values)
    return computed


__all__ = ["answer_misses", "run_group_queries"]
