"""The query front door: many chains' query batches, memo first.

:func:`run_group_queries` answers a list of ``(chain, queries)`` items;
:func:`~repro.chain.batch.run_queries` is the same call with one item.
Per item it scans the current context's query memo, answers only the
misses through one per-chain :class:`~repro.chain.batch.QueryPlan`
(exact or float, see :meth:`QueryPlan.execute
<repro.chain.batch.QueryPlan.execute>`), and records what it computed.
"""

from __future__ import annotations

from typing import Iterable

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
    #: (item index, chain, miss queries, miss positions, tokens)
    pending: list[tuple] = []
    for chain, queries in items:
        queries = list(queries)
        answers, tokens, misses = memoized_answers(chain, queries, backend)
        if misses:
            pending.append((len(results), chain,
                            [queries[i] for i in misses], misses, tokens))
        elif OBS.enabled:
            OBS.metrics.inc("chain.multi.items_memoized")
        results.append(answers)
    if OBS.enabled:
        OBS.metrics.inc("chain.multi.items", len(results))
    if not pending:
        return results

    def execute() -> list[list]:
        return [
            QueryPlan(chain, queries).execute(backend)
            for _, chain, queries, _, _ in pending
        ]

    if OBS.enabled:
        with trace("chain.multi.execute", items=len(pending)):
            computed = execute()
    else:
        computed = execute()
    for (index, _, _, misses, tokens), values in zip(pending, computed):
        answers = results[index]
        for i, value in zip(misses, values):
            answers[i] = value
        record_answers(tokens, misses, answers)
    return results


__all__ = ["run_group_queries"]
