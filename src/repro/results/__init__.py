"""Columnar results warehouse and cross-run query memo.

The compute tier (``repro.chain``, ``repro.runner``) makes a *single*
sweep fast; this package is the storage/serving tier that makes the
*next* sweep fast too:

* :mod:`repro.results.store` -- an append-only columnar store: typed
  numpy column pages packed into immutable segments with JSON manifests,
  ingested incrementally from run directories via byte-offset
  watermarks, with crash-safe, idempotent compaction;
* :mod:`repro.results.query` -- a vectorized filter/project/group-
  aggregate expression API over the store's column pages, so reports and
  phase diagrams read aggregates without re-parsing JSONL;
* :mod:`repro.results.memo` -- a content-addressed cross-run memo keyed
  on (chain structural digest, task, horizon, quantity, backend),
  consulted by :func:`repro.chain.run_queries` /
  :func:`repro.chain.run_group_queries` before any evolution pass, so
  repeated or overlapping sweeps skip already-answered cells entirely
  (exact hits are byte-identical to recomputation);
* :mod:`repro.results.log` -- the append-only event-log primitive both
  the memo and the chain-cache load statistics build on.

See ``STORE.md`` for the on-disk schema and the memo key derivation.
"""

from .log import AppendLog
from .memo import (
    QueryMemo,
    decode_value,
    encode_value,
    query_memo,
    query_token,
    task_token,
)
from .query import Table, col
from .store import (
    RECORD_COLUMNS,
    ResultsStore,
    SegmentInfo,
    flatten_record,
    source_id,
    unflatten_row,
)

__all__ = [
    "AppendLog",
    "QueryMemo",
    "RECORD_COLUMNS",
    "ResultsStore",
    "SegmentInfo",
    "Table",
    "col",
    "decode_value",
    "encode_value",
    "flatten_record",
    "query_memo",
    "query_token",
    "source_id",
    "task_token",
    "unflatten_row",
]
