"""Content-addressed cross-run memo for chain query answers.

Every exact sweep cell the chain stack answers is a pure function of
``(chain structure, task, horizon, quantity, backend)`` -- nothing about
the run, the engine, or the worker count can change it.  This module
memoizes those answers *across* runs: the key is a SHA-256 over

* the **chain structural digest**
  (:func:`repro.chain.engine.key_digest`), so two sweeps that build
  equal configurations share entries even though they never share
  Python objects;
* the **task content token** -- the ``(n, count-multisets)`` value
  identity of a :class:`~repro.core.tasks.CountTask` (tasks without a
  value identity are simply never memoized);
* the query's ``quantity`` / ``horizon`` and the arithmetic ``backend``
  (``solvable`` is always keyed exact -- it is decided exact under
  every backend).

Values are stored tagged so they round-trip **byte-identically**:
exact ``Fraction`` answers serialize as ``p/q`` strings, floats as
``float.hex()``; a memo hit returns exactly the object a fresh
evolution pass would have produced, so run directories written from
hits match cold ones byte for byte.

Persistence is an :class:`~repro.results.log.AppendLog` (``memo.log`` +
compacted ``memo.json``), safe under any number of concurrent sweep
workers.  :func:`query_memo` returns the memo of the current
:class:`~repro.context.ExecutionContext`'s ``results_memo`` directory
-- the runner names the warehouse's memo in every worker payload's
context -- and it is consulted by
the query front door (:func:`repro.chain.run_group_queries`, and
:func:`repro.chain.run_queries` as its one-item spelling) before any
evolution pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from fractions import Fraction

from ..context import current_context
from ..obs import OBS
from .log import AppendLog

#: Sentinel distinguishing "no entry" from a stored ``None`` value.
MISS = object()

#: Compact the memo log once it grows past this many bytes (checked on
#: load; appends themselves never pay for compaction).
COMPACT_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Tokens
# ----------------------------------------------------------------------
def task_token(task) -> "str | None":
    """A value-identity token for ``task``, or ``None`` if it has none.

    Mirrors the chain engine's content keying: a
    :class:`~repro.core.tasks.CountTask` is fully determined by its
    ``(n, count multisets)``; any other task class is unmemoizable.
    """
    multisets = getattr(task, "count_multisets", None)
    if not callable(multisets):
        return None
    return f"count:{task.n}:{multisets()!r}"


def query_token(
    chain_digest: str,
    quantity: str,
    task,
    horizon: "int | None",
    backend: str,
) -> "str | None":
    """The memo key of one query, or ``None`` when unmemoizable."""
    token = task_token(task)
    if token is None:
        return None
    if quantity == "solvable":
        backend = "exact"  # decided exact under every backend
    return hashlib.sha256(
        f"{chain_digest}|{token}|{quantity}|{horizon}|{backend}".encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Value serialization (typed, byte-identical round trips)
# ----------------------------------------------------------------------
def encode_value(value) -> dict:
    """Tagged JSON-safe form of a query answer."""
    if value is None:
        return {"t": "none"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, Fraction):
        return {"t": "frac", "v": str(value)}
    if isinstance(value, float):
        # hex round-trips every finite float64 bit-exactly.
        return {"t": "float", "v": value.hex()}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, (list, tuple)):
        return {"t": "list", "v": [encode_value(item) for item in value]}
    raise TypeError(f"unmemoizable value type {type(value).__name__}")


def decode_value(payload: dict):
    """Inverse of :func:`encode_value`."""
    tag = payload["t"]
    if tag == "none":
        return None
    if tag == "bool":
        return bool(payload["v"])
    if tag == "frac":
        return Fraction(payload["v"])
    if tag == "float":
        return float.fromhex(payload["v"])
    if tag == "int":
        return int(payload["v"])
    if tag == "list":
        return [decode_value(item) for item in payload["v"]]
    raise ValueError(f"unknown value tag {tag!r}")


# ----------------------------------------------------------------------
# The memo store
# ----------------------------------------------------------------------
def _fold_entries(state, events):
    """AppendLog fold: last-writer-wins map of token -> encoded value.

    Entries are answers to pure functions, so every writer records the
    same value for a token and fold order is immaterial.
    """
    entries = dict(state) if isinstance(state, dict) else {}
    for event in events:
        token = event.get("k")
        if isinstance(token, str) and "v" in event:
            entries[token] = event["v"]
    return entries


class QueryMemo:
    """A directory-backed memo of query answers (see module docstring)."""

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = pathlib.Path(root)
        self._log = AppendLog(self.root, "memo")
        self._entries: dict[str, dict] = {}
        self._loaded_tail = -1
        self._hits = 0
        self._misses = 0
        self._load()

    def _load(self) -> None:
        if self._log.tail_bytes() > COMPACT_BYTES:
            self._entries = self._log.compact(_fold_entries) or {}
        else:
            self._entries = self._log.load(_fold_entries) or {}
        self._loaded_tail = self._log.tail_bytes()

    def refresh(self) -> None:
        """Pick up entries other processes appended since the last load.

        Cheap when nothing changed (one ``stat``); a grown or rotated
        log triggers a full reload.
        """
        if self._log.tail_bytes() != self._loaded_tail:
            self._load()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, token: "str | None"):
        """The decoded answer for ``token``, or :data:`MISS`."""
        if token is None:
            return MISS
        raw = self._entries.get(token)
        if raw is None:
            self._misses += 1
            if OBS.enabled:
                OBS.metrics.inc("results.memo.miss")
            return MISS
        self._hits += 1
        if OBS.enabled:
            OBS.metrics.inc("results.memo.hit")
        try:
            return decode_value(raw)
        except (KeyError, ValueError, TypeError):
            return MISS

    def record(self, entries) -> None:
        """Durably append answers, given as ``(token, value)`` pairs, in
        one log append (and serve them locally at once)."""
        events = []
        for token, value in entries:
            if token is None or token in self._entries:
                continue
            try:
                encoded = encode_value(value)
            except TypeError:
                continue
            self._entries[token] = encoded
            if OBS.enabled:
                OBS.metrics.inc("results.memo.records")
                OBS.metrics.inc("results.memo.bytes", len(json.dumps(encoded)))
            events.append({"k": token, "v": encoded})
        if events and self._log.append(events):
            # Keep the refresh fast path honest: our own append must
            # not read as "someone else grew the log" next job.
            self._loaded_tail = self._log.tail_bytes()

    def compact(self) -> int:
        """Fold the log into the snapshot; returns the entry count."""
        self._entries = self._log.compact(_fold_entries) or {}
        self._loaded_tail = self._log.tail_bytes()
        return len(self._entries)

    def stats(self) -> dict:
        """Entry count, in-process hit/miss counters, and log tail size."""
        return {
            "entries": len(self._entries),
            "hits": self._hits,
            "misses": self._misses,
            "log_bytes": self._log.tail_bytes(),
        }


# ----------------------------------------------------------------------
# The memo the current context names
# ----------------------------------------------------------------------
#: The memo built in this process for the last directory a context
#: named, and the context it was last refreshed under.
_MEMO: "QueryMemo | None" = None
_MEMO_CONTEXT = None


def query_memo() -> "QueryMemo | None":
    """The memo of the current context's ``results_memo`` directory.

    ``None`` when the context names none.  The instance is kept per
    process and refreshed from the shared log once per entered context
    (one ``stat`` when nothing changed), so a pool worker picks up what
    other workers appended before each payload without reloading.
    """
    global _MEMO, _MEMO_CONTEXT
    context = current_context()
    root = context.results_memo
    if root is None:
        return None
    if _MEMO is None or _MEMO.root != pathlib.Path(root):
        _MEMO = QueryMemo(root)
    elif _MEMO_CONTEXT is not context:
        _MEMO.refresh()
    _MEMO_CONTEXT = context
    return _MEMO


__all__ = [
    "MISS",
    "QueryMemo",
    "decode_value",
    "encode_value",
    "query_memo",
    "query_token",
    "task_token",
]
