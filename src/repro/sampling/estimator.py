"""Mergeable, memoized Monte-Carlo estimates over substream blocks.

An MC cell is identified by ``(structural chain digest, task token,
horizon, method, stream seed)``; its trials are the fixed
:data:`~repro.sampling.kernel.BLOCK_SAMPLES`-sized blocks of the kernel's
counter-based substream.  Because every block is a pure function of its
``(stream seed, block index)`` key, integer success counts obey an
associative merge law::

    successes[0, 10000) + successes[10000, 20000) == successes[0, 20000)

bit-exactly -- so estimates memoized at one budget extend to any larger
budget, and any partition of a sample range across workers reassembles
the same totals.  Full blocks land in the cross-run
:class:`~repro.results.memo.QueryMemo` as plain integers under
``mc``-prefixed tokens; partial blocks at range edges are computed fresh
and never stored.  Whatever the memo does not serve -- fresh full blocks
and edge blocks alike -- goes to the kernel in one call, which refines
all of their trials in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from ..obs import OBS
from ..results.memo import MISS, query_memo, task_token
from .kernel import BLOCK_SAMPLES, block_indicators, resolve_method
from .stats import wilson_interval


@dataclass(frozen=True)
class MCEstimate:
    """An integer ``(successes, samples)`` pair -- the mergeable unit."""

    successes: int
    samples: int

    def __post_init__(self):
        if self.samples < 0 or not 0 <= self.successes <= self.samples:
            raise ValueError(
                f"invalid estimate {self.successes}/{self.samples}"
            )

    @property
    def probability(self) -> float:
        if self.samples == 0:
            raise ValueError("empty estimate has no probability")
        return self.successes / self.samples

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        return wilson_interval(self.successes, self.samples, confidence)

    def merge(self, other: "MCEstimate") -> "MCEstimate":
        """Combine disjoint sample ranges of the same cell."""
        return MCEstimate(
            self.successes + other.successes, self.samples + other.samples
        )


def cell_digest(alpha, ports=None) -> str:
    """The structural digest an MC cell keys its memo entries under.

    Every method samples the configuration itself, so a cell shares the
    plain structural key of its ``(alpha, ports)`` chain.
    """
    from ..chain.engine import chain_key, key_digest

    return key_digest(chain_key(alpha, ports))


def block_token(
    digest: str,
    task,
    t: int,
    method: str,
    stream_seed: int,
    block: int,
) -> "str | None":
    """The memo token of one *full* block, or ``None`` if unmemoizable.

    ``BLOCK_SAMPLES`` is baked into the token so the layout could only
    ever change by orphaning -- never corrupting -- old entries.
    """
    token = task_token(task)
    if token is None:
        return None
    return _block_token(digest, token, t, method, stream_seed, block)


def _block_token(digest: str, task_tok: str, t: int, method: str,
                 stream_seed: int, block: int) -> str:
    """:func:`block_token` from a task's already built
    :func:`~repro.results.memo.task_token`."""
    return sha256(
        f"mc|{digest}|{task_tok}|t={t}|m={method}|s={stream_seed}"
        f"|b={block}|bs={BLOCK_SAMPLES}".encode()
    ).hexdigest()


def sample_range(
    alpha,
    task,
    t: int,
    ports=None,
    *,
    stream_seed: int,
    start: int,
    stop: int,
    method: str = "auto",
    use_memo: bool = True,
) -> MCEstimate:
    """Successes over samples ``[start, stop)`` of a cell's substream.

    Full blocks inside the range are served from the configured
    cross-run memo; every other block (fresh full blocks and the edge
    blocks) is computed in one :func:`block_indicators` call, and the
    fresh full blocks are recorded to the memo in one append once the
    range is done (a call killed before that records none of its
    blocks: the memo is a cache, and the records it feeds are
    unaffected).  The result is a pure function of the cell and the
    range -- independent of memo state, worker count, and how callers
    partition the range.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got [{start}, {stop})")
    resolved = resolve_method(method)
    memo = query_memo() if use_memo else None
    # Built once per call: only the block index varies between tokens.
    digest = task_tok = None
    if memo is not None:
        digest = cell_digest(alpha, ports)
        task_tok = task_token(task)
    successes = 0
    hits = 0
    # ``(block, lo, hi, token)`` of every block the memo did not serve.
    pending: list[tuple[int, int, int, "str | None"]] = []
    for block in range(start // BLOCK_SAMPLES, (stop - 1) // BLOCK_SAMPLES + 1):
        lo = max(start, block * BLOCK_SAMPLES)
        hi = min(stop, (block + 1) * BLOCK_SAMPLES)
        full = hi - lo == BLOCK_SAMPLES
        token = (
            _block_token(digest, task_tok, t, resolved, stream_seed, block)
            if full and task_tok is not None
            else None
        )
        if token is not None:
            value = memo.lookup(token)
            if value is not MISS and isinstance(value, int):
                successes += value
                hits += 1
                if OBS.enabled:
                    OBS.metrics.inc("mc.memo.hit")
                continue
        pending.append((block, lo, hi, token))
    # ``(token, successes)`` of the fresh full blocks, recorded at the end.
    computed: list[tuple[str, int]] = []
    if pending:
        # One kernel call for every fresh block, full or edge.
        indicators = block_indicators(
            alpha,
            task,
            t,
            ports,
            stream_seed=stream_seed,
            block=[block for block, _, _, _ in pending],
            method=resolved,
        ).reshape(len(pending), BLOCK_SAMPLES)
        for row, (block, lo, hi, token) in zip(indicators, pending):
            offset = block * BLOCK_SAMPLES
            count = int(row[lo - offset : hi - offset].sum())
            successes += count
            if token is not None:
                computed.append((token, count))
        if OBS.enabled:
            OBS.metrics.inc("mc.blocks", len(pending))
            OBS.metrics.inc(
                "mc.samples", sum(hi - lo for _, lo, hi, _ in pending)
            )
    if computed:
        memo.record(computed)
    if hits and pending and OBS.enabled:
        # A warm cell extended by fresh increments: the merge the memo
        # exists for.
        OBS.metrics.inc("mc.memo.merge")
    return MCEstimate(successes, stop - start)


def sample_cell(
    alpha,
    task,
    t: int,
    ports=None,
    *,
    stream_seed: int,
    samples: int,
    method: str = "auto",
    use_memo: bool = True,
) -> MCEstimate:
    """The first ``samples`` trials of a cell's substream."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    return sample_range(
        alpha,
        task,
        t,
        ports,
        stream_seed=stream_seed,
        start=0,
        stop=samples,
        method=method,
        use_memo=use_memo,
    )


__all__ = [
    "MCEstimate",
    "block_token",
    "cell_digest",
    "sample_cell",
    "sample_range",
]
