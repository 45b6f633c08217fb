"""Vectorized Monte-Carlo kernel with counter-based substreams.

The sampling tier answers ``Pr[S(t) | alpha]`` where the exact chain
cannot reach, and the estimates must be *mergeable*: a memoized 10k-sample
cell plus a fresh 10k-sample increment combine into one 20k-sample
estimate.  Everything here follows from one discipline:

* Samples live in fixed blocks of :data:`BLOCK_SAMPLES` trials.  Block
  ``b`` of a stream is generated by a counter-based ``Philox`` generator
  keyed on ``(stream seed, b)`` -- no sequential RNG state crosses block
  boundaries, so any block is a pure function of its key.  Serial and
  process-pool execution therefore agree bit for bit at any worker
  count, and two runs over overlapping sample ranges agree on the
  overlap (the merge law the memo relies on).
* Source words are generated round-major (``(words, k, samples)`` then
  transposed), so a stream sampled at horizon ``t`` shares its first
  rounds with the same stream at any larger horizon.  Cells that share a
  stream but differ in ``t`` or task therefore share trials -- common
  random numbers, which make paired comparisons across sweep cells
  low-variance.

Two solvers decide whole blocks:

* ``bits`` -- draw source-bit matrices, intern knowledge classes by
  pairwise-equality refinement (bit-string grouping on the blackboard,
  per-round refinement of one packed signature per node on the
  port-numbered clique), and reduce the trials to their distinct
  class-size multisets, found by one sort of the rows packed into words
  and an adjacent-row diff.  One call decides a whole range of blocks
  in one pass: the blocks' words are concatenated along the trial axis
  (each block still drawn from its own key), refined together, and the
  task is asked once per distinct multiset of the range.  That
  partition comes from the protocol complex alone, so it is computed
  once per ``(configuration, ports, t, stream, blocks)`` and reused by
  every task on the same trials (common random numbers make a sweep's
  tasks of one stream share it); only the verdict per distinct
  multiset depends on the task.  Bit-exact equal to the per-trajectory
  scalar oracle on the same words, block by block.
* ``scalar`` -- the legacy per-trajectory Python loop over the *same*
  Philox words; kept as the test oracle and benchmark baseline.
"""

from __future__ import annotations

import hashlib
import numbers
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..core.solvability import realization_solves
from ..core.tasks import SymmetryBreakingTask
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration

#: Samples per substream block.  Fixed forever: the block layout *is* the
#: stream identity (memo tokens and merge laws key on it), so changing it
#: would orphan every memoized MC cell.
BLOCK_SAMPLES = 1000

#: Methods accepted by :func:`block_indicators`.
METHODS = ("auto", "bits", "scalar")

#: Most blocks the ``bits`` solver refines in one label pass.  Longer
#: ranges run in passes of this many blocks, which bounds the pass's
#: temporaries (memory grows with the trials refined at once) and keeps
#: a pass's trial-to-multiset index within ``uint16``.
PASS_BLOCKS = 10


def philox_key(stream_seed: int, block: int) -> np.ndarray:
    """The 128-bit ``Philox`` key of ``(stream, block)``.

    Hash-derived (as the runner's per-job seeds are), so adjacent blocks
    and adjacent streams are unrelated keys, not adjacent counters.
    """
    digest = hashlib.sha256(
        f"mc\x1f{stream_seed}\x1f{block}".encode()
    ).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def words_needed(t: int) -> int:
    """64-bit words per source covering ``t`` rounds."""
    if t < 1:
        raise ValueError("need t >= 1")
    return (t + 63) // 64


def source_words(
    stream_seed: int, block: int, k: int, words: int
) -> np.ndarray:
    """Source randomness of one block: ``(BLOCK_SAMPLES, k, words)`` uint64.

    Generated round-major -- word index is the *slowest* axis -- so the
    array for ``words`` is a prefix extension of the array for any
    smaller word count on the same key.  Bit ``r`` of source ``j`` in
    sample ``s`` is ``(out[s, j, r // 64] >> (r % 64)) & 1``.
    """
    return np.ascontiguousarray(
        _round_major_words(stream_seed, block, k, words).transpose(2, 1, 0)
    )


def _round_major_words(
    stream_seed: int, block: int, k: int, words: int
) -> np.ndarray:
    """The words of :func:`source_words` as generated: ``(words, k,
    BLOCK_SAMPLES)``, the layout the ``bits`` solver compares in."""
    rng = np.random.Generator(np.random.Philox(key=philox_key(stream_seed, block)))
    return rng.integers(
        0, 2**64, size=(words, k, BLOCK_SAMPLES), dtype=np.uint64
    )


def resolve_method(method: str) -> str:
    """Resolve ``"auto"`` (always the bit-level solver)."""
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    return "bits" if method == "auto" else method


# ----------------------------------------------------------------------
# Bit-level solver: one task-free knowledge partition per pass
# ----------------------------------------------------------------------
def _first_equal_labels(units: np.ndarray) -> np.ndarray:
    """First-occurrence class labels ``(m, B)`` of ``units`` ``(w, m, B)``.

    Units ``i`` and ``j`` of one trial are equal when all ``w`` of their
    words are; each unit's label is the lowest index equal to it.  One
    broadcast compare gives the ``(m, m, B)`` equality cube; weighting
    row ``j`` by ``m - j`` and taking the maximum over ``j`` picks the
    lowest equal index (``j = i`` always qualifies), in a fixed number
    of numpy calls whatever ``m``.  Weights and labels share the dtype
    ``np.min_scalar_type(m)``, so no width limit appears.

    The chain engine's ``_lowest_equal`` has the same form; this copy
    stays separate on purpose, since the sampling tier's estimates are
    checked against exact chain values.
    """
    m = units.shape[1]
    dtype = np.min_scalar_type(m)
    same = units[:, :, None, :] == units[:, None, :, :]
    same = same.all(axis=0) if len(units) > 1 else same[0]
    eq = same.view(np.uint8) if dtype == np.uint8 else same.astype(dtype)
    eq *= np.arange(m, 0, -1, dtype=dtype)[:, None, None]
    labels = eq.max(axis=0)
    np.subtract(m, labels, out=labels)
    return labels


def _compact_words(words: np.ndarray, t: int) -> np.ndarray:
    """Round-major ``words`` with every bit past round ``t`` cleared.

    Raw ``uint64`` words of one word per source (``t <= 64``) shrink to
    the narrowest unsigned dtype holding ``t`` bits -- one byte per
    source and trial at the sweeps' small horizons -- so a pass over
    many blocks keeps its source words, and every compare on them,
    small.  Words that are already compact are returned as they are.
    """
    if words.dtype != np.uint64:
        return words
    if len(words) == 1:
        mask = (1 << t) - 1
        return (words & np.uint64(mask)).astype(np.min_scalar_type(mask))
    if t % 64:
        words = words.copy()
        words[-1] &= np.uint64((1 << (t % 64)) - 1)
    return words


def _blackboard_labels(words: np.ndarray, t: int) -> np.ndarray:
    """Source labels ``(k, B)`` from round-major ``words``: sources whose
    first ``t`` bits agree.

    On the blackboard, knowledge equality is bit-string equality (proof
    of Theorem 4.1; :func:`repro.models.blackboard.bitstring_partition`),
    and node bit strings coincide exactly when their *sources* do -- so
    the partition is taken over sources, ``k x k`` instead of ``n x n``,
    and weighted by group sizes.
    """
    return _first_equal_labels(_compact_words(words, t))


def _clique_labels(
    alpha: RandomnessConfiguration,
    ports: PortAssignment,
    words: np.ndarray,
    t: int,
) -> np.ndarray:
    """Node labels ``(n, B)`` of the port-numbered message-passing partition.

    Knowledge classes are refined round by round: two nodes stay equal
    iff their previous classes, their fresh bits, their degrees and the
    classes behind each of their ports (in port order) all agree -- the
    interner recursion of
    :class:`~repro.models.message_passing.MessagePassingModel`.

    Each round writes all of that into one signature per node: the
    columns ``2*label + bit``, a degree-class id and the labels behind
    each port, stored in ``np.min_scalar_type(2n+1)`` (every column is
    below ``2n``), zero-padded to whole ``uint64`` words and viewed as
    those words.  The signatures live trial-major in one buffer, written
    column by column in place, so the word view needs no transposed
    copy.  The signatures are compared word by word and the new labels
    are the first-occurrence indices of :func:`_first_equal_labels`.
    Labels stay node indices and no mixed-radix product is formed, so no
    overflow at any ``n``.
    """
    n = alpha.n
    batch = words.shape[2]
    words = _compact_words(words, t)
    assignment = list(alpha.assignment)
    degrees = [len(ports.neighbours(node)) for node in range(n)]
    width = max(degrees)
    dtype = np.min_scalar_type(2 * n + 1)
    per_word = 8 // dtype.itemsize
    # ``signature[i, s]``: node i's columns in trial s.  The degree
    # column never changes and the padding stays zero.
    signature = np.zeros(
        (n, batch, -(-(2 + width) // per_word) * per_word), dtype=dtype
    )
    signature[:, :, 1] = np.unique(degrees, return_inverse=True)[1][:, None]
    # ``behind[p, i]``: the node behind port p of node i, or ``n`` -- a
    # row of ``labels`` that stays zero -- past i's degree (the degree
    # column already separates nodes of unequal degree).
    behind = np.full((width, n), n, dtype=np.intp)
    for node in range(n):
        behind[: degrees[node], node] = ports.neighbours(node)
    labels = np.zeros((n + 1, batch), dtype=dtype)
    # ``(words, n, B)``: a view, contiguous for one word per signature.
    units = signature.view(np.uint64).transpose(2, 0, 1)
    for r in range(t):
        # Round ``r``'s bit of every source, then of every node: one
        # ``(k, B)`` plane at a time, never all ``t`` rounds at once.
        plane = (words[r // 64] >> (r % 64)) & 1
        own = signature[:, :, 0]
        np.multiply(labels[:n], 2, out=own)
        own += plane.astype(dtype, copy=False)[assignment]
        for port in range(width):
            signature[:, :, 2 + port] = labels[behind[port]]
        labels[:n] = _first_equal_labels(units)
    return labels[:n]


def _size_multisets(
    labels: np.ndarray, weights: tuple[int, ...] | None = None
) -> np.ndarray:
    """Per-trial class sizes, sorted descending and zero-padded: ``(B, m)``.

    ``labels[j, s]`` is the first unit of ``j``'s class in trial ``s``
    and ``weights[j]`` how many nodes unit ``j`` carries (one each when
    ``None``).  One broadcast compare marks the units of each class on
    its first unit, and a (weighted) sum over the units gives the class
    sizes there; every other slot stays zero.  Sizes are held in the
    narrowest dtype that holds ``n``, so a pass over many blocks makes
    no wide temporaries.
    """
    m = labels.shape[0]
    dtype = np.min_scalar_type(m if weights is None else sum(weights))
    # ``member[j, i, s]``: unit i's class starts at unit j in trial s.
    member = labels == np.arange(m, dtype=labels.dtype)[:, None, None]
    if weights is not None:
        member = (
            member.view(np.uint8) if dtype == np.uint8 else member.astype(dtype)
        )
        member *= np.asarray(weights, dtype=dtype)[:, None]
    sizes = np.ascontiguousarray(member.sum(axis=1, dtype=dtype).T)
    sizes.sort(axis=1)
    return sizes[:, ::-1]


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct rows, per-row index into them)`` by one ``lexsort``
    and an adjacent-row diff.

    Each row's bytes are zero-padded to whole ``uint64`` words first, so
    the sort and the diff run over one word per row (a row of up to
    eight byte-sized class sizes) instead of one column per class.  The
    distinct rows come out in the order of those words; callers only
    map each row to its verdict, so any fixed order serves.
    """
    rows = len(keys)
    raw = np.ascontiguousarray(keys).view(np.uint8)
    padded = np.zeros((rows, -(-raw.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : raw.shape[1]] = raw
    words = padded.view(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.empty(rows, dtype=bool)
    starts[:1] = True
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(rows, dtype=np.uint16)
    index[order] = np.cumsum(starts) - 1
    return keys[order[starts]], index


def _range_words(
    stream_seed: int, blocks: tuple[int, ...], k: int, t: int
) -> np.ndarray:
    """Compact round-major words of ``blocks``, concatenated along the
    trial axis in the order given: ``(words, k, len(blocks) *
    BLOCK_SAMPLES)``.  Each block keeps its own ``Philox`` key."""
    words = words_needed(t)
    return np.concatenate(
        [
            _compact_words(_round_major_words(stream_seed, block, k, words), t)
            for block in blocks
        ],
        axis=2,
    )


# Cells of one stream run back to back (a sweep walks tasks per stream,
# and a cell hands all its fresh blocks over at once), so a small window
# of block ranges catches every reuse.
@lru_cache(maxsize=16)
def _block_classes(
    alpha: RandomnessConfiguration,
    ports: PortAssignment | None,
    t: int,
    stream_seed: int,
    blocks: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The knowledge partitions of a range of blocks, reduced to what a
    task reads: one label pass over all their trials.

    Returns the distinct class-size multisets (descending, zeros dropped)
    and a read-only ``uint16`` index from each trial to its multiset,
    trials in the order of ``blocks``.  Task-free: the partition comes
    from the protocol complex alone, so every task on the same
    ``(stream_seed, blocks)`` reuses it.
    """
    words = _range_words(stream_seed, blocks, alpha.k, t)
    if ports is None:
        keys = _size_multisets(
            _blackboard_labels(words, t), alpha.group_sizes
        )
    else:
        keys = _size_multisets(_clique_labels(alpha, ports, words, t))
    distinct, index = _distinct_rows(keys)
    index.flags.writeable = False
    classes = tuple(
        tuple(int(size) for size in row if size) for row in distinct
    )
    return classes, index


# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------
def scalar_block_indicators(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    stream_seed: int,
    block: int,
    count: int = BLOCK_SAMPLES,
) -> np.ndarray:
    """The per-trajectory scalar loop over the *same* Philox words.

    Bit-exact equal to ``method="bits"`` by construction; kept as the
    test oracle and the benchmark baseline for the vectorized kernel.
    """
    from ..core.probability import model_for

    words = source_words(stream_seed, block, alpha.k, words_needed(t))
    model = model_for(alpha, ports)
    out = np.zeros(count, dtype=bool)
    for s in range(count):
        source_bits = [
            tuple(
                int((words[s, j, r // 64] >> np.uint64(r % 64)) & np.uint64(1))
                for r in range(t)
            )
            for j in range(alpha.k)
        ]
        realization = tuple(
            source_bits[alpha.source_of(i)] for i in range(alpha.n)
        )
        out[s] = realization_solves(model, realization, task)
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def block_indicators(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    stream_seed: int,
    block: "int | Sequence[int]",
    method: str = "auto",
) -> np.ndarray:
    """Per-sample success indicators of one substream block, or of a
    range of them.

    ``block`` is one block index, or a sequence of indices (a ``range``,
    or the fresh blocks left between memo hits) whose indicators come
    back concatenated in that order, :data:`BLOCK_SAMPLES` per block.
    The ``bits`` solver refines all of their trials in one label pass
    (:data:`PASS_BLOCKS` blocks at most) and asks the task once per
    distinct class-size multiset of the whole range; each trial's
    indicator is the one its own block would give alone.

    A pure function of ``(stream_seed, block)`` and the cell parameters:
    the foundation of the merge law, worker-count independence, and
    common random numbers across cells sharing a stream.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    blocks = (
        (int(block),) if isinstance(block, numbers.Integral) else tuple(block)
    )
    if resolve_method(method) == "scalar":
        return np.concatenate([
            scalar_block_indicators(
                alpha, task, t, ports, stream_seed=stream_seed, block=b
            )
            for b in blocks
        ] or [np.zeros(0, dtype=bool)])
    # Valid for every symmetric output complex -- the package contract --
    # where solvability depends only on the multiset of knowledge-class
    # sizes (see :meth:`SymmetryBreakingTask.solvable_from_sizes`).
    verdict: dict[tuple[int, ...], bool] = {}
    parts = []
    for first in range(0, len(blocks), PASS_BLOCKS):
        classes, index = _block_classes(
            alpha, ports, t, stream_seed, blocks[first : first + PASS_BLOCKS]
        )
        for sizes in classes:
            if sizes not in verdict:
                verdict[sizes] = task.solvable_from_sizes(sizes)
        verdicts = np.fromiter(
            (verdict[sizes] for sizes in classes),
            dtype=bool,
            count=len(classes),
        )
        parts.append(verdicts[index])
    return np.concatenate(parts or [np.zeros(0, dtype=bool)])


__all__ = [
    "BLOCK_SAMPLES",
    "METHODS",
    "block_indicators",
    "philox_key",
    "resolve_method",
    "scalar_block_indicators",
    "source_words",
    "words_needed",
]
