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
  port-numbered clique), and reduce each block to its distinct
  class-size multisets, found by a ``lexsort`` and an adjacent-row diff.
  That partition comes from the protocol complex alone, so it is
  computed once per ``(configuration, ports, t, stream, block)`` and
  reused by every task on the same trials (common random numbers make
  a sweep's tasks of one stream share it); only the verdict per
  distinct multiset depends on the task.  Bit-exact equal to the
  per-trajectory scalar oracle on the same words.
* ``scalar`` -- the legacy per-trajectory Python loop over the *same*
  Philox words; kept as the test oracle and benchmark baseline.
"""

from __future__ import annotations

import hashlib
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
# Bit-level solver: one task-free knowledge partition per block
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


def _blackboard_labels(words: np.ndarray, t: int) -> np.ndarray:
    """Source labels ``(k, B)`` from round-major ``words``: sources whose
    first ``t`` bits agree.

    On the blackboard, knowledge equality is bit-string equality (proof
    of Theorem 4.1; :func:`repro.models.blackboard.bitstring_partition`),
    and node bit strings coincide exactly when their *sources* do -- so
    the partition is taken over sources, ``k x k`` instead of ``n x n``,
    and weighted by group sizes.
    """
    if t % 64:
        words = words.copy()
        words[-1] &= np.uint64((1 << (t % 64)) - 1)
    return _first_equal_labels(words)


def _bit_planes(
    alpha: RandomnessConfiguration, words: np.ndarray, t: int
) -> np.ndarray:
    """Per-node round bits ``(t, n, B)`` (uint8) from round-major words."""
    rounds = np.arange(t)
    shifts = (rounds % 64).astype(np.uint64)[:, None, None]
    planes = (words[rounds // 64] >> shifts) & np.uint64(1)
    return planes.astype(np.uint8)[:, list(alpha.assignment), :]


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

    Each round packs all of that into one signature per node: the
    columns ``2*label + bit``, a degree-class id and the labels behind
    each port, stored in ``np.min_scalar_type(2n+1)`` (every column is
    below ``2n``), zero-padded to whole ``uint64`` words and viewed as
    those words.  The signatures are compared word by word and the new
    labels are the first-occurrence indices of
    :func:`_first_equal_labels`.  Labels stay node indices and no
    mixed-radix product is formed, so no overflow at any ``n``.
    """
    n = alpha.n
    batch = words.shape[2]
    bits = _bit_planes(alpha, words, t)
    degrees = [len(ports.neighbours(node)) for node in range(n)]
    degree_ids = np.unique(degrees, return_inverse=True)[1]
    width = max(degrees)
    dtype = np.min_scalar_type(2 * n + 1)
    columns = 2 + width
    per_word = 8 // dtype.itemsize
    # Rows of ``slots``: the labels, the ``2*label + bit`` values, one
    # constant row per degree class, and a zero row for the padding.
    # ``pick[i]`` lists the slot behind each signature column of node i.
    classes = int(degree_ids.max()) + 1
    slots = np.zeros((2 * n + classes + 1, batch), dtype=dtype)
    slots[2 * n : 2 * n + classes] = np.arange(classes)[:, None]
    pick = np.full(
        (n, -(-columns // per_word) * per_word), len(slots) - 1, dtype=np.intp
    )
    pick[:, 0] = n + np.arange(n)
    pick[:, 1] = 2 * n + degree_ids
    for node in range(n):
        # Short rows keep the zero slot: the degree column already
        # separates nodes of unequal degree.
        pick[node, 2 : 2 + degrees[node]] = ports.neighbours(node)
    labels = np.zeros((n, batch), dtype=dtype)
    for r in range(t):
        slots[:n] = labels
        np.multiply(slots[:n], 2, out=slots[n : 2 * n])
        slots[n : 2 * n] += bits[r]
        signature = np.ascontiguousarray(slots[pick].transpose(0, 2, 1))
        packed = signature.view(np.uint64)  # (n, B, words)
        labels = _first_equal_labels(
            np.ascontiguousarray(packed.transpose(2, 0, 1))
        )
    return labels


def _size_multisets(
    labels: np.ndarray, weights: tuple[int, ...] | None = None
) -> np.ndarray:
    """Per-trial class sizes, sorted descending and zero-padded: ``(B, m)``.

    ``labels[j, s]`` is the first unit of ``j``'s class in trial ``s``
    and ``weights[j]`` how many nodes unit ``j`` carries (one each when
    ``None``).  One offset ``bincount`` sums each class onto its first
    unit; every other slot stays zero.
    """
    m, batch = labels.shape
    flat = (labels + np.arange(batch) * m).ravel()
    if weights is None:
        sizes = np.bincount(flat, minlength=batch * m)
    else:
        sizes = np.bincount(
            flat, weights=np.repeat(weights, batch), minlength=batch * m
        ).astype(np.int64)
    sizes = sizes.reshape(batch, m)
    sizes.sort(axis=1)
    return sizes[:, ::-1]


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct rows in lexicographic order, per-row index into them)``
    by one ``lexsort`` and an adjacent-row diff."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(len(keys), dtype=np.uint16)
    index[order] = np.cumsum(starts) - 1
    return ranked[starts], index


# Cells of one stream run back to back (a sweep walks tasks per stream),
# so a small window of blocks catches every reuse.
@lru_cache(maxsize=128)
def _block_classes(
    alpha: RandomnessConfiguration,
    ports: PortAssignment | None,
    t: int,
    stream_seed: int,
    block: int,
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The block's knowledge partitions, reduced to what a task reads.

    Returns the distinct class-size multisets (descending, zeros dropped)
    and a read-only ``uint16`` index from each trial to its multiset.
    Task-free: the partition comes from the protocol complex alone, so
    every task on the same ``(stream_seed, block)`` reuses it.
    """
    words = _round_major_words(stream_seed, block, alpha.k, words_needed(t))
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
    block: int,
    method: str = "auto",
) -> np.ndarray:
    """Per-sample success indicators of one substream block.

    A pure function of ``(stream_seed, block)`` and the cell parameters:
    the foundation of the merge law, worker-count independence, and
    common random numbers across cells sharing a stream.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if resolve_method(method) == "scalar":
        return scalar_block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block
        )
    # Valid for every symmetric output complex -- the package contract --
    # where solvability depends only on the multiset of knowledge-class
    # sizes (see :meth:`SymmetryBreakingTask.solvable_from_sizes`).
    classes, index = _block_classes(alpha, ports, t, stream_seed, block)
    verdicts = np.fromiter(
        (task.solvable_from_sizes(sizes) for sizes in classes),
        dtype=bool,
        count=len(classes),
    )
    return verdicts[index]


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
