"""The compiled consistency-chain engine.

:func:`compile_chain` explores the reachable consistency-partition space
of one ``(alpha, ports)`` pair exactly once and emits a
:class:`CompiledChain`: interned states (dense integer ids over
restricted-growth label vectors), sparse integer transition arrays, and
states topologically sorted by block count so absorption probabilities
and hitting times solve in a single reverse pass.

Transition weights are stored as integer counts out of ``2^(k-1)``
enumerated source-bit vectors (bit vectors and their complements refine
identically), so the exact backend reproduces the seed's ``Fraction``
results digit for digit while the float backend reads the same counts as
``float64`` weights.

A process-wide memo keyed by the chain's *structural* content (the
source assignment and the neighbour/back-port tables) means a sweep that
touches the same configuration from many call sites -- per task, per
time horizon, per experiment -- compiles it exactly once.
"""

from __future__ import annotations

import hashlib
import weakref
from fractions import Fraction

import numpy as np

from ..obs import OBS, trace
from ..randomness.configuration import RandomnessConfiguration
from .backends import (
    absorption_exact,
    absorption_float,
    distribution_exact,
    distribution_float,
    expected_exact,
    expected_float,
    mass_exact,
    series_exact,
    series_float,
    step_exact,
    validate_backend,
)
from .interning import (
    LabelVector,
    StateTable,
    block_count,
    block_sizes,
    blocks_from_labels,
    canonical_labels,
)

#: Refuse chains that would be astronomically large.
MAX_NODES = 10

#: Structural memo key: (assignment, neighbour tables, back-port tables).
ChainKey = tuple

#: Default cap on cached exact distributions per chain (entries, i.e.
#: time steps 0..cap-1).  Deeper horizons are still answered exactly by
#: stepping transiently past the last cached entry; they just stop
#: growing the per-chain cache.  See :func:`set_distribution_cache_cap`.
DEFAULT_DISTRIBUTION_CACHE_CAP = 1024


def set_distribution_cache_cap(cap: "int | None") -> None:
    """Bound every chain's exact-distribution cache to ``cap`` entries.

    ``None`` restores :data:`DEFAULT_DISTRIBUTION_CACHE_CAP`.  The cap
    is process-wide and applies to already-compiled chains too (their
    existing caches are not truncated, but stop growing past the cap).
    """
    if cap is None:
        cap = DEFAULT_DISTRIBUTION_CACHE_CAP
    if cap < 1:
        raise ValueError("distribution cache cap must be >= 1")
    CompiledChain.distribution_cache_cap = cap


def refinement_signature(
    labels: LabelVector,
    neigh: "tuple[tuple[int, ...], ...] | None",
    back: "tuple[tuple[int, ...], ...] | None",
) -> LabelVector:
    """The bit-independent part of every node's refinement key, as ints.

    A node's next view is its old view, its fresh bit and -- under
    message passing (Eq. 2) -- its neighbours' *old* views, so all but
    the bit is fixed per state.  ``sig[i] == sig[j]`` exactly when nodes
    ``i`` and ``j`` agree on everything but the bit: the old label on
    the blackboard (Eq. 1), plus the port-ordered neighbour labels
    (and, with ``back``, the sender-side ports) under message passing.
    """
    if neigh is None:
        return labels
    n = len(labels)
    if back is None:
        return canonical_labels(
            [
                (labels[i], tuple(labels[j] for j in neigh[i]))
                for i in range(n)
            ]
        )
    return canonical_labels(
        [
            (
                labels[i],
                tuple(
                    (labels[j], port) for j, port in zip(neigh[i], back[i])
                ),
            )
            for i in range(n)
        ]
    )


def refine_labels(
    labels: LabelVector,
    node_bits: "tuple[int, ...]",
    neigh: "tuple[tuple[int, ...], ...] | None",
    back: "tuple[tuple[int, ...], ...] | None",
) -> LabelVector:
    """One synchronous refinement round on an integer label vector.

    ``node_bits[i]`` is node ``i``'s source bit (0 or 1) this round;
    ``neigh`` is ``None`` for the blackboard (Eq. 1) or the per-node
    neighbour tables for message passing (Eq. 2); ``back`` additionally
    carries the sender-side ports under the classical anonymous-network
    semantics.  Two nodes stay together iff they share the
    :func:`refinement_signature` and the bit, i.e. iff ``2*sig + bit``
    agrees.
    """
    sig = refinement_signature(labels, neigh, back)
    return canonical_labels([s + s + b for s, b in zip(sig, node_bits)])


def neighbour_tables(ports) -> tuple[tuple[int, ...], ...]:
    """Per-node neighbour tuples of a port assignment or graph topology."""
    return tuple(ports.neighbours(node) for node in range(ports.n))


def back_port_tables(ports) -> tuple[tuple[int, ...], ...]:
    """Sender-side ports of each received message, per node in port order."""
    return tuple(
        tuple(ports.port_to(nbr, node) for nbr in ports.neighbours(node))
        for node in range(ports.n)
    )


def chain_key(
    alpha: RandomnessConfiguration,
    ports=None,
    *,
    include_back_ports: bool = False,
) -> ChainKey:
    """The structural memo/cache key of a chain.

    Purely value-based: two :class:`PortAssignment`/``GraphTopology``
    objects with the same tables produce the same key, so memoization
    survives reconstruction of equal configurations.
    """
    if ports is None:
        return (alpha.assignment, None, None)
    neigh = neighbour_tables(ports)
    back = back_port_tables(ports) if include_back_ports else None
    return (alpha.assignment, neigh, back)


def key_digest(key: ChainKey) -> str:
    """Stable content hash of a structural chain key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _task_content_key(task) -> "tuple | None":
    """A value-based cache key for tasks that expose one.

    :class:`~repro.core.tasks.CountTask` legality is fully determined by
    ``(n, count multisets)``; other task classes return ``None`` and are
    cached by weak identity instead.
    """
    multisets = getattr(task, "count_multisets", None)
    if callable(multisets):
        return ("count", task.n, multisets())
    return None


class CompiledChain:
    """One configuration's consistency chain, compiled to flat arrays.

    States are dense integer ids, topologically sorted by block count
    (state 0 is the single-block initial state); transitions are stored
    per state as ``(dst, count)`` pairs with ``count`` out of
    :attr:`denom` enumerated source-bit vectors.  All queries accept a
    ``backend`` argument: ``"exact"`` (Fraction) or ``"float"`` (numpy).
    """

    #: Process-wide cap on the per-chain exact-distribution cache (see
    #: :func:`set_distribution_cache_cap`).
    distribution_cache_cap: int = DEFAULT_DISTRIBUTION_CACHE_CAP

    def __init__(
        self,
        key: ChainKey,
        n: int,
        k: int,
        labels: tuple[LabelVector, ...],
        out: tuple[tuple[tuple[int, int], ...], ...],
    ):
        self.key = key
        self.n = n
        self.k = k
        self.denom = 2 ** (k - 1)
        self.labels = labels
        self.block_counts = tuple(block_count(v) for v in labels)
        #: Per-state ``(dst, count)`` tuples.
        self._out = out
        #: ``(indptr, dst, cnt)`` int64 arrays, derived lazily from
        #: ``_out`` by :meth:`csr`.
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._ids = {v: sid for sid, v in enumerate(labels)}
        self.start = self._ids[(0,) * n]
        self._coo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._levels: tuple[tuple[int, int], ...] | None = None
        #: Masks for content-keyed tasks (CountTask and friends): chains
        #: are process-immortal via the memo, so identity keys would pin
        #: every freshly-constructed task forever.  Tasks without a
        #: content key fall back to a weak identity map.
        self._mask_cache: dict[tuple, tuple[bool, ...]] = {}
        self._weak_masks: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._partitions: list | None = None
        self._exact_weights: tuple | None = None
        #: Exact distributions by time; [0] is the point mass on start.
        self._dist_exact: list[dict[int, Fraction]] = [
            {self.start: Fraction(1)}
        ]

    # -- pickling: drop per-process caches (task masks key on identity) --
    def __getstate__(self):
        return {
            "key": self.key,
            "n": self.n,
            "k": self.k,
            "labels": self.labels,
            "_out": self._out,
        }

    def __setstate__(self, state):
        self.__init__(
            state["key"], state["n"], state["k"],
            state["labels"], state["_out"],
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.labels)

    @property
    def num_transitions(self) -> int:
        return sum(len(edges) for edges in self._out)

    def state_id(self, labels: LabelVector) -> int | None:
        """Dense id of a label vector (``None`` if unreachable)."""
        return self._ids.get(labels)

    def out_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-state ``(dst, count)`` tuples."""
        return self._out

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transitions as flat int64 CSR arrays ``(indptr, dst, cnt)``.

        State ``sid``'s edges are ``dst[indptr[sid]:indptr[sid+1]]`` with
        integer counts ``cnt[...]`` out of :attr:`denom`, derived once
        from the per-state ``(dst, count)`` table.
        """
        if self._csr is None:
            out = self._out
            indptr = np.zeros(self.num_states + 1, dtype=np.int64)
            for sid, edges in enumerate(out):
                indptr[sid + 1] = indptr[sid] + len(edges)
            dst = np.fromiter(
                (d for edges in out for d, _ in edges),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            cnt = np.fromiter(
                (c for edges in out for _, c in edges),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            self._csr = (indptr, dst, cnt)
        return self._csr

    def levels(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` id ranges of equal block count, ascending.

        States are topologically sorted by block count, so refinement
        edges only ever leave a level for a strictly later one (or
        self-loop); the vectorized float kernels sweep these ranges in
        reverse instead of looping state by state.
        """
        if self._levels is None:
            ranges = []
            start = 0
            for sid in range(1, self.num_states + 1):
                if (
                    sid == self.num_states
                    or self.block_counts[sid] != self.block_counts[start]
                ):
                    ranges.append((start, sid))
                    start = sid
            self._levels = tuple(ranges)
        return self._levels

    def out_edges(self, sid: int) -> tuple[tuple[int, int], ...]:
        """``(dst, count)`` pairs; weights are ``count / denom``."""
        return self._out[sid]

    def exact_out_edges(self, sid: int) -> tuple[tuple[int, Fraction], ...]:
        """``(dst, weight)`` pairs with pre-built exact ``Fraction`` weights."""
        if self._exact_weights is None:
            self._exact_weights = tuple(
                tuple(
                    (dst, Fraction(cnt, self.denom)) for dst, cnt in edges
                )
                for edges in self._out
            )
        return self._exact_weights[sid]

    def transitions_exact(self, sid: int) -> dict[int, Fraction]:
        """Next-state distribution from ``sid`` as exact Fractions."""
        return dict(self.exact_out_edges(sid))

    def cached_distribution_exact(self, t: int) -> dict[int, Fraction]:
        """The exact distribution at time ``t``, stepped at most once ever.

        Task-independent and therefore shared by every query against
        this chain; callers must treat the returned dict as read-only
        (the public :meth:`state_distribution` hands out copies).

        The cache holds at most :attr:`distribution_cache_cap` entries
        (see :func:`set_distribution_cache_cap`): deeper horizons step
        transiently from the last cached entry, so deep queries on large
        state spaces stay exact without growing memory without bound.
        """
        cache = self._dist_exact
        if t < len(cache):
            return cache[t]
        cap = self.distribution_cache_cap
        while len(cache) <= t and len(cache) < cap:
            cache.append(step_exact(self, cache[-1]))
        if t < len(cache):
            return cache[t]
        dist = cache[-1]
        for _ in range(t - len(cache) + 1):
            dist = step_exact(self, dist)
        return dist

    def partition_of(self, sid: int):
        """State ``sid`` as the facade's canonical ``PartitionState``."""
        if self._partitions is None:
            self._partitions = [None] * self.num_states
        cached = self._partitions[sid]
        if cached is None:
            cached = self._partitions[sid] = blocks_from_labels(
                self.labels[sid]
            )
        return cached

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(src, dst, weight)`` arrays derived from :meth:`csr`
        (``src``/``dst`` int64, ``weight`` float64; built lazily)."""
        if self._coo is None:
            indptr, dst, cnt = self.csr()
            src = np.repeat(
                np.arange(self.num_states, dtype=np.int64),
                np.diff(indptr),
            )
            self._coo = (
                src,
                np.asarray(dst, dtype=np.int64),
                np.asarray(cnt, dtype=np.float64) / self.denom,
            )
        return self._coo

    # ------------------------------------------------------------------
    # Task solvability bitmasks
    # ------------------------------------------------------------------
    def solvable_mask(self, task) -> tuple[bool, ...]:
        """Per-state solvability, evaluated once per task into a bitmask.

        Symmetric tasks (the package contract) depend only on the
        multiset of block sizes, so the task predicate runs once per
        distinct size multiset rather than once per (state, query).
        Count-profile tasks are cached by *content* (equal tasks built
        at different call sites share one mask); other tasks by weak
        identity, so this immortal chain never pins dead task objects.
        The weak identity map doubles as a fast path for content-keyed
        tasks: a repeat query with the same task object skips the
        content-key computation entirely.
        """
        cached = self._weak_masks.get(task)
        if cached is not None:
            return cached
        key = _task_content_key(task)
        cached = self._mask_cache.get(key) if key is not None else None
        if cached is None:
            by_sizes: dict[tuple[int, ...], bool] = {}
            mask = []
            for sid, labels in enumerate(self.labels):
                sizes = block_sizes(labels)
                verdict = by_sizes.get(sizes)
                if verdict is None:
                    verdict = by_sizes[sizes] = task.solvable_from_partition(
                        [frozenset(b) for b in self.partition_of(sid)]
                    )
                mask.append(verdict)
            cached = tuple(mask)
            if key is not None:
                self._mask_cache[key] = cached
        try:
            self._weak_masks[task] = cached
        except TypeError:  # non-weakrefable task objects stay content-keyed
            pass
        return cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_distribution(self, t: int, *, backend: str = "exact"):
        """Distribution over state ids after ``t`` rounds."""
        if t < 0:
            raise ValueError("need t >= 0")
        if validate_backend(backend) == "exact":
            return dict(distribution_exact(self, t))
        return distribution_float(self, t)

    def solving_probability(self, task, t: int, *, backend: str = "exact"):
        """``Pr[S(t) | alpha]`` for a symmetric task."""
        if t < 0:
            raise ValueError("need t >= 0")
        mask = self.solvable_mask(task)
        if validate_backend(backend) == "exact":
            return mass_exact(distribution_exact(self, t), mask)
        dist = distribution_float(self, t)
        return float(dist[np.asarray(mask, dtype=bool)].sum())

    def solving_probability_series(
        self, task, t_max: int, *, backend: str = "exact"
    ):
        """``[Pr[S(1)], ..., Pr[S(t_max)]]`` sharing work across times."""
        mask = self.solvable_mask(task)
        if validate_backend(backend) == "exact":
            return series_exact(self, mask, t_max)
        return series_float(self, mask, t_max)

    def absorption_probabilities(self, task, *, backend: str = "exact"):
        """Per-state probability of ever solving (indexed by state id)."""
        mask = self.solvable_mask(task)
        if validate_backend(backend) == "exact":
            return absorption_exact(self, mask)
        return absorption_float(self, mask)

    def limit_solving_probability(self, task, *, backend: str = "exact"):
        """Exact (or float) ``lim_t Pr[S(t) | alpha]``."""
        return self.absorption_probabilities(task, backend=backend)[
            self.start
        ]

    def eventually_solvable(self, task) -> bool:
        """Definition 3.3 decided exactly; asserts the zero-one law."""
        limit = self.limit_solving_probability(task)
        if limit not in (Fraction(0), Fraction(1)):
            raise AssertionError(
                f"zero-one law violated: limit {limit} for chain {self.key!r}"
            )
        return limit == 1

    def expected_times(self, task, *, backend: str = "exact"):
        """Per-state expected rounds to first solve (``None`` = infinite)."""
        mask = self.solvable_mask(task)
        if validate_backend(backend) == "exact":
            return expected_exact(self, mask)
        return expected_float(self, mask)

    def expected_solving_time(self, task, *, backend: str = "exact"):
        """Expected rounds until the partition first solves ``task``.

        ``None`` when the task is not solved almost surely from the
        initial state (the expectation is infinite).
        """
        if backend == "exact":
            if self.limit_solving_probability(task) != 1:
                return None
        return self.expected_times(task, backend=backend)[self.start]

    def solving_time_quantile(
        self, task, q, *, t_cap: int = 512, backend: str = "exact"
    ) -> int | None:
        """Smallest ``t`` with ``Pr[S(t)] >= q`` (None if not by cap)."""
        if not 0 < float(q) <= 1:
            raise ValueError("quantile must be in (0, 1]")
        mask = self.solvable_mask(task)
        if validate_backend(backend) == "exact":
            for t in range(1, t_cap + 1):
                dist = self.cached_distribution_exact(t)
                if mass_exact(dist, mask) >= q:
                    return t
            return None
        src, dst, weight = self.coo()
        mask_array = np.asarray(mask, dtype=bool)
        dist = np.zeros(self.num_states)
        dist[self.start] = 1.0
        for t in range(1, t_cap + 1):
            nxt = np.zeros(self.num_states)
            np.add.at(nxt, dst, dist[src] * weight)
            dist = nxt
            if float(dist[mask_array].sum()) >= float(q):
                return t
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledChain(n={self.n}, k={self.k}, "
            f"states={self.num_states}, transitions={self.num_transitions})"
        )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
#: Rows (chunk states x ``2^(k-1)`` source-bit vectors) :func:`explore`
#: refines in one numpy pass.  A chunk holds at least one state; the
#: bound keeps the pass's arrays to a few hundred kilobytes.
CHUNK_ROWS = 4096

#: Bits per packed field: a node label (``< n``), the pad sentinel of a
#: missing neighbour, or a back-port class.
FIELD_BITS = 4

#: The all-ones field: the pad of a ragged neighbour table (no label
#: takes it while ``n <= PAD``; labels are node indices below ``n``) and
#: the mask of one field.
PAD = (1 << FIELD_BITS) - 1


def _source_bits(assignment, k: int) -> np.ndarray:
    """Per-node bits ``(n, 2^(k-1))`` of the enumerated source-bit
    vectors.  Bit vectors and their complements refine identically, so
    the first source's bit is fixed to 0 (halving the enumeration)."""
    vectors = np.arange(2 ** (k - 1), dtype=np.int64)
    # Source s >= 1 reads bit k-1-s; source 0 reads bit k-1, always 0.
    shifts = k - 1 - np.asarray(assignment, dtype=np.int64)
    return (vectors >> shifts[:, None]) & 1


def _signature_fields(neigh, back, n: int):
    """``(pick, base, weights)``: how states' signatures are packed.

    A chunk of states is laid out with one row per node label, one
    column per state, and an all-zero row ``n``.  Node ``i``'s fields
    are the rows ``pick[i]`` plus the constants ``base[i]``, packed
    :data:`FIELD_BITS` each by ``weights``: its own label, then (message
    passing) the label behind each port and :data:`PAD` past its degree,
    then (back ports) the class of its sender-side port tuple -- two
    nodes agree on their ``(label, port)`` pairs iff they agree on their
    neighbour labels and on that class.  Equal packed values are equal
    :func:`refinement_signature` keys.
    """
    fields = [[(node, 0)] for node in range(n)]
    if neigh is not None:
        width = max(map(len, neigh), default=0)
        for row, nbrs in zip(fields, neigh):
            row += [(nbr, 0) for nbr in nbrs]
            row += [(n, PAD)] * (width - len(nbrs))
        if back is not None:
            for row, cls in zip(fields, canonical_labels(back)):
                row.append((n, cls))
    width = len(fields[0])
    weights = np.array(
        [1 << FIELD_BITS * (width - 1 - f) for f in range(width)],
        dtype=np.int64,
    )
    pick = np.array([[r for r, _ in row] for row in fields], dtype=np.intp)
    base = np.array([[c for _, c in row] for row in fields], dtype=np.int64)
    return pick, base @ weights, weights


def _lowest_equal(rows: np.ndarray) -> np.ndarray:
    """Per column of ``rows`` ``(n, R)``, the lowest node equal to each
    node: ``(n, R)`` uint8, a canonical form of the column's partition.

    ``eq[j, i]`` marks nodes ``j`` and ``i`` equal; weighted by ``n - j``
    its maximum over ``j`` picks the lowest such ``j`` (``j = i`` always
    qualifies) in one broadcast pass, whatever ``n``.
    """
    n = rows.shape[0]
    eq = (rows[:, None, :] == rows[None, :, :]).view(np.uint8)
    eq *= np.arange(n, 0, -1, dtype=np.uint8)[:, None, None]
    return n - eq.max(axis=0)


def explore(key: ChainKey, k: int, fold=None):
    """Explore the reachable space of ``key`` once: ``(labels, out)``.

    The one exploration loop behind both the full and the quotient
    compile.  It takes the discovered states a chunk at a time (at most
    :data:`CHUNK_ROWS` rows of state x source-bit vector) and, in
    numpy, packs each state's :func:`refinement_signature` fields
    (:func:`_signature_fields`), canonicalizes ``2*sig + bit`` of every
    row by :func:`_lowest_equal` (node ``i`` -> the lowest node equal to
    it), packs that vector beside the chunk-local state index, and
    tallies the rows per state by sorting the keys.  Only distinct
    vectors are turned into restricted-growth labels, folded
    (``fold(labels) -> representative``, for the quotient) and
    interned.  States are reindexed topologically: ascending block
    count (refinement strictly increases it except for self-loops), ties
    broken by label vector, so the result does not depend on the
    discovery order; ``out[sid]`` holds sorted ``(dst, count)`` pairs.

    Raises ``ValueError`` when a signature or a tally key of ``key``
    does not fit 63 bits of :data:`FIELD_BITS`-wide fields.
    """
    assignment, neigh, back = key[:3]
    n = len(assignment)
    pick, base, sig_weights = _signature_fields(neigh, back, n)
    fields = len(sig_weights)
    per_state = 2 ** (k - 1)
    per_chunk = max(1, CHUNK_ROWS // per_state)
    label_bits = FIELD_BITS * n
    if (
        n > PAD
        or FIELD_BITS * fields + 1 > 63
        or label_bits + (per_chunk - 1).bit_length() > 63
    ):
        raise ValueError(
            f"cannot pack a chain of {n} nodes and {fields} signature "
            f"fields into 63 bits of {FIELD_BITS}-bit fields"
        )
    bits = _source_bits(assignment, k)
    label_shifts = [FIELD_BITS * (n - 1 - node) for node in range(n)]
    label_weights = np.array(
        [1 << shift for shift in label_shifts], dtype=np.int64
    )
    state_keys = np.arange(per_chunk, dtype=np.int64)[:, None] << label_bits
    label_mask = (1 << label_bits) - 1
    zero = (0,)  # the all-zero row n of :func:`_signature_fields`
    start = (0,) * n
    table = StateTable()
    table.intern(start if fold is None else fold(start))
    #: Packed refined vector -> id of its (folded) state.
    dst_of: dict[int, int] = {}
    transitions: list[dict[int, int]] = []
    # Ids are handed out in discovery order, so taking them in order is
    # a breadth-first walk that ends when no new state appears.
    while len(transitions) < len(table):
        done = len(transitions)
        chunk = range(done, min(len(table), done + per_chunk))
        labels = np.array(
            [table.labels_of(sid) + zero for sid in chunk], dtype=np.int64
        ).T
        sig = sig_weights @ labels[pick] + base[:, None]
        rows = ((sig << 1)[:, :, None] | bits[:, None, :]).reshape(n, -1)
        keys = label_weights @ _lowest_equal(rows)
        keys.reshape(len(chunk), per_state)[:] += state_keys[: len(chunk)]
        keys.sort()
        # Each run of equal keys is one (state, refined vector) tally.
        ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
        tallies: list[dict[int, int]] = [{} for _ in chunk]
        previous = -1
        for packed, end in zip(keys[ends].tolist(), ends.tolist()):
            cnt = end - previous
            previous = end
            code = packed & label_mask
            dst = dst_of.get(code)
            if dst is None:
                nxt = canonical_labels(
                    (code >> shift) & PAD for shift in label_shifts
                )
                dst = dst_of[code] = table.intern(
                    nxt if fold is None else fold(nxt)
                )
            tally = tallies[packed >> label_bits]
            tally[dst] = tally.get(dst, 0) + cnt
        transitions.extend(tallies)
    order = sorted(
        range(len(table)),
        key=lambda sid: (block_count(table.labels_of(sid)), table.labels_of(sid)),
    )
    renumber = {old: new for new, old in enumerate(order)}
    labels = tuple(table.labels_of(old) for old in order)
    out = tuple(
        tuple(
            sorted(
                (renumber[dst], cnt)
                for dst, cnt in transitions[old].items()
            )
        )
        for old in order
    )
    return labels, out


#: Process-wide memo: one compilation per structural chain, ever.
_MEMO: dict[ChainKey, CompiledChain] = {}


def clear_memo() -> None:
    """Drop all memoized compiled chains (tests, memory pressure)."""
    _MEMO.clear()


def memo_size() -> int:
    return len(_MEMO)


def memoized_chain(key: ChainKey) -> "CompiledChain | None":
    """The memoized chain for ``key``, without compiling on a miss.

    Lets callers (the sweep's bin packer) read a warm chain's true state
    count without paying for a cold compile.
    """
    return _MEMO.get(key)


def _build_chain(key: ChainKey, alpha: RandomnessConfiguration) -> CompiledChain:
    """Compile ``key`` -- full or quotient, as the key's tag says."""
    from . import quotient as quotient_backend

    if not quotient_backend.is_quotient_key(key):
        labels, out = explore(key, alpha.k)
        return CompiledChain(key, alpha.n, alpha.k, labels, out)
    chain = quotient_backend.compile_quotient(key, alpha)
    if OBS.enabled:
        OBS.metrics.inc("chain.compile.quotient")
        OBS.metrics.observe("chain.quotient.orbits", chain.num_states)
        OBS.metrics.observe("chain.quotient.full_states", chain.full_states)
        OBS.metrics.observe(
            "chain.quotient.reduction",
            chain.full_states // chain.num_states,
        )
    return chain


def compile_chain(
    alpha: RandomnessConfiguration,
    ports=None,
    *,
    include_back_ports: bool = False,
    use_memo: bool = True,
    quotient=None,
) -> CompiledChain:
    """The compiled chain of ``(alpha, ports)``, memoized process-wide.

    ``ports=None`` selects the blackboard model; a
    :class:`~repro.models.ports.PortAssignment` or
    :class:`~repro.models.graph.GraphTopology` selects message passing.

    ``quotient`` selects the symmetry-quotient backend
    (:mod:`repro.chain.quotient`): ``True``/``"on"`` folds states into
    automorphism orbits, ``False``/``"off"`` compiles the full chain,
    ``"auto"`` folds exactly when a nontrivial automorphism exists, and
    ``None`` (the default) defers to the current context's ``quotient``
    mode.  Quotient compilations carry a tagged key, so the memo keeps
    the two backends separate automatically.  Lookup order is memo, then
    compile.
    """
    if alpha.n > MAX_NODES:
        raise ValueError(
            f"exact chain supports n <= {MAX_NODES}, got {alpha.n}"
        )
    if ports is not None and ports.n != alpha.n:
        raise ValueError("port assignment size does not match alpha")
    if ports is None and include_back_ports:
        raise ValueError("back ports are meaningless on a blackboard")
    from . import quotient as quotient_backend

    key = chain_key(alpha, ports, include_back_ports=include_back_ports)
    if quotient_backend.resolve_quotient(key, quotient):
        key = quotient_backend.quotient_key(key)
    if not use_memo:
        # One-shot chains (exhaustive port enumerations) skip the memo:
        # each is queried once and never again.
        if OBS.enabled:
            OBS.metrics.inc("chain.compile.unmemoized")
            with trace("chain.compile", n=alpha.n, memo=False):
                return _build_chain(key, alpha)
        return _build_chain(key, alpha)
    hit = _MEMO.get(key)
    if hit is not None:
        if OBS.enabled:
            OBS.metrics.inc("chain.compile.hit.memo")
        return hit
    if OBS.enabled:
        OBS.metrics.inc("chain.compile.miss")
        with trace("chain.compile", n=alpha.n):
            chain = _build_chain(key, alpha)
        OBS.metrics.observe("chain.compile.states", chain.num_states)
    else:
        chain = _build_chain(key, alpha)
    _MEMO[key] = chain
    return chain


__all__ = [
    "ChainKey",
    "CompiledChain",
    "DEFAULT_DISTRIBUTION_CACHE_CAP",
    "MAX_NODES",
    "back_port_tables",
    "chain_key",
    "clear_memo",
    "compile_chain",
    "explore",
    "key_digest",
    "memo_size",
    "memoized_chain",
    "neighbour_tables",
    "refine_labels",
    "refinement_signature",
    "set_distribution_cache_cap",
]
