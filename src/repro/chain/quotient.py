"""Symmetry-quotient compilation: orbits of states instead of states.

Exact state counts grow like the Bell number of ``n``, which is what
caps the whole stack at small ``n``.  But the consistency-partition
dynamics are *equivariant* under the structural automorphisms of the
configuration -- node permutations that preserve the source assignment
up to a relabeling of the (i.i.d.) sources and preserve the
neighbour/port tables exactly.  This module compiles the **quotient**
chain: states are automorphism orbits of label vectors, transitions are
orbit-lumped integer counts, and every start-state query (the only kind
any record path asks) is provably byte-identical to the full chain.

Exactness bridge
----------------
Let ``G`` be the group generated by :func:`automorphism_generators` and
``pi_g`` its action on label vectors (permute nodes, re-canonicalize).
For any ``g in G`` with source relabeling ``h``:

* ``refine(pi_g(s), bits b) = pi_g(refine(s, bits b o h))`` -- the
  per-node refinement keys at ``g(i)`` equal those at ``i`` after the
  bit relabeling, and canonicalization is pattern-invariant.  Summing
  over all ``2^k`` source-bit vectors (``b -> b o h`` is a bijection),
  ``count(s -> s') = count(pi_g(s) -> pi_g(s'))``; the stored *halved*
  counts (first bit fixed, complement-invariance) are half the full
  counts and therefore equally ``G``-invariant.
* Hence ``count(s -> orbit O')`` is constant over ``s`` in one orbit
  (strong lumpability), the quotient transition counts are well defined,
  and ``Pr_Q[O at t] = sum_{s in O} Pr_F[s at t]`` exactly.
* The start state (one block) is fixed by every ``g``; block-size
  multisets -- all a symmetric task mask looks at -- are orbit-constant;
  block counts (the topological levels) are orbit-constant.  So masked
  masses, absorption probabilities, and expected hitting times from the
  start state are the same ``Fraction`` values on either chain.

A :class:`QuotientChain` is a plain :class:`~repro.chain.engine
.CompiledChain` over orbit-representative label vectors (the lexicographic
minimum of each orbit), so the batch, multi and memo layers all operate
on it unchanged; its key is the structural key plus a ``"quotient"``
tag, so every digest (process memo, cross-run query memo) separates the
two compilations for free.

No orbit is ever walked and the group is never enumerated as ``n!``
permutations.  Blackboard states keep every source group inside one
block, so the group acts on them only by swapping sources of equal
size: :class:`BlackboardFold` reads the orbit off the multiset of block
profiles and builds the lexicographic-minimum representative and the
orbit size in closed form; the group's adjacent-transposition
generators (:func:`automorphism_generators`) only decide the ``"auto"``
mode.  Port structures are propagated from the image of node 0 (a
port-preserving automorphism of a connected structure is determined by
one image), giving at most ``n`` elements, and :class:`OrbitIndex` folds
over that explicit list.  Disconnected or otherwise undetermined
structures degrade to the trivial group -- the quotient is simply not
taken.
"""

from __future__ import annotations

import math
from collections import Counter

from ..context import QUOTIENT_MODES, current_context
from ..randomness.configuration import RandomnessConfiguration
from .engine import ChainKey, CompiledChain, explore
from .interning import LabelVector, canonical_labels

#: The key tag distinguishing a quotient compilation from the full one.
QUOTIENT_TAG = "quotient"


# ----------------------------------------------------------------------
# Keys and mode resolution
# ----------------------------------------------------------------------
def is_quotient_key(key: ChainKey) -> bool:
    """Whether ``key`` names a quotient compilation."""
    return len(key) == 4 and key[3] == QUOTIENT_TAG


def quotient_key(key: ChainKey) -> ChainKey:
    """The quotient-tagged key of a structural chain key (idempotent)."""
    if is_quotient_key(key):
        return key
    return (*key, QUOTIENT_TAG)


def base_key(key: ChainKey) -> ChainKey:
    """The plain structural key, with any quotient tag stripped."""
    return key[:3] if is_quotient_key(key) else key


def resolve_quotient(key: ChainKey, quotient=None) -> bool:
    """Decide whether ``key`` should compile as a quotient chain.

    ``quotient`` overrides the context's mode per call: ``True``/``"on"``
    forces the quotient, ``False``/``"off"`` the full chain, ``"auto"``
    takes it when a nontrivial automorphism exists, and ``None`` (the
    default) defers to the current context's mode
    (:class:`~repro.context.ExecutionContext`).
    """
    if quotient is None:
        mode = current_context().quotient
    elif quotient is True:
        mode = "on"
    elif quotient is False:
        mode = "off"
    elif quotient in QUOTIENT_MODES:
        mode = quotient
    else:
        raise ValueError(f"unknown quotient mode {quotient!r}")
    if mode == "off":
        return False
    if mode == "auto" and not automorphism_generators(key):
        return False
    return True


def effective_chain_key(
    alpha: RandomnessConfiguration,
    ports=None,
    *,
    include_back_ports: bool = False,
    quotient=None,
) -> ChainKey:
    """The key :func:`~repro.chain.engine.compile_chain` would use.

    Computable without compiling anything (the automorphism check for
    ``"auto"`` needs only the structural tables), so memo-consulting
    callers -- the runner's query-memo digests, the sweep's bin packer
    -- always agree with what ``compile_chain`` will key its result
    under.
    """
    from .engine import chain_key

    key = chain_key(alpha, ports, include_back_ports=include_back_ports)
    return quotient_key(key) if resolve_quotient(key, quotient) else key


# ----------------------------------------------------------------------
# The automorphism group (generators, membership, order)
# ----------------------------------------------------------------------
def _is_source_relabeling(assignment, g) -> bool:
    """Is there a source bijection ``h`` with ``assignment[g[i]] ==
    h(assignment[i])`` for every node?  Sources are i.i.d., so relabeling
    them is distribution-preserving."""
    h: dict[int, int] = {}
    used: set[int] = set()
    for i, gi in enumerate(g):
        source, image = assignment[i], assignment[gi]
        known = h.get(source)
        if known is None:
            if image in used:
                return False
            h[source] = image
            used.add(image)
        elif known != image:
            return False
    return True


def is_chain_automorphism(key: ChainKey, perm) -> bool:
    """Does the node permutation ``perm`` preserve the chain structure?

    Requires the source assignment preserved up to a source relabeling,
    the neighbour tables preserved port-for-port, and (when present) the
    back-port tables preserved element-wise.  Strictly weaker than
    :func:`repro.analysis.symmetry.source_preserving_automorphisms`,
    which demands the identity source relabeling -- every automorphism
    that function yields passes this predicate.
    """
    assignment, neigh, back = base_key(key)
    n = len(assignment)
    g = tuple(perm)
    if sorted(g) != list(range(n)):
        return False
    if not _is_source_relabeling(assignment, g):
        return False
    if neigh is not None:
        for i in range(n):
            row, image = neigh[i], neigh[g[i]]
            if len(row) != len(image):
                return False
            if any(g[j] != image[p] for p, j in enumerate(row)):
                return False
        if back is not None and any(back[g[i]] != back[i] for i in range(n)):
            return False
    return True


def _blackboard_generators(assignment) -> tuple[tuple[int, ...], ...]:
    """Adjacent-transposition generators of the full blackboard group.

    The group is the wreath product of any permutation within a source
    group and any swap of equal-size groups.  Adjacent transpositions
    inside each group generate the first factor; swapping each group
    with the *next* group of the same size generates the second.  That
    is ``(n - #groups) + (#groups - #distinct sizes)`` generators -- 8
    for the ``(1^9)`` shape instead of one swap per pair of groups.
    """
    n = len(assignment)
    groups: dict[int, list[int]] = {}
    for node, source in enumerate(assignment):
        groups.setdefault(source, []).append(node)
    identity = list(range(n))
    gens: list[tuple[int, ...]] = []
    last_of_size: dict[int, list[int]] = {}
    for nodes in groups.values():
        for a, b in zip(nodes, nodes[1:]):
            g = identity.copy()
            g[a], g[b] = b, a
            gens.append(tuple(g))
        previous = last_of_size.get(len(nodes))
        if previous is not None:
            g = identity.copy()
            for a, b in zip(previous, nodes):
                g[a], g[b] = b, a
            gens.append(tuple(g))
        last_of_size[len(nodes)] = nodes
    return tuple(gens)


def _port_automorphisms(assignment, neigh, back) -> list[tuple[int, ...]]:
    """Every structural automorphism of a port structure, identity included.

    A port-preserving map satisfies ``g(neigh[i][p]) = neigh[g(i)][p]``,
    so on a connected structure ``g`` is determined by ``g(0)``:
    propagate the image along ports and check consistency -- at most
    ``n`` candidates, each checked in ``O(n * degree)``.  Structures the
    propagation cannot cover (disconnected graphs) yield no
    automorphisms at all, degrading the quotient to the full chain.
    """
    n = len(assignment)
    lengths = tuple(len(row) for row in neigh)
    autos: list[tuple[int, ...]] = []
    for target in range(n):
        if lengths[target] != lengths[0]:
            continue
        g = [-1] * n
        g[0] = target
        stack = [0]
        visited = 1
        ok = True
        while stack and ok:
            i = stack.pop()
            gi = g[i]
            if lengths[gi] != lengths[i]:
                ok = False
                break
            for j, gj in zip(neigh[i], neigh[gi]):
                if g[j] < 0:
                    g[j] = gj
                    visited += 1
                    stack.append(j)
                elif g[j] != gj:
                    ok = False
                    break
        if not ok or visited < n or len(set(g)) != n:
            continue
        g = tuple(g)
        if not _is_source_relabeling(assignment, g):
            continue
        if back is not None and any(back[g[i]] != back[i] for i in range(n)):
            continue
        autos.append(g)
    return autos


#: Generator sets by structural key; bounded (cleared wholesale at the
#: cap) so exhaustive port enumerations cannot grow it without limit.
_GEN_CACHE: dict[ChainKey, tuple] = {}
_GEN_CACHE_CAP = 4096


def automorphism_generators(key: ChainKey) -> tuple[tuple[int, ...], ...]:
    """A generating set (identity excluded) of the chain's automorphisms.

    Empty exactly when the group is trivial -- the ``"auto"`` mode's
    take-the-quotient test.  Accepts plain or quotient-tagged keys.
    """
    key = base_key(key)
    cached = _GEN_CACHE.get(key)
    if cached is not None:
        return cached
    assignment, neigh, back = key
    if neigh is None:
        gens = _blackboard_generators(assignment)
    else:
        identity = tuple(range(len(assignment)))
        gens = tuple(
            g
            for g in _port_automorphisms(assignment, neigh, back)
            if g != identity
        )
    if len(_GEN_CACHE) >= _GEN_CACHE_CAP:
        _GEN_CACHE.clear()
    _GEN_CACHE[key] = gens
    return gens


def automorphism_count(key: ChainKey) -> int:
    """The order of the chain's automorphism group.

    Exact and cheap in both regimes: port structures have at most ``n``
    automorphisms (counted directly), and the blackboard group order is
    the closed form ``prod m_s! * prod (#groups of each size)!``.  Used
    by the sweep's state-budget estimator to shrink the Bell-number
    proxy for not-yet-compiled quotient chains.
    """
    assignment, neigh, _ = base_key(key)
    if neigh is not None:
        return 1 + len(automorphism_generators(key))
    sizes: dict[int, int] = {}
    for source in assignment:
        sizes[source] = sizes.get(source, 0) + 1
    order = 1
    multiplicity: dict[int, int] = {}
    for size in sizes.values():
        order *= math.factorial(size)
        multiplicity[size] = multiplicity.get(size, 0) + 1
    for count in multiplicity.values():
        order *= math.factorial(count)
    return order


# ----------------------------------------------------------------------
# Orbits
# ----------------------------------------------------------------------
def _apply_permutation(labels: LabelVector, g) -> LabelVector:
    """The action of node permutation ``g`` on a label vector: node
    ``g[i]`` takes node ``i``'s block, then re-canonicalize."""
    raw = [0] * len(labels)
    for i, label in enumerate(labels):
        raw[g[i]] = label
    return canonical_labels(raw)


class OrbitIndex:
    """Lazy full-state to orbit-representative map over an explicit group.

    ``group`` lists every element (identity included) -- the port case,
    at most ``n`` elements.  An orbit is the set of a vector's images,
    its representative the lexicographic minimum, found in
    ``O(|G| * n)`` with no walk; every image is cached, so each orbit is
    computed once per compilation.
    """

    __slots__ = ("group", "_reps", "orbit_sizes")

    def __init__(self, group):
        self.group = tuple(group)
        self._reps: dict[LabelVector, LabelVector] = {}
        #: Representative label vector -> orbit cardinality.
        self.orbit_sizes: dict[LabelVector, int] = {}

    def representative(self, labels: LabelVector) -> LabelVector:
        rep = self._reps.get(labels)
        if rep is not None:
            return rep
        orbit = {_apply_permutation(labels, g) for g in self.group}
        rep = min(orbit)
        for member in orbit:
            self._reps[member] = rep
        self.orbit_sizes[rep] = len(orbit)
        return rep


class BlackboardFold:
    """Closed-form orbit representatives of blackboard states.

    Every node of one source draws the same bit (Eq. 1), so every
    reachable state keeps each source group inside one block: a state is
    a partition of the ``k`` sources, and the group acts on it only by
    swapping sources of equal size.  Two states share an orbit exactly
    when they have the same multiset of block *profiles* (a block's
    profile counts its sources of each size), which is computed in
    ``O(n)`` per new vector -- no orbit is ever walked.

    A label vector is determined by the labels of the *slots* (the
    sources, in order of their first node), and comparing two vectors
    of one orbit node by node compares their slot labels in slot order.
    So the lexicographic minimum is found per invariant by
    :meth:`_minimum`, and its orbit size is ``prod_c N_c! / (prod_B
    prod_c n_{B,c}! * prod_profiles mult!)`` -- the order of the source
    group over the order of the state's stabilizer.
    """

    __slots__ = (
        "_followers",
        "_slots",
        "_slot_of",
        "_classes",
        "_numerator",
        "_reps",
        "_by_invariant",
        "orbit_sizes",
    )

    def __init__(self, assignment):
        first: dict[int, int] = {}
        sizes: dict[int, int] = {}
        for node, source in enumerate(assignment):
            first.setdefault(source, node)
            sizes[source] = sizes.get(source, 0) + 1
        order = {size: c for c, size in enumerate(sorted(set(sizes.values())))}
        anchor = [first[source] for source in assignment]
        #: ``(node, its source's first node)`` for every other node.
        self._followers = tuple(
            (node, a) for node, a in enumerate(anchor) if node != a
        )
        slots = sorted(first.values())
        slot_index = {node: j for j, node in enumerate(slots)}
        self._slot_of = tuple(slot_index[a] for a in anchor)
        #: ``(first node, size class)`` per slot.
        self._slots = tuple(
            (node, order[sizes[assignment[node]]]) for node in slots
        )
        self._classes = len(order)
        per_class = Counter(sizes.values())
        self._numerator = math.prod(map(math.factorial, per_class.values()))
        self._reps: dict[LabelVector, LabelVector] = {}
        self._by_invariant: dict[tuple, tuple[LabelVector, int]] = {}
        #: Representative label vector -> orbit cardinality.
        self.orbit_sizes: dict[LabelVector, int] = {}

    def representative(self, labels: LabelVector) -> LabelVector:
        rep = self._reps.get(labels)
        if rep is not None:
            return rep
        if any(labels[node] != labels[a] for node, a in self._followers):
            raise ValueError(
                f"blackboard state {labels} splits a source group"
            )
        profiles = [[0] * self._classes for _ in range(max(labels) + 1)]
        for node, c in self._slots:
            profiles[labels[node]][c] += 1
        invariant = tuple(sorted(map(tuple, profiles)))
        found = self._by_invariant.get(invariant)
        if found is None:
            found = self._by_invariant[invariant] = (
                self._minimum(invariant),
                self._orbit_size(invariant),
            )
        rep, size = found
        self._reps[labels] = rep
        self.orbit_sizes[rep] = size
        return rep

    def _minimum(self, invariant) -> LabelVector:
        """The lexicographic-minimum label vector with this invariant.

        Slot by slot, a slot takes the smallest label already given to a
        block that still has a source of its size class; failing that,
        a fresh label, whose block may get any unlabeled profile with
        such a source.  Candidates (remaining counts of the labeled
        blocks, unlabeled profiles) all share the prefix, so a fresh
        label loses to any existing one and only distinct profiles
        branch.
        """
        candidates = {((), invariant)}
        slot_labels = []
        for _, c in self._slots:
            best = None
            kept: set = set()
            for opened, unopened in candidates:
                label = next(
                    (b for b, remaining in enumerate(opened) if remaining[c]),
                    len(opened),
                )
                if best is not None and label > best:
                    continue
                if best is None or label < best:
                    best, kept = label, set()
                if label < len(opened):
                    kept.add((_take(opened, label, c), unopened))
                    continue
                for profile in set(unopened):
                    if profile[c]:
                        rest = list(unopened)
                        rest.remove(profile)
                        kept.add(
                            (_take((*opened, profile), label, c), tuple(rest))
                        )
            slot_labels.append(best)
            candidates = kept
        return tuple(slot_labels[j] for j in self._slot_of)

    def _orbit_size(self, invariant) -> int:
        denominator = 1
        for profile in invariant:
            for count in profile:
                denominator *= math.factorial(count)
        for profile in set(invariant):
            denominator *= math.factorial(invariant.count(profile))
        return self._numerator // denominator


def _take(opened, label, c):
    """``opened`` with one class-``c`` source used up in block ``label``."""
    remaining = list(opened[label])
    remaining[c] -= 1
    return (*opened[:label], tuple(remaining), *opened[label + 1 :])


# ----------------------------------------------------------------------
# The quotient chain
# ----------------------------------------------------------------------
class QuotientChain(CompiledChain):
    """A compiled chain whose states are automorphism orbits.

    Functionally indistinguishable from a plain
    :class:`~repro.chain.engine.CompiledChain` -- the labels are the
    orbit-representative vectors, counts stay integers out of ``denom``
    -- so every downstream layer works unchanged.  Extra (advisory)
    metadata: per-state orbit sizes and the folding group's order.
    """

    def __init__(
        self,
        key: ChainKey,
        n: int,
        k: int,
        labels,
        out,
        *,
        orbit_sizes=None,
        group_order: int = 1,
    ):
        super().__init__(key, n, k, labels, out)
        #: Orbit cardinalities aligned with state ids (``None`` when the
        #: chain was rebuilt without them, e.g. from a legacy pickle).
        self.orbit_sizes = tuple(orbit_sizes) if orbit_sizes else None
        self.group_order = int(group_order)

    @property
    def full_states(self) -> int:
        """Reachable state count of the full (unquotiented) chain.

        The reachable set is ``G``-closed (the start state is fixed), so
        the orbit sizes of the reachable representatives sum to exactly
        the full chain's state count -- no full compilation needed.
        """
        if self.orbit_sizes is None:
            return self.num_states
        return int(sum(self.orbit_sizes))

    @property
    def reduction(self) -> float:
        """State-count reduction factor versus the full chain."""
        return self.full_states / self.num_states

    def __getstate__(self):
        state = super().__getstate__()
        state["orbit_sizes"] = self.orbit_sizes
        state["group_order"] = self.group_order
        return state

    def __setstate__(self, state):
        CompiledChain.__init__(
            self,
            state["key"],
            state["n"],
            state["k"],
            state["labels"],
            state["_out"],
        )
        sizes = state.get("orbit_sizes")
        self.orbit_sizes = tuple(sizes) if sizes else None
        self.group_order = int(state.get("group_order", 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuotientChain(n={self.n}, k={self.k}, "
            f"orbits={self.num_states}, full_states={self.full_states}, "
            f"transitions={self.num_transitions})"
        )


def compile_quotient(
    key: ChainKey, alpha: RandomnessConfiguration
) -> QuotientChain:
    """Compile the quotient chain for ``key`` (uncached; the memo and
    cache flow live in :func:`~repro.chain.engine.compile_chain`).

    The same exploration loop as the full compile
    (:func:`~repro.chain.engine.explore`), except every distinct refined
    label vector is folded to its orbit representative before interning
    -- so only representatives are ever expanded (``orbits * 2^(k-1)``
    refinements instead of ``states * 2^(k-1)``) and the transition
    counts lump whole orbits.  Port structures fold over their explicit
    automorphism list (:class:`OrbitIndex`); blackboard configurations
    fold in closed form (:class:`BlackboardFold`).
    """
    key = quotient_key(key)
    if base_key(key)[1] is None:
        orbits = BlackboardFold(alpha.assignment)
    else:
        orbits = OrbitIndex(
            (tuple(range(alpha.n)), *automorphism_generators(key))
        )
    labels, out = explore(key, alpha.k, orbits.representative)
    return QuotientChain(
        key,
        alpha.n,
        alpha.k,
        labels,
        out,
        orbit_sizes=tuple(orbits.orbit_sizes[v] for v in labels),
        group_order=automorphism_count(key),
    )


__all__ = [
    "BlackboardFold",
    "OrbitIndex",
    "QUOTIENT_MODES",
    "QUOTIENT_TAG",
    "QuotientChain",
    "automorphism_count",
    "automorphism_generators",
    "base_key",
    "compile_quotient",
    "effective_chain_key",
    "is_chain_automorphism",
    "is_quotient_key",
    "quotient_key",
    "resolve_quotient",
]
