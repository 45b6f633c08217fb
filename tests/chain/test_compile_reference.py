"""The compile loop against a literal per-bit-vector reference.

The reference below is the straightforward exploration: for every state
and every source-bit vector it builds each node's full refinement key as
a tuple (old label, bit, neighbour labels, back ports), numbers the keys
by first appearance, and -- for quotient chains -- folds the result to
the lexicographic minimum of its orbit by walking the closure of an
all-pairs generator set (or, for the fully symmetric ``(1^n)``
shapes, by the closed form of an ``S_n`` orbit).  It shares no
refinement or folding code with :mod:`repro.chain`, so identical
``labels``, ``out_table()``, ``orbit_sizes`` and ``group_order`` pin the
chunked numpy loop (its packed signatures, pad and back-port fields
included), the explicit-group port fold and the closed-form blackboard
fold to the semantics of Eqs. 1/2.
"""

import itertools
import math

import pytest

from repro.chain import chain_key, compile_chain, quotient_key
from repro.chain.engine import _build_chain, explore
from repro.chain.quotient import _port_automorphisms
from repro.models.graph import GraphTopology
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec


def _reference_refine(labels, node_bits, neigh, back):
    n = len(labels)
    if neigh is None:
        keys = [(labels[i], node_bits[i]) for i in range(n)]
    elif back is None:
        keys = [
            (labels[i], node_bits[i], tuple(labels[j] for j in neigh[i]))
            for i in range(n)
        ]
    else:
        keys = [
            (
                labels[i],
                node_bits[i],
                tuple((labels[j], p) for j, p in zip(neigh[i], back[i])),
            )
            for i in range(n)
        ]
    first: dict = {}
    return tuple(first.setdefault(key, len(first)) for key in keys)


def _reference_group(key):
    """All-pairs generators (blackboard) or every port automorphism."""
    assignment, neigh, back = key[:3]
    n = len(assignment)
    if neigh is not None:
        return _port_automorphisms(assignment, neigh, back)
    groups: dict[int, list[int]] = {}
    for node, source in enumerate(assignment):
        groups.setdefault(source, []).append(node)
    members = list(groups.values())
    gens = []
    for nodes in members:
        for a, b in itertools.combinations(nodes, 2):
            g = list(range(n))
            g[a], g[b] = b, a
            gens.append(tuple(g))
    for x, y in itertools.combinations(members, 2):
        if len(x) == len(y):
            g = list(range(n))
            for a, b in zip(x, y):
                g[a], g[b] = b, a
            gens.append(tuple(g))
    return gens


def _reference_order(key):
    assignment, neigh, back = key[:3]
    if neigh is not None:
        return max(1, len(_port_automorphisms(assignment, neigh, back)))
    sizes = [assignment.count(s) for s in sorted(set(assignment))]
    order = math.prod(math.factorial(m) for m in sizes)
    for size in set(sizes):
        order *= math.factorial(sizes.count(size))
    return order


def _permute(labels, g):
    raw = [0] * len(labels)
    for i, label in enumerate(labels):
        raw[g[i]] = label
    first: dict = {}
    return tuple(first.setdefault(x, len(first)) for x in raw)


def _closure_fold(key):
    """Fold to the orbit minimum by walking the generator closure."""
    gens = _reference_group(key)
    known: dict = {}

    def fold(labels):
        if labels not in known:
            orbit, stack = {labels}, [labels]
            while stack:
                current = stack.pop()
                for g in gens:
                    image = _permute(current, g)
                    if image not in orbit:
                        orbit.add(image)
                        stack.append(image)
            known.update(dict.fromkeys(orbit, (min(orbit), len(orbit))))
        return known[labels]

    return fold


def _symmetric_fold(labels):
    """Closed-form fold when every node is its own source (the group is
    all of S_n): an orbit is a block-size multiset, its minimum lays the
    blocks out largest first, and its size is the multinomial count."""
    n = len(labels)
    sizes = sorted((labels.count(b) for b in set(labels)), reverse=True)
    rep = tuple(b for b, size in enumerate(sizes) for _ in range(size))
    count = math.factorial(n)
    for size in set(sizes):
        count //= math.factorial(size) ** sizes.count(size)
        count //= math.factorial(sizes.count(size))
    return rep, count


def _reference_compile(key, k, fold=None):
    """``(labels, out, orbit_sizes)`` by the literal per-vector loop;
    ``fold(labels) -> (representative, orbit size)`` for quotients."""
    assignment, neigh, back = key[:3]
    n = len(assignment)
    sizes: dict = {}

    def representative(labels):
        if fold is None:
            return labels
        rep, size = fold(labels)
        sizes[rep] = size
        return rep

    start = representative((0,) * n)
    seen = {start: {}}
    frontier = [start]
    while frontier:
        labels = frontier.pop()
        counts = seen[labels]
        for rest in itertools.product((0, 1), repeat=k - 1):
            bits = (0, *rest)
            node_bits = tuple(bits[assignment[i]] for i in range(n))
            nxt = representative(
                _reference_refine(labels, node_bits, neigh, back)
            )
            if nxt not in seen:
                seen[nxt] = {}
                frontier.append(nxt)
            counts[nxt] = counts.get(nxt, 0) + 1
    order = sorted(seen, key=lambda v: (max(v) + 1, v))
    index = {v: i for i, v in enumerate(order)}
    out = tuple(
        tuple(sorted((index[dst], c) for dst, c in seen[v].items()))
        for v in order
    )
    orbit_sizes = tuple(sizes[v] for v in order) if fold else None
    return tuple(order), out, orbit_sizes


def _assert_matches_reference(alpha, key, *, full=True):
    for quotient in (False, True) if full else (True,):
        compiled_key = quotient_key(key) if quotient else key
        chain = _build_chain(compiled_key, alpha)
        labels, out, orbit_sizes = _reference_compile(
            key, alpha.k, _closure_fold(key) if quotient else None
        )
        assert chain.labels == labels, compiled_key
        assert chain.out_table() == out, compiled_key
        if quotient:
            assert chain.orbit_sizes == orbit_sizes, compiled_key
            assert chain.group_order == _reference_order(key), compiled_key


def _port_families(shape):
    yield runner_spec.make_ports("adversarial", shape, 0)
    yield runner_spec.make_ports("round-robin", shape, 0)
    for seed in (1, 2):
        yield runner_spec.make_ports("random", shape, seed)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_shape_matches_reference(n):
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        _assert_matches_reference(alpha, chain_key(alpha))
        if n < 2:
            continue
        for ports in _port_families(shape):
            for back in (False, True):
                key = chain_key(alpha, ports, include_back_ports=back)
                _assert_matches_reference(alpha, key)


def test_graph_topologies_match_reference():
    for n in range(3, 7):
        for topology in (
            GraphTopology.ring(n),
            GraphTopology.path(n),
            GraphTopology.star(n),
        ):
            for shape in ((n,), (1,) * n, (2, n - 2)):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                for back in (False, True):
                    key = chain_key(alpha, topology, include_back_ports=back)
                    _assert_matches_reference(alpha, key)


def test_disconnected_structure_matches_reference():
    """Two disjoint edges: the port group degrades to the identity."""
    alpha = RandomnessConfiguration.from_group_sizes((2, 2))
    neigh = ((1,), (0,), (3,), (2,))
    for back in (None, ((0,),) * 4):
        _assert_matches_reference(alpha, (alpha.assignment, neigh, back))


@pytest.mark.parametrize("n", [8, 9])
def test_large_blackboard_shapes_match_reference(n):
    """The closed-form blackboard fold against the closure walk on every
    n = 8, 9 shape whose walk stays cheap: all but ``(1^n)``, which the
    symmetric closed form below covers.  Quotient side only: the full
    reference loop at n = 9 costs seconds and shares nothing with the
    fold."""
    for shape in enumerate_size_shapes(n):
        if shape == (1,) * n:
            continue
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        _assert_matches_reference(alpha, chain_key(alpha), full=False)


@pytest.mark.parametrize(
    "assignment",
    [
        (0, 1, 0),
        (1, 0, 0, 2, 2, 1),
        (0, 1, 2, 0, 1, 2, 3),
        (2, 2, 0, 1, 1, 0, 3, 3),
        (0, 1, 1, 2, 2, 2, 0, 0, 3),
    ],
)
def test_interleaved_assignments_match_reference(assignment):
    """Source groups that are neither sorted by size nor contiguous pin
    the first-node slot order of the blackboard fold."""
    alpha = RandomnessConfiguration(assignment)
    _assert_matches_reference(alpha, chain_key(alpha))


@pytest.mark.parametrize("shape", [(1,) * 8, (1,) * 9, (1,) * 10])
def test_large_blackboard_quotients_match_reference(shape):
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    key = chain_key(alpha)
    chain = compile_chain(alpha, use_memo=False, quotient=True)
    labels, out, orbit_sizes = _reference_compile(
        key, alpha.k, _symmetric_fold
    )
    assert chain.labels == labels
    assert chain.out_table() == out
    assert chain.orbit_sizes == orbit_sizes
    assert chain.group_order == _reference_order(key)


def test_n9_random_port_chain_matches_reference():
    alpha = RandomnessConfiguration.from_group_sizes((2, 3, 4))
    ports = runner_spec.make_ports("random", (2, 3, 4), 1)
    key = chain_key(alpha, ports)
    chain = compile_chain(alpha, ports, use_memo=False, quotient=False)
    labels, out, _ = _reference_compile(key, alpha.k)
    assert chain.labels == labels
    assert chain.out_table() == out


@pytest.mark.parametrize("shape", [(1, 2, 3, 4), (1,) * 10])
def test_n10_back_port_chain_matches_reference(shape):
    """The widest packed signature: n = 10 clique ports give nine
    neighbour fields, and random back ports make every node's port tuple
    its own class, so the back-class field reaches 9 as the labels do."""
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = runner_spec.make_ports("random", shape, 1)
    key = chain_key(alpha, ports, include_back_ports=True)
    assert len(set(key[2])) == 10
    _assert_matches_reference(alpha, key)
    chain = compile_chain(
        alpha, ports, include_back_ports=True, use_memo=False, quotient=False
    )
    assert max(max(labels) for labels in chain.labels) == 9


@pytest.mark.parametrize("back", [False, True])
@pytest.mark.parametrize("topology", ["star", "path"])
def test_ragged_degrees_at_n8_match_reference(topology, back):
    """Ragged degrees pad the neighbour fields with a sentinel no label
    takes: a star's leaves carry six pad fields beside the hub's seven
    labels, a path's ends one beside its inner nodes' two."""
    n = 8
    graph = getattr(GraphTopology, topology)(n)
    for shape in ((n,), (1,) * n, (2, n - 2), (2, 3, 3)):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        key = chain_key(alpha, graph, include_back_ports=back)
        _assert_matches_reference(alpha, key)


def _clique(n):
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


@pytest.mark.parametrize(
    "key, k",
    [
        # 16 labels leave no 4-bit value free for the pad.
        (((0,) * 16, None, None), 1),
        # Own label, 14 neighbours and the back class: 16 fields.
        (((0,) * 15, _clique(15), ((0,) * 14,) * 15), 1),
        # 15 labels (60 bits) beside a 4096-state chunk index.
        (((0,) * 15, None, None), 1),
    ],
    ids=["labels", "signature", "tally"],
)
def test_explore_refuses_what_63_bits_cannot_pack(key, k):
    """Past ``MAX_NODES`` the packed keys would collide; ``explore``
    must refuse instead of compiling a wrong chain."""
    with pytest.raises(ValueError, match="63 bits"):
        explore(key, k)
