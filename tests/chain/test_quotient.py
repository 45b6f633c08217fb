"""Quotient compilation: orbit chains byte-identical to full chains."""

import math
import pickle

import pytest

from repro.chain import (
    Query,
    automorphism_count,
    automorphism_generators,
    chain_key,
    compile_chain,
    effective_chain_key,
    is_chain_automorphism,
    is_quotient_key,
    quotient_key,
    resolve_quotient,
    run_queries,
)
from repro.chain.engine import key_digest
from repro.chain.quotient import BlackboardFold, QuotientChain, base_key
from repro.context import ExecutionContext, current_context, use_context
from repro.randomness import (
    RandomnessConfiguration,
    bell_number,
    enumerate_size_shapes,
)
from repro.runner import spec as runner_spec


def _registry(n_max=5):
    """Every chain configuration of the registry: blackboard plus both
    deterministic port kinds, with and without back ports."""
    for n in range(1, n_max + 1):
        for shape in enumerate_size_shapes(n):
            yield shape, None, False
            if n < 2:
                continue
            for kind in ("adversarial", "round-robin"):
                ports = runner_spec.make_ports(kind, shape, 0)
                yield shape, ports, False
                yield shape, ports, True


def _tasks(n):
    tasks = [runner_spec.make_task("leader", n)]
    if n >= 2:
        tasks.append(runner_spec.make_task("k-leader:2", n))
    return tasks


class TestExactEquivalence:
    def test_registry_start_state_queries_byte_identical(self):
        """Acceptance sweep: every registry chain at n <= 5, both
        compilations, every record-path query, exact ``==``."""
        for shape, ports, back in _registry():
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            full = compile_chain(
                alpha, ports, include_back_ports=back, use_memo=False,
                quotient=False,
            )
            quot = compile_chain(
                alpha, ports, include_back_ports=back, use_memo=False,
                quotient=True,
            )
            assert isinstance(quot, QuotientChain)
            assert quot.key == quotient_key(full.key)
            assert quot.num_states <= full.num_states
            assert sum(quot.orbit_sizes) == full.num_states
            for task in _tasks(alpha.n):
                queries = [
                    Query.limit(task),
                    Query.series(task, 6),
                    Query.expected_time(task),
                ]
                want = run_queries(full, queries)
                got = run_queries(quot, queries)
                assert got == want
                # Byte-identical means exact Fractions, not mere ==.
                assert type(got[0]) is type(want[0])
                assert all(
                    type(a) is type(b) and a == b
                    for a, b in zip(got[1], want[1])
                )
                f_want = run_queries(full, queries, backend="float")
                f_got = run_queries(quot, queries, backend="float")
                assert f_got[0] == pytest.approx(f_want[0], abs=1e-12)
                assert f_got[1] == pytest.approx(f_want[1], abs=1e-12)

    def test_known_reduction_fully_symmetric_shape(self):
        """n i.i.d. singleton groups: orbits are integer partitions, so
        Bell(4) = 15 full states fold to the 5 partitions of 4."""
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
        full = compile_chain(alpha, use_memo=False, quotient=False)
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        assert full.num_states == 15
        assert quot.num_states == 5
        assert quot.group_order == math.factorial(4)
        assert quot.full_states == 15
        assert quot.reduction == 3.0

    def test_quotient_can_be_trivial_despite_symmetry(self):
        """A nontrivial group need not shrink anything: both reachable
        states of shape (2,) are fixed by the node swap."""
        alpha = RandomnessConfiguration.from_group_sizes((2,))
        full = compile_chain(alpha, use_memo=False, quotient=False)
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        assert automorphism_count(chain_key(alpha)) == 2
        assert quot.num_states == full.num_states


class TestBlackboardFoldPremises:
    """The closed-form blackboard fold rests on one fact: every state
    keeps each source group inside one block, so a state is a partition
    of the ``k`` sources."""

    def test_full_chain_states_keep_source_groups_whole(self):
        for n in range(1, 8):
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                full = compile_chain(alpha, use_memo=False, quotient=False)
                a = alpha.assignment
                for labels in full.labels:
                    blocks = {}
                    for node, label in enumerate(labels):
                        assert blocks.setdefault(a[node], label) == label, (
                            shape,
                            labels,
                        )

    def test_orbit_sizes_count_source_partitions(self):
        """The reachable states are exactly the partitions of the
        sources, and the group is the closed-form one."""
        for n in range(1, 11):
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                quot = compile_chain(alpha, use_memo=False, quotient=True)
                assert sum(quot.orbit_sizes) == bell_number(alpha.k), shape
                assert quot.group_order == automorphism_count(
                    chain_key(alpha)
                ), shape
                if shape == (1,) * 10:
                    assert quot.full_states == 115_975

    def test_split_source_group_is_rejected(self):
        fold = BlackboardFold((0, 0))
        assert fold.representative((0, 0)) == (0, 0)
        with pytest.raises(ValueError, match="splits a source group"):
            fold.representative((0, 1))
        interleaved = BlackboardFold((0, 1, 0))
        with pytest.raises(ValueError, match="splits a source group"):
            interleaved.representative((0, 0, 1))


def _closure(n, generators):
    """Brute-force group closure of a generator set (identity included)."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for g in generators:
            image = tuple(g[current[i]] for i in range(n))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


class TestGroupStructure:
    def test_generator_closure_matches_closed_form_order(self):
        for shape, ports, back in _registry(n_max=4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            key = chain_key(alpha, ports, include_back_ports=back)
            gens = automorphism_generators(key)
            assert len(_closure(alpha.n, gens)) == automorphism_count(key)

    def test_blackboard_generator_set_is_pinned(self):
        """Adjacent transpositions only: ``n - #groups`` inside the
        source groups plus ``#groups - #distinct sizes`` between
        consecutive equal-size groups; the closure is still the whole
        group, and ``"auto"`` still sees a trivial group exactly when
        no group has two nodes and no two groups have equal size."""
        from repro.chain.quotient import _blackboard_generators

        for n in range(1, 10):
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                key = chain_key(alpha)
                gens = _blackboard_generators(alpha.assignment)
                groups, sizes = len(shape), len(set(shape))
                assert len(gens) == (n - groups) + (groups - sizes)
                assert all(is_chain_automorphism(key, g) for g in gens)
                if n <= 6:
                    assert len(_closure(n, gens)) == automorphism_count(key)
                trivial = all(m == 1 for m in shape) and sizes == groups
                assert resolve_quotient(key, "auto") is not trivial
        assert len(_blackboard_generators((0,) * 9)) == 8
        singletons = RandomnessConfiguration.from_group_sizes((1,) * 9)
        assert len(_blackboard_generators(singletons.assignment)) == 8

    def test_every_generator_is_an_automorphism(self):
        for shape, ports, back in _registry(n_max=4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            key = chain_key(alpha, ports, include_back_ports=back)
            for g in automorphism_generators(key):
                assert is_chain_automorphism(key, g)

    def test_symmetry_census_perms_are_chain_automorphisms(self):
        """The quotient group contains the (source-preserving) census
        group: every permutation the analysis module certifies passes
        the chain predicate too."""
        from repro.analysis.symmetry import source_preserving_automorphisms

        for shape in enumerate_size_shapes(4):
            for kind in ("adversarial", "round-robin"):
                ports = runner_spec.make_ports(kind, shape, 0)
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                key = chain_key(alpha, ports)
                for g in source_preserving_automorphisms(ports, alpha):
                    assert is_chain_automorphism(key, g)

    def test_non_automorphism_is_rejected(self):
        # Swapping the singleton with a pair member breaks the source
        # relabeling (sources have different multiplicities).
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        key = chain_key(alpha)
        assert not is_chain_automorphism(key, (1, 0, 2))
        assert is_chain_automorphism(key, (0, 2, 1))
        assert not is_chain_automorphism(key, (0, 0, 1))  # not a perm


class TestModesAndKeys:
    def test_context_mode_is_scoped_and_validated(self):
        assert current_context().quotient == "off"
        with use_context(ExecutionContext(quotient="on")):
            assert current_context().quotient == "on"
            with use_context(ExecutionContext(quotient="auto")):
                assert current_context().quotient == "auto"
            assert current_context().quotient == "on"
        assert current_context().quotient == "off"
        with pytest.raises(ValueError):
            ExecutionContext(quotient="sometimes")

    def test_resolve_quotient_auto_needs_symmetry(self):
        symmetric = chain_key(
            RandomnessConfiguration.from_group_sizes((1, 1, 2))
        )
        trivial = chain_key(RandomnessConfiguration.from_group_sizes((1,)))
        assert not resolve_quotient(symmetric)  # mode off
        assert resolve_quotient(symmetric, True)
        assert resolve_quotient(symmetric, "auto")
        assert not resolve_quotient(trivial, "auto")
        assert resolve_quotient(trivial, "on")
        with use_context(ExecutionContext(quotient="auto")):
            assert resolve_quotient(symmetric)
            assert not resolve_quotient(trivial)
        with pytest.raises(ValueError):
            resolve_quotient(symmetric, "maybe")

    def test_quotient_keys_get_their_own_digest(self):
        key = chain_key(RandomnessConfiguration.from_group_sizes((2, 3)))
        tagged = quotient_key(key)
        assert is_quotient_key(tagged) and not is_quotient_key(key)
        assert quotient_key(tagged) == tagged
        assert base_key(tagged) == key
        assert key_digest(tagged) != key_digest(key)

    def test_effective_chain_key_matches_compile_chain(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        with use_context(ExecutionContext(quotient="auto")):
            key = effective_chain_key(alpha)
            assert is_quotient_key(key)
            assert compile_chain(alpha, use_memo=False).key == key
        assert effective_chain_key(alpha) == base_key(key)

    def test_memo_separates_the_two_compilations(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1))
        full = compile_chain(alpha, quotient=False)
        quot = compile_chain(alpha, quotient=True)
        assert full is not quot
        assert compile_chain(alpha, quotient=False) is full
        assert compile_chain(alpha, quotient=True) is quot

    def test_quotient_chain_pickle_keeps_metadata(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
        quot = compile_chain(alpha, use_memo=False, quotient=True)
        clone = pickle.loads(pickle.dumps(quot))
        assert isinstance(clone, QuotientChain)
        assert clone.key == quot.key
        assert clone.orbit_sizes == quot.orbit_sizes
        assert clone.group_order == quot.group_order
        task = runner_spec.make_task("leader", 4)
        assert clone.limit_solving_probability(
            task
        ) == quot.limit_solving_probability(task)
