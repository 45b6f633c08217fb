"""Multi-chain groups: stacked results vs per-chain and vs the scalar
oracle, chunk planning, structure."""

import numpy as np
import pytest

from repro.chain import (
    MAX_GROUP_STATES,
    ChainGroup,
    MultiQueryPlan,
    Query,
    compile_chain,
    evolution_strategy,
    plan_chunks,
    run_group_queries,
    run_queries,
)
from repro.chain import multi as multi_module
from repro.core import (
    k_leader_election,
    leader_election,
    weak_symmetry_breaking,
)
from repro.models import adversarial_assignment, round_robin_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

#: Every size shape with 2..5 processes: one grouped-vs-oracle case each.
ORACLE_SHAPES = [
    shape for n in (2, 3, 4, 5) for shape in enumerate_size_shapes(n)
]


def _mixed_shape_items():
    """A mixed-shape sweep axis: several totals, both models, all
    quantities -- the access pattern the group engine exists for."""
    items = []
    for n in (3, 4, 5):
        tasks = (leader_election(n), k_leader_election(n, 2))
        for shape in enumerate_size_shapes(n):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            for ports in (None, adversarial_assignment(shape)):
                queries = []
                for task in tasks:
                    queries.append(Query.probability(task, 3))
                    queries.append(Query.series(task, 6))
                    queries.append(Query.limit(task))
                    queries.append(Query.expected_time(task))
                    queries.append(Query.solvable(task))
                queries.append(
                    Query.expected_time(weak_symmetry_breaking(n))
                )
                items.append((compile_chain(alpha, ports), queries))
    return items


def _per_chain(items, backend):
    return [
        run_queries(chain, queries, backend=backend)
        for chain, queries in items
    ]


def _scalar_answer(chain, query, backend):
    """One query through the scalar ``CompiledChain`` method (the oracle)."""
    if query.quantity == "probability":
        return chain.solving_probability(
            query.task, query.horizon, backend=backend
        )
    if query.quantity == "series":
        return chain.solving_probability_series(
            query.task, query.horizon, backend=backend
        )
    if query.quantity == "limit":
        return chain.limit_solving_probability(query.task, backend=backend)
    if query.quantity == "expected":
        return chain.expected_solving_time(query.task, backend=backend)
    return chain.eventually_solvable(query.task)


def _oracle_items(shape):
    """One shape under every port model, every quantity: one group."""
    n = sum(shape)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    queries = []
    for task in (leader_election(n), weak_symmetry_breaking(n)):
        queries += [
            Query.probability(task, 2),
            Query.series(task, 5),
            Query.limit(task),
            Query.expected_time(task),
            Query.solvable(task),
        ]
    return [
        (compile_chain(alpha, ports), queries)
        for ports in (
            None,
            adversarial_assignment(shape),
            round_robin_assignment(n),
        )
    ]


class TestGroupedResults:
    def test_exact_byte_identical_to_per_chain(self):
        items = _mixed_shape_items()
        grouped = run_group_queries(items, backend="exact")
        per_chain = _per_chain(items, "exact")
        assert grouped == per_chain
        # Same types too (Fractions stay Fractions, bools stay bools).
        for got_row, want_row in zip(grouped, per_chain):
            for got, want in zip(got_row, want_row):
                inner_got = got if isinstance(got, list) else [got]
                inner_want = want if isinstance(want, list) else [want]
                assert (
                    [type(x) for x in inner_got]
                    == [type(x) for x in inner_want]
                )

    def test_float_within_1e12_of_per_chain(self):
        items = _mixed_shape_items()
        grouped = run_group_queries(items, backend="float")
        per_chain = _per_chain(items, "float")
        for got_row, want_row in zip(grouped, per_chain):
            for got, want in zip(got_row, want_row):
                inner_got = got if isinstance(got, list) else [got]
                inner_want = want if isinstance(want, list) else [want]
                for g, w in zip(inner_got, inner_want):
                    if g is None or w is None or isinstance(g, bool):
                        assert g == w
                    else:
                        assert abs(g - w) < 1e-12

    def test_singleton_group_degenerates_to_the_per_chain_plan(self):
        items = _mixed_shape_items()[:1]
        for backend in ("exact", "float"):
            single = run_group_queries(items, backend=backend)
            per_chain = _per_chain(items, backend)
            if backend == "exact":
                assert single == per_chain
            else:
                for g, w in zip(single[0], per_chain[0]):
                    ig = g if isinstance(g, list) else [g]
                    iw = w if isinstance(w, list) else [w]
                    for a, b in zip(ig, iw):
                        if a is None or isinstance(a, bool):
                            assert a == b
                        else:
                            assert abs(a - b) < 1e-12

    def test_repeated_chain_across_items_is_stacked_once(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        chain = compile_chain(alpha)
        task = leader_election(5)
        items = [
            (chain, [Query.limit(task)]),
            (chain, [Query.series(task, 4)]),
        ]
        grouped = run_group_queries(items)
        assert grouped == _per_chain(items, "exact")

    def test_empty_items_and_empty_queries(self):
        assert run_group_queries([]) == []
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        assert run_group_queries([(compile_chain(alpha), [])]) == [[]]


class TestGroupedAgainstScalarOracle:
    """The grouped path against the scalar per-query methods.

    The per-chain comparison above checks the group layer against plans
    it executes itself; these cases pin it to an independent reference,
    one size shape (under every port model) at a time.
    """

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_exact_byte_identical_to_scalar(self, shape):
        items = _oracle_items(shape)
        grouped = run_group_queries(items, backend="exact")
        for (chain, queries), row in zip(items, grouped):
            oracle = [_scalar_answer(chain, q, "exact") for q in queries]
            assert row == oracle
            for got, want in zip(row, oracle):
                inner_got = got if isinstance(got, list) else [got]
                inner_want = want if isinstance(want, list) else [want]
                assert (
                    [type(x) for x in inner_got]
                    == [type(x) for x in inner_want]
                )

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_float_within_1e12_of_scalar(self, shape):
        items = _oracle_items(shape)
        grouped = run_group_queries(items, backend="float")
        for (chain, queries), row in zip(items, grouped):
            for query, got in zip(queries, row):
                want = _scalar_answer(chain, query, "float")
                inner_got = got if isinstance(got, list) else [got]
                inner_want = want if isinstance(want, list) else [want]
                assert len(inner_got) == len(inner_want)
                for g, w in zip(inner_got, inner_want):
                    if g is None or w is None or isinstance(g, bool):
                        assert g == w
                    else:
                        assert abs(g - w) < 1e-12


class TestPlanChunks:
    @pytest.mark.parametrize("budget", [1, 16, 64, 256, MAX_GROUP_STATES])
    def test_greedy_partition_under_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(multi_module, "MAX_GROUP_STATES", budget)
        chains = [chain for chain, _ in _mixed_shape_items()]
        chunks = plan_chunks(chains)
        # An order-preserving partition of the input.
        assert [id(c) for chunk in chunks for c in chunk] == [
            id(c) for c in chains
        ]
        for position, chunk in enumerate(chunks):
            distinct = {id(c): c.num_states for c in chunk}
            states = sum(distinct.values())
            # Within budget, or one oversized chain alone in its chunk.
            assert states <= budget or len(distinct) == 1
            if position + 1 < len(chunks):
                # Greedy: the next chunk opens only when its first chain
                # would have overflowed this one.
                assert states + chunks[position + 1][0].num_states > budget
        if budget == MAX_GROUP_STATES:
            assert len(chunks) == 1

    def test_repeated_chain_counts_once_per_chunk(self, monkeypatch):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        chain = compile_chain(alpha)
        monkeypatch.setattr(
            multi_module, "MAX_GROUP_STATES", chain.num_states
        )
        chunks = plan_chunks([chain, chain, chain])
        assert [[id(c) for c in chunk] for chunk in chunks] == [
            [id(chain)] * 3
        ]


class TestChainGroupStructure:
    def test_offsets_starts_and_repr_expose_the_stacking(self):
        chains = [chain for chain, _ in _mixed_shape_items()[:6]]
        group = ChainGroup(chains)
        assert group.num_states == sum(c.num_states for c in chains)
        assert group.num_transitions == sum(
            c.num_transitions for c in chains
        )
        expected_offsets = np.cumsum([0] + [c.num_states for c in chains])
        assert list(group.offsets) == list(expected_offsets[:-1])
        assert list(group.starts) == [
            off + c.start for off, c in zip(expected_offsets, chains)
        ]
        text = repr(group)
        assert f"chains={len(chains)}" in text
        assert group.evolution in text  # the adaptive decision, exposed

    def test_merged_schedule_matches_single_chain_sweep(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 3))
        chain = compile_chain(alpha)
        task = leader_election(5)
        mask = chain.solvable_mask(task)
        group = ChainGroup([chain])
        stacked = group.reverse_sweep(
            [[mask]],
            accumulator_init=0.0,
            masked_value=1.0,
            absorbing_value=0.0,
        )
        from repro.chain.backends import absorption_float_matrix

        single = absorption_float_matrix(
            chain, np.asarray([mask], dtype=bool)
        )
        assert np.allclose(stacked, single, atol=1e-15)

    def test_state_budget_splits_chunks(self, monkeypatch):
        items = _mixed_shape_items()
        monkeypatch.setattr(multi_module, "MAX_GROUP_STATES", 8)
        plan = MultiQueryPlan(items)
        chunks = plan._chunks()
        assert len(chunks) > 1
        assert sorted(i for chunk in chunks for i in chunk) == list(
            range(len(items))
        )
        # Oversized chains still get a (singleton) chunk of their own.
        results = plan.execute(backend="float")
        assert len(results) == len(items)
        grouped_exact = plan.execute(backend="exact")
        assert grouped_exact == _per_chain(items, "exact")


class TestAdaptiveEvolution:
    def test_strategy_follows_density_below_the_hard_cap(self):
        from repro.chain import DENSE_STATE_LIMIT
        from repro.chain.backends import (
            DENSE_ALWAYS_STATES,
            DENSE_DENSITY_FLOOR,
        )

        assert evolution_strategy(DENSE_STATE_LIMIT + 1, 10**9) == "scatter"
        assert evolution_strategy(DENSE_ALWAYS_STATES, 1) == "dense"
        states = DENSE_ALWAYS_STATES * 2
        dense_nnz = int(states * states * DENSE_DENSITY_FLOOR) + 1
        assert evolution_strategy(states, dense_nnz) == "dense"
        assert evolution_strategy(states, states) == "scatter"
