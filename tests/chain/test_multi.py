"""Many chains through one front-door call: results vs per-chain calls
and vs the scalar oracle."""

import pytest

from repro.chain import (
    Query,
    compile_chain,
    run_group_queries,
    run_queries,
)
from repro.chain.batch import QueryPlan
from repro.context import ExecutionContext, use_context
from repro.core import (
    k_leader_election,
    leader_election,
    weak_symmetry_breaking,
)
from repro.models import adversarial_assignment, round_robin_assignment
from repro.obs import OBS, configure_tracing, reset_telemetry
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

#: Every size shape with 2..5 processes: one grouped-vs-oracle case each.
ORACLE_SHAPES = [
    shape for n in (2, 3, 4, 5) for shape in enumerate_size_shapes(n)
]


def _mixed_shape_items():
    """A mixed-shape sweep axis: several totals, both models, all
    quantities -- the access pattern of the analysis sweeps."""
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

    The per-chain comparison above checks the grouped call against
    one-item calls through the same plans; these cases pin it to an
    independent reference, one size shape (under every port model) at
    a time.
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


class TestFrontDoorSteps:
    """Memo scan, per-item plans, recording, and the telemetry the
    benchmark harness reads, one step at a time."""

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_partial_hits_plan_only_the_misses(self, tmp_path, backend):
        items = _oracle_items((1, 2, 2))
        fresh = run_group_queries(items, backend=backend)
        half = [(chain, queries[::2]) for chain, queries in items]
        misses = sum(len(q) - len(q[::2]) for _, q in items)
        context = ExecutionContext(results_memo=tmp_path / "memo")
        previous = configure_tracing(True)
        try:
            with use_context(context):
                run_group_queries(half, backend=backend)
                reset_telemetry()
                warm = run_group_queries(items, backend=backend)
                counters = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(previous)
            reset_telemetry()
        assert warm == fresh
        assert counters["chain.batch.plans"] == len(items)
        assert counters["chain.batch.queries"] == misses

    def test_telemetry_counts_items_and_spans_only_misses(self, tmp_path):
        items = _oracle_items((1, 3))
        context = ExecutionContext(results_memo=tmp_path / "memo")
        previous = configure_tracing(True)
        try:
            with use_context(context):
                reset_telemetry()
                run_group_queries(items)
                cold = OBS.metrics.snapshot()["counters"]
                cold_spans = [span.name for span in OBS.tracer.drain()]
                reset_telemetry()
                run_group_queries(items)
                warm = OBS.metrics.snapshot()["counters"]
                warm_spans = [span.name for span in OBS.tracer.drain()]
        finally:
            configure_tracing(previous)
            reset_telemetry()
        assert cold["chain.multi.items"] == warm["chain.multi.items"] == 3
        assert "chain.multi.items_memoized" not in cold
        assert warm["chain.multi.items_memoized"] == 3
        assert cold_spans.count("chain.multi.execute") == 1
        assert "chain.multi.execute" not in warm_spans

    @pytest.mark.parametrize(
        "shape", [(1, 1, 2), (1, 2, 2), (2, 3)], ids=str
    )
    def test_float_rows_do_not_interact(self, shape):
        # A many-mask float plan answers each query as a one-query plan
        # does: sharing one evolution and one sweep per quantity mixes
        # no rows.
        for chain, queries in _oracle_items(shape):
            together = QueryPlan(chain, queries).execute("float")
            for query, got in zip(queries, together):
                (alone,) = QueryPlan(chain, [query]).execute("float")
                got_row = got if isinstance(got, list) else [got]
                alone_row = alone if isinstance(alone, list) else [alone]
                assert len(got_row) == len(alone_row)
                for g, a in zip(got_row, alone_row):
                    if g is None or isinstance(g, bool):
                        assert g == a
                    else:
                        assert abs(g - a) < 1e-15
