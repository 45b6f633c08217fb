"""The query front door: agreement with the scalar paths, plan hygiene.

The exact plan must be *byte-identical* to the scalar methods (it
reuses the scalar kernels, and these tests pin that contract), and
``run_queries`` under the float backend must agree with the scalar
float path -- and with exact -- to 1e-12, across a grid of
configurations, port assignments, tasks, and horizons.
"""

from fractions import Fraction

import pytest

from repro.chain import (
    Query,
    compile_chain,
    run_group_queries,
    run_queries,
    set_distribution_cache_cap,
)
from repro.chain.batch import QueryPlan
from repro.core import k_leader_election, leader_election, unique_ids
from repro.models import adversarial_assignment, round_robin_assignment
from repro.obs import OBS, configure_tracing, reset_telemetry
from repro.randomness import RandomnessConfiguration
from repro.results.memo import query_memo

SHAPES = ((1, 1), (3,), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2))
PORT_MAKERS = (
    ("blackboard", lambda shape: None),
    ("adversarial", lambda shape: adversarial_assignment(shape)),
    ("round-robin", lambda shape: round_robin_assignment(sum(shape))),
)
HORIZONS = (0, 1, 3, 6)


def _tasks(n):
    return (
        leader_election(n),
        k_leader_election(n, 2),
        unique_ids(n),
    )


def _grid():
    for shape in SHAPES:
        for name, make in PORT_MAKERS:
            yield pytest.param(shape, make, id=f"{shape}-{name}")


def _all_queries(tasks, horizons):
    queries = []
    for task in tasks:
        queries.append(Query.series(task, max(horizons)))
        queries.append(Query.limit(task))
        queries.append(Query.expected_time(task))
        queries.append(Query.solvable(task))
        for t in horizons:
            queries.append(Query.probability(task, t))
    return queries


def _scalar_answers(chain, queries, backend):
    answers = []
    for query in queries:
        if query.quantity == "probability":
            answers.append(
                chain.solving_probability(
                    query.task, query.horizon, backend=backend
                )
            )
        elif query.quantity == "series":
            answers.append(
                chain.solving_probability_series(
                    query.task, query.horizon, backend=backend
                )
            )
        elif query.quantity == "limit":
            answers.append(
                chain.limit_solving_probability(query.task, backend=backend)
            )
        elif query.quantity == "expected":
            answers.append(
                chain.expected_solving_time(query.task, backend=backend)
            )
        else:
            answers.append(chain.eventually_solvable(query.task))
    return answers


class TestExactAgreement:
    @pytest.mark.parametrize("shape,make_ports", list(_grid()))
    def test_batched_exact_byte_identical_to_scalar(self, shape, make_ports):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape))
        queries = _all_queries(_tasks(alpha.n), HORIZONS)
        batched = QueryPlan(chain, queries).execute()
        scalar = _scalar_answers(chain, queries, "exact")
        assert batched == scalar
        assert run_queries(chain, queries) == scalar
        # Byte-identical means identical types too: Fractions everywhere
        # a scalar query yields one (never silently degraded floats).
        for got, want in zip(batched, scalar):
            if isinstance(want, list):
                assert [type(x) for x in got] == [type(x) for x in want]
            else:
                assert type(got) is type(want)


class TestFloatAgreement:
    @pytest.mark.parametrize("shape,make_ports", list(_grid()))
    def test_batched_float_matches_scalar_and_exact(self, shape, make_ports):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(alpha, make_ports(shape))
        queries = _all_queries(_tasks(alpha.n), HORIZONS)
        batched = run_queries(chain, queries, backend="float")
        scalar = _scalar_answers(chain, queries, "float")
        exact = _scalar_answers(chain, queries, "exact")
        for got, flt, ref in zip(batched, scalar, exact):
            if isinstance(got, list):
                assert len(got) == len(flt) == len(ref)
                for g, f, r in zip(got, flt, ref):
                    assert g == pytest.approx(f, abs=1e-12)
                    assert g == pytest.approx(float(r), abs=1e-12)
            elif got is None or isinstance(got, bool):
                assert got == flt == (
                    ref if isinstance(got, bool) else None
                )
            else:
                assert got == pytest.approx(flt, abs=1e-12)
                assert got == pytest.approx(float(ref), abs=1e-12)


class TestPlan:
    def test_shared_masks_collapse_to_one_slot(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = leader_election(3)
        plan = QueryPlan(
            chain, [Query.limit(task), Query.expected_time(task),
                    Query.limit(task)]
        )
        assert len(plan._masks) == 1
        assert len(plan) == 3

    def test_empty_batch(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        assert run_queries(compile_chain(alpha), []) == []

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            Query("absorbance", leader_election(2))

    def test_probability_needs_horizon(self):
        with pytest.raises(ValueError):
            Query("probability", leader_election(2))
        with pytest.raises(ValueError):
            Query("probability", leader_election(2), -1)

    def test_limit_takes_no_horizon(self):
        with pytest.raises(ValueError):
            Query("limit", leader_election(2), 4)

    def test_unknown_backend_rejected(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        with pytest.raises(ValueError):
            run_queries(
                chain, [Query.limit(leader_election(3))], backend="decimal"
            )

    def test_float_plan_answers_python_floats_and_none(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = compile_chain(alpha)
        task = leader_election(4)  # gcd 2: never solved
        plan = QueryPlan(chain, [
            Query.probability(task, 0),
            Query.series(task, 0),
            Query.series(task, 2),
            Query.limit(task),
            Query.expected_time(task),
            Query.solvable(task),
        ])
        answers = plan.execute("float")
        assert answers == [0.0, [], [0.0, 0.0], 0.0, None, False]
        assert [type(a) for a in answers] == [
            float, list, list, float, type(None), bool
        ]
        assert {type(x) for x in answers[2]} == {float}
        with pytest.raises(ValueError):
            plan.execute("decimal")


class TestPlanCounters:
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_memo_free_calls_count_each_plan_and_query_once(self, backend):
        shape = (1, 2)
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chains = [
            compile_chain(alpha),
            compile_chain(alpha, adversarial_assignment(shape)),
        ]
        task = leader_election(alpha.n)
        queries = [
            Query.limit(task), Query.series(task, 3), Query.solvable(task)
        ]
        assert query_memo() is None
        previous = configure_tracing(True)
        reset_telemetry()
        try:
            for chain in chains:
                run_queries(chain, queries, backend=backend)
            per_chain = OBS.metrics.snapshot()["counters"]
            reset_telemetry()
            run_group_queries(
                [(chain, queries) for chain in chains], backend=backend
            )
            grouped = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(previous)
            reset_telemetry()
        for counters in (per_chain, grouped):
            assert counters["chain.batch.plans"] == len(chains)
            assert counters["chain.batch.queries"] == (
                len(chains) * len(queries)
            )


class TestZeroOneAssertion:
    def test_solvable_asserts_zero_one_on_both_backends(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = compile_chain(alpha)
        task = leader_election(4)
        assert QueryPlan(chain, [Query.solvable(task)]).execute() == [False]
        assert run_queries(
            chain, [Query.solvable(task)], backend="float"
        ) == [False]
        # Float 'solvable' verdicts are exact Fractions under the hood.
        assert isinstance(
            QueryPlan(chain, [Query.limit(task)]).execute()[0], Fraction
        )


class TestDistributionCacheCap:
    def test_deep_horizons_stay_exact_under_a_small_cap(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        task = leader_election(alpha.n)
        chain = compile_chain(alpha)
        reference = chain.solving_probability(task, 12)
        fresh = compile_chain(alpha, use_memo=False)
        set_distribution_cache_cap(4)
        try:
            assert fresh.solving_probability(task, 12) == reference
            assert len(fresh._dist_exact) <= 4
            # Batched series past the cap stays byte-identical too.
            capped = QueryPlan(fresh, [Query.series(task, 12)]).execute()[0]
        finally:
            set_distribution_cache_cap(None)
        assert capped == chain.solving_probability_series(task, 12)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            set_distribution_cache_cap(0)
