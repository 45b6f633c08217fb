"""How compiled chains reach pool workers: pickles and the lookup order.

A worker gets a chain one way only: its process memo, then a fresh
compile.  A compiled chain still pickles (to its key, labels and out
table), so it can cross a process boundary.  These tests pin down that
a pickle hands back the same chain, that the lookup order is memo ->
compile, and that grouped queries over transported chains answer
exactly like grouped queries over the originals.
"""

import pickle

import numpy as np
import pytest

from repro.chain import (
    Query,
    chain_key,
    clear_memo,
    compile_chain,
    run_group_queries,
)
from repro.chain import engine as engine_module
from repro.chain.engine import key_digest
from repro.core import leader_election
from repro.models import adversarial_assignment, round_robin_assignment
from repro.models.graph import GraphTopology
from repro.obs import OBS, configure_tracing, reset_telemetry
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec


@pytest.fixture
def cold_memo():
    clear_memo()
    yield
    clear_memo()


#: One blackboard chain and three message-passing chains (adversarial
#: ports, round-robin ports, a ring topology), plus two quotient chains.
CASES = {
    "blackboard": lambda: ((1, 2, 2), None),
    "adversarial": lambda: ((2, 3), adversarial_assignment((2, 3))),
    "round-robin": lambda: ((1, 2, 2), round_robin_assignment(5)),
    "ring": lambda: ((1, 1, 1, 1), GraphTopology.ring(4)),
    "quotient-blackboard": lambda: ((1, 1, 2), None),
    "quotient-ring": lambda: ((1, 1, 1, 1), GraphTopology.ring(4)),
}


def _compile(case, **kwargs):
    shape, ports = CASES[case]()
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    kwargs.setdefault("quotient", case.startswith("quotient-"))
    return compile_chain(alpha, ports, **kwargs)


def _round_trip(chain):
    return pickle.loads(pickle.dumps(chain, protocol=pickle.HIGHEST_PROTOCOL))


class TestPickleRoundTrip:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_trip_reproduces_the_chain(self, case):
        chain = _compile(case)
        clone = _round_trip(chain)
        assert clone is not chain
        assert type(clone) is type(chain)
        assert clone.key == chain.key
        assert clone.labels == chain.labels
        assert clone.n == chain.n and clone.k == chain.k
        assert clone.denom == chain.denom
        assert clone.start == chain.start
        assert clone.num_states == chain.num_states
        assert clone.num_transitions == chain.num_transitions
        assert clone.out_table() == chain.out_table()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_tripped_queries_match_exactly(self, case):
        chain = _compile(case)
        clone = _round_trip(chain)
        task = leader_election(chain.n)
        assert clone.solving_probability_series(
            task, 6
        ) == chain.solving_probability_series(task, 6)
        assert clone.limit_solving_probability(
            task
        ) == chain.limit_solving_probability(task)
        for got, want in zip(clone.coo(), chain.coo()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["blackboard", "adversarial"])
    def test_csr_derives_from_the_out_table(self, case):
        chain = _compile(case)
        indptr, dst, cnt = chain.csr()
        assert indptr[0] == 0 and indptr[-1] == chain.num_transitions
        for sid in range(chain.num_states):
            lo, hi = int(indptr[sid]), int(indptr[sid + 1])
            assert tuple(
                zip(dst[lo:hi].tolist(), cnt[lo:hi].tolist())
            ) == chain.out_edges(sid)
        # A transported chain derives the very same arrays.
        for got, want in zip(_round_trip(chain).csr(), (indptr, dst, cnt)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_csr_is_derived_once_per_chain(self):
        chain = _compile("blackboard")
        first = chain.csr()
        assert chain.csr() is first

    def test_pickle_carries_only_the_out_table(self):
        chain = _compile("adversarial")
        chain.csr()
        chain.coo()
        chain.levels()
        state = chain.__getstate__()
        assert set(state) == {"key", "n", "k", "labels", "_out"}
        clone = _round_trip(chain)
        # Derived arrays are rebuilt lazily on the receiving side.
        assert clone._csr is None
        assert clone._coo is None
        assert clone._levels is None
        assert clone.levels() == chain.levels()


class TestLookupOrder:
    def test_memo_hit_never_compiles(self, cold_memo, monkeypatch):
        chain = _compile("blackboard")
        monkeypatch.setattr(
            engine_module,
            "_build_chain",
            lambda key, alpha: pytest.fail("memo-warm chain was compiled"),
        )
        assert _compile("blackboard") is chain

    def test_counters_follow_memo_then_compile(self, cold_memo):
        configure_tracing(True)
        reset_telemetry()
        try:
            _compile("ring")  # miss: compiled
            _compile("ring")  # memo
            clear_memo()
            _compile("ring")  # miss again: nothing outlives the memo
            counters = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(False)
            reset_telemetry()
        assert counters["chain.compile.miss"] == 2
        assert counters["chain.compile.hit.memo"] == 1
        assert not any(
            name.startswith("chain.compile.hit.") and name != (
                "chain.compile.hit.memo"
            )
            for name in counters
        )

    def test_a_cleared_memo_recompiles(self, monkeypatch):
        chain = _compile("blackboard")
        clear_memo()
        built = []
        original = engine_module._build_chain

        def counting_build(key, alpha):
            built.append(key)
            return original(key, alpha)

        monkeypatch.setattr(engine_module, "_build_chain", counting_build)
        again = _compile("blackboard")
        assert built == [chain.key]
        assert again.out_table() == chain.out_table()


class TestGroupsOfTransportedChains:
    def _chains(self):
        chains = []
        for shape in enumerate_size_shapes(4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            chains.append(compile_chain(alpha, use_memo=False))
            chains.append(compile_chain(
                alpha, adversarial_assignment(shape), use_memo=False
            ))
        return chains

    def test_group_of_round_tripped_chains_is_identical(self):
        chains = self._chains()
        rebuilt = [_round_trip(chain) for chain in chains]

        def items(group_chains):
            items = []
            for chain in group_chains:
                task = leader_election(chain.n)
                items.append((chain, [
                    Query.probability(task, 3),
                    Query.series(task, 5),
                    Query.limit(task),
                    Query.expected_time(task),
                    Query.solvable(task),
                ]))
            return items

        want = run_group_queries(items(chains), backend="float")
        got = run_group_queries(items(rebuilt), backend="float")
        # Same COO arrays and level schedule: bitwise-identical floats.
        assert got == want

    def test_exact_group_of_round_tripped_chains_is_identical(self):
        chains = self._chains()
        rebuilt = [_round_trip(chain) for chain in chains]

        def items(group_chains):
            return [
                (chain, [
                    Query.limit(runner_spec.make_task("leader", chain.n)),
                    Query.series(
                        runner_spec.make_task("leader", chain.n), 5
                    ),
                ])
                for chain in group_chains
            ]

        want = run_group_queries(items(chains), backend="exact")
        got = run_group_queries(items(rebuilt), backend="exact")
        assert got == want

    def test_key_digests_are_distinct_per_chain(self):
        # The query memo keys every answer by this digest.
        chains = self._chains()
        assert len({key_digest(chain.key) for chain in chains}) == len(
            {chain.key for chain in chains}
        )
        assert all(
            key_digest(_round_trip(chain).key) == key_digest(chain.key)
            for chain in chains
        )
        assert chain_key(
            RandomnessConfiguration.from_group_sizes((4,))
        ) in {chain.key for chain in chains}
