"""Compiled-engine tests: structure, memoization, facade equivalence.

The cross-backend numerical properties live in
``test_backend_agreement.py``; here we pin down the compiled object
itself: topological state order, integer transition weights, the
process-wide memo, and exact agreement with the ``ConsistencyChain``
facade (which the integration suite in turn validates against literal
realization enumeration).
"""

import hashlib
import pickle
from fractions import Fraction

import pytest

from repro.chain import (
    chain_key,
    clear_memo,
    compile_chain,
    memo_size,
    quotient_key,
)
from repro.chain.engine import key_digest
from repro.core import (
    ConsistencyChain,
    expected_solving_time,
    leader_election,
    single_block_state,
)
from repro.models import (
    adversarial_assignment,
    round_robin_assignment,
)
from repro.models.graph import GraphTopology
from repro.randomness import RandomnessConfiguration


class TestStructure:
    def test_states_topologically_sorted_by_block_count(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        counts = chain.block_counts
        assert counts[0] == 1  # the single-block start state
        assert chain.start == 0
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        for sid in range(chain.num_states):
            for dst, cnt in chain.out_edges(sid):
                assert cnt >= 1
                # refinement strictly grows the block count, or self-loops
                assert dst == sid or counts[dst] > counts[sid]

    def test_transition_counts_sum_to_denominator(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        chain = compile_chain(alpha)
        assert chain.denom == 2 ** (alpha.k - 1)
        for sid in range(chain.num_states):
            assert sum(cnt for _, cnt in chain.out_edges(sid)) == chain.denom
            assert sum(
                chain.transitions_exact(sid).values()
            ) == Fraction(1)

    def test_validation_mirrors_the_facade(self):
        big = RandomnessConfiguration.independent(11)
        with pytest.raises(ValueError):
            compile_chain(big)
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        with pytest.raises(ValueError):
            compile_chain(alpha, round_robin_assignment(5))
        with pytest.raises(ValueError):
            compile_chain(alpha, None, include_back_ports=True)


class TestMemo:
    def test_same_structural_chain_compiles_once(self):
        clear_memo()
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        first = compile_chain(alpha, ports)
        # Equal-valued (but distinct) alpha and ports objects hit the memo.
        again = compile_chain(
            RandomnessConfiguration.from_group_sizes((2, 3)),
            adversarial_assignment((2, 3)),
        )
        assert again is first
        assert memo_size() == 1

    def test_memo_key_is_structural(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        ports = adversarial_assignment((2, 2))
        assert chain_key(alpha, ports) == chain_key(alpha, ports)
        assert chain_key(alpha) != chain_key(alpha, ports)
        assert chain_key(alpha, ports) != chain_key(
            alpha, ports, include_back_ports=True
        )

    def test_use_memo_false_bypasses(self):
        clear_memo()
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        one = compile_chain(alpha, use_memo=False)
        two = compile_chain(alpha, use_memo=False)
        assert one is not two
        assert memo_size() == 0


#: Chain keys whose digests must never move: the query memo and the
#: Monte-Carlo memo key every stored answer by them.
DIGEST_KEYS = {
    "blackboard-1,2": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((1, 2))
    ),
    "blackboard-2,3": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((2, 3))
    ),
    "adversarial-2,3": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((2, 3)),
        adversarial_assignment((2, 3)),
    ),
    "round-robin-1,2,2": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((1, 2, 2)),
        round_robin_assignment(5),
    ),
    "ring-1,1,1,1": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((1, 1, 1, 1)),
        GraphTopology.ring(4),
    ),
    "back-ports-2,3": lambda: chain_key(
        RandomnessConfiguration.from_group_sizes((2, 3)),
        adversarial_assignment((2, 3)),
        include_back_ports=True,
    ),
    "quotient-blackboard-1,1,1,1": lambda: quotient_key(chain_key(
        RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
    )),
    "quotient-adversarial-2,3": lambda: quotient_key(chain_key(
        RandomnessConfiguration.from_group_sizes((2, 3)),
        adversarial_assignment((2, 3)),
    )),
}


class TestKeyDigest:
    @pytest.mark.parametrize("case, digest", [
        ("blackboard-1,2",
         "c3ac3e35164422fc3ca33786625692b1b6eed70ee5ee2a2e5614937e25dbfe95"),
        ("blackboard-2,3",
         "efc13158414562e11b15b8aedba272247d23e8d9600734568ee21173baaa9cf8"),
        ("adversarial-2,3",
         "d155f1d80edd8189804750ca0401e655ae23b649b5eb826083c1ec6722060e66"),
        ("round-robin-1,2,2",
         "88504bd7621f2b866016ada8eaddbd003f6ab77ca781e617b13521c18b78fa4c"),
        ("ring-1,1,1,1",
         "3868e6eee03bc76eb2594269bfa16d04610bb6ae17398e29d00b84b1c972162e"),
        ("back-ports-2,3",
         "d859f254d0ea2dfda48fd9a1dbfa9a31f4f16037a517086820fb73fae187dd03"),
        ("quotient-blackboard-1,1,1,1",
         "2c40427b255b71271bd1efda5a898427a46c6f38602b8b8a4c28f02d112ff3c8"),
        ("quotient-adversarial-2,3",
         "c733308ae289f182d045f10bab7b987df48484c4c18bf61afb38e293418623b7"),
    ])
    def test_digest_is_pinned(self, case, digest):
        assert key_digest(DIGEST_KEYS[case]()) == digest

    def test_digest_is_the_sha256_of_the_key_repr(self):
        key = DIGEST_KEYS["adversarial-2,3"]()
        assert key_digest(key) == hashlib.sha256(
            repr(key).encode("utf-8")
        ).hexdigest()

    def test_digests_separate_every_key(self):
        digests = {key_digest(build()) for build in DIGEST_KEYS.values()}
        assert len(digests) == len(DIGEST_KEYS)

    def test_compiled_and_pickled_chains_keep_the_digest(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        clone = pickle.loads(pickle.dumps(chain))
        assert key_digest(chain.key) == key_digest(clone.key) == (
            key_digest(DIGEST_KEYS["adversarial-2,3"]())
        )


class TestMaskCache:
    def test_equal_count_tasks_share_one_mask(self):
        # leader_election() builds a fresh CountTask per call; the mask
        # cache keys them by content, so a memoized (process-immortal)
        # chain does not grow with every query.
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        first = chain.solvable_mask(leader_election(3))
        second = chain.solvable_mask(leader_election(3))
        assert first is second

    def test_identity_keyed_tasks_are_weakly_held(self):
        import gc
        import weakref

        from repro.core import leader_election_complex
        from repro.core.tasks import OutputComplexTask

        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = OutputComplexTask(leader_election_complex(3))
        chain.solvable_mask(task)
        ref = weakref.ref(task)
        del task
        gc.collect()
        assert ref() is None  # the chain's cache did not pin the task


class TestFacadeEquivalence:
    """The facade and the raw engine must agree value-for-value."""

    @pytest.mark.parametrize(
        "shape, make_ports",
        [
            ((1, 2), lambda n, shape: None),
            ((2, 3), lambda n, shape: adversarial_assignment(shape)),
            ((1, 1, 2), lambda n, shape: round_robin_assignment(n)),
        ],
    )
    def test_probabilities_and_limits(self, shape, make_ports):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = make_ports(alpha.n, shape)
        task = leader_election(alpha.n)
        facade = ConsistencyChain(alpha, ports)
        compiled = compile_chain(alpha, ports)
        series = facade.solving_probability_series(task, 5)
        assert series == compiled.solving_probability_series(task, 5)
        for t in (0, 1, 3):
            assert facade.solving_probability(task, t) == (
                compiled.solving_probability(task, t)
            )
        assert facade.limit_solving_probability(task) == (
            compiled.limit_solving_probability(task)
        )
        assert facade.eventually_solvable(task) == (
            compiled.eventually_solvable(task)
        )
        assert expected_solving_time(facade, task) == (
            compiled.expected_solving_time(task)
        )

    def test_reachable_states_match_state_table(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        ports = adversarial_assignment((2, 2))
        facade = ConsistencyChain(alpha, ports)
        compiled = compile_chain(alpha, ports)
        assert facade.reachable_states() == {
            compiled.partition_of(sid)
            for sid in range(compiled.num_states)
        }

    def test_state_distribution_masses(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2, 2))
        facade = ConsistencyChain(alpha)
        compiled = compile_chain(alpha)
        for t in range(4):
            by_partition = facade.state_distribution(t)
            by_id = compiled.state_distribution(t)
            assert sum(by_partition.values()) == Fraction(1)
            assert by_partition == {
                compiled.partition_of(sid): prob
                for sid, prob in by_id.items()
            }

    def test_graph_topology_chains_compile(self):
        ring = GraphTopology.ring(4)
        alpha = RandomnessConfiguration.independent(4)
        compiled = compile_chain(alpha, ring)
        task = leader_election(4)
        assert compiled.limit_solving_probability(task) == 1
        facade = ConsistencyChain(alpha, ring)
        assert facade.compiled is compiled  # memo shared across layers


class TestQuantilesAndExpectations:
    def test_quantile_matches_series(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        compiled = compile_chain(alpha)
        series = compiled.solving_probability_series(task, 10)
        for q in (Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)):
            t = compiled.solving_time_quantile(task, q, t_cap=32)
            assert series[t - 1] >= q
            assert t == 1 or series[t - 2] < q

    def test_unsolvable_expectation_is_none(self):
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        compiled = compile_chain(alpha, adversarial_assignment((2, 2)))
        assert compiled.expected_solving_time(leader_election(4)) is None

    def test_single_node_chain(self):
        alpha = RandomnessConfiguration.shared(1)
        compiled = compile_chain(alpha)
        task = leader_election(1)
        assert compiled.num_states == 1
        assert compiled.solving_probability(task, 0) == 1
        assert compiled.limit_solving_probability(task) == 1
        assert compiled.expected_solving_time(task) == 0


class TestFacadeInternals:
    def test_transitions_on_unreachable_state_still_answer(self):
        # (2, 2) from a fully-split partition: not reachable from bottom
        # under adversarial ports, but transitions() must still work.
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = ConsistencyChain(alpha, adversarial_assignment((2, 2)))
        split = ((0,), (1,), (2,), (3,))
        assert split not in chain.reachable_states()
        moves = chain.transitions(split)
        assert sum(moves.values()) == Fraction(1)
        assert moves == {split: Fraction(1)}  # fully split: absorbing

    def test_transition_cache_returns_same_object(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = ConsistencyChain(alpha)
        state = single_block_state(3)
        assert chain.transitions(state) is chain.transitions(state)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
