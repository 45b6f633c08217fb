"""Unit tests for the blackboard election protocol (Theorem 4.1 algorithm)."""

import itertools

import pytest

from repro.algorithms import BlackboardLeaderNode, BlackboardNetwork, choose_classes
from repro.randomness import FixedBitSource, RandomnessConfiguration


def reference_choose(class_sizes, k):
    """Every mask's sum recomputed, masks in increasing order."""
    ordered = sorted(class_sizes, key=lambda kv: repr(kv[0]))
    m = len(ordered)
    for mask in range(1, 1 << m):
        total = sum(ordered[i][1] for i in range(m) if mask >> i & 1)
        if total == k:
            return tuple(ordered[i][0] for i in range(m) if mask >> i & 1)
    return None


class TestChooseClasses:
    def test_matches_per_mask_sums(self):
        for m in range(1, 6):
            keys = [3 * index + 5 for index in range(m)]  # 5, 8, 11, ...
            for sizes in itertools.product(range(1, 4), repeat=m):
                pairs = list(zip(keys, sizes))
                for k in range(1, 9):
                    assert choose_classes(pairs, k) == reference_choose(
                        pairs, k
                    ), (pairs, k)

    def test_finds_singleton(self):
        assert choose_classes([("a", 2), ("b", 1)], 1) == ("b",)

    def test_none_when_impossible(self):
        assert choose_classes([("a", 2), ("b", 2)], 1) is None

    def test_deterministic_choice(self):
        # Two singletons: the canonical (repr-ordered) first subset wins.
        chosen = choose_classes([("x", 1), ("a", 1), ("m", 2)], 1)
        assert chosen == ("a",)

    def test_multi_class_sum(self):
        assert choose_classes([("a", 1), ("b", 1), ("c", 2)], 2) in (
            ("a", "b"),
            ("c",),
        )

    def test_respects_exact_sum(self):
        assert choose_classes([("a", 3)], 2) is None

    def test_int_keys_order_by_repr(self):
        # Interned tags are ints: "10" < "2" < "9" decides the election.
        assert choose_classes([(2, 1), (9, 1), (10, 1)], 1) == (10,)
        assert choose_classes([(9, 2), (10, 1), (11, 1)], 2) == (10, 11)


class TestElection:
    @pytest.mark.parametrize("sizes", [(1, 2), (1, 1), (1, 3, 3), (1,)])
    def test_elects_exactly_one_with_singleton_source(self, sizes):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        for seed in range(4):
            result = BlackboardNetwork(
                alpha, BlackboardLeaderNode, seed=seed
            ).run(max_rounds=64)
            assert result.all_decided, (sizes, seed)
            assert len(result.leaders()) == 1, (sizes, seed)

    @pytest.mark.parametrize("sizes", [(2, 2), (3,), (2, 2, 2), (4, 2)])
    def test_never_elects_without_singleton_source(self, sizes):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        for seed in range(3):
            result = BlackboardNetwork(
                alpha, BlackboardLeaderNode, seed=seed
            ).run(max_rounds=40)
            assert not result.all_decided
            assert all(out is None for out in result.outputs)

    def test_scripted_election_round(self):
        # Sources: node 2 alone on source B; split appears at round 1 so the
        # election closes at round 2 (decisions use round-(r-1) histories).
        alpha = RandomnessConfiguration.from_group_sizes([2, 1])
        sources = [FixedBitSource("000"), FixedBitSource("100")]
        result = BlackboardNetwork(
            alpha, BlackboardLeaderNode, sources=sources
        ).run(max_rounds=5)
        assert result.leaders() == (2,)
        assert result.rounds == 2

    def test_delayed_split(self):
        # Identical prefixes delay the election until the sources diverge.
        alpha = RandomnessConfiguration.from_group_sizes([2, 1])
        sources = [FixedBitSource("00010"), FixedBitSource("00000")]
        result = BlackboardNetwork(
            alpha, BlackboardLeaderNode, sources=sources
        ).run(max_rounds=6)
        assert result.leaders() == (2,)
        assert result.rounds == 5  # divergence at round 4, decision at 5

    def test_all_decide_same_round(self):
        alpha = RandomnessConfiguration.from_group_sizes([1, 2, 2])
        result = BlackboardNetwork(
            alpha, BlackboardLeaderNode, seed=2
        ).run(max_rounds=64)
        assert len(set(result.decision_rounds)) == 1

    def test_two_leader_variant(self):
        alpha = RandomnessConfiguration.from_group_sizes([2, 3])
        result = BlackboardNetwork(
            alpha, lambda: BlackboardLeaderNode(k=2), seed=1
        ).run(max_rounds=64)
        assert result.all_decided
        assert len(result.leaders()) == 2

    def test_two_leader_impossible_shape(self):
        # sizes (3, 4): no sub-multiset sums to 2.
        alpha = RandomnessConfiguration.from_group_sizes([3, 4])
        result = BlackboardNetwork(
            alpha, lambda: BlackboardLeaderNode(k=2), seed=1
        ).run(max_rounds=40)
        assert not result.all_decided

    def test_k_validation(self):
        with pytest.raises(ValueError):
            BlackboardLeaderNode(k=0)
