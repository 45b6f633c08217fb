"""Tests for the round-complexity experiment (analysis vs protocols)."""

from repro.algorithms import BlackboardLeaderNode, BlackboardNetwork
from repro.analysis import protocol_round_complexity
from repro.analysis.round_complexity import _protocol_mean_rounds
from repro.randomness import RandomnessConfiguration


class TestProtocolMeans:
    def test_blackboard_two_independent(self):
        mean, stderr = _protocol_mean_rounds((1, 1), clique=False, runs=300)
        # E[T] + 1 = 3 for two private sources.
        assert abs(mean - 3.0) < 5 * stderr + 0.05
        assert stderr < 0.2

    def test_clique_mean_bounded(self):
        mean, _ = _protocol_mean_rounds((2, 3), clique=True, runs=120)
        assert 2.0 <= mean <= 7.0

    def test_failure_raises(self):
        import pytest

        # The (2, 2) adversarial clique never decides, so seed 0 is the
        # first undecided seed.
        with pytest.raises(AssertionError, match=r"on \(2, 2\) \(seed 0\)"):
            _protocol_mean_rounds(
                (2, 2), clique=True, runs=2, max_rounds=16
            )
        # Two private sources decide by round 2 only when their first
        # bits differ; the message names the first seed whose did not.
        alpha = RandomnessConfiguration.from_group_sizes((1, 1))
        first = next(
            seed
            for seed in range(64)
            if not BlackboardNetwork(alpha, BlackboardLeaderNode, seed=seed)
            .run(max_rounds=2)
            .all_decided
        )
        assert first > 0
        with pytest.raises(
            AssertionError, match=rf"on \(1, 1\) \(seed {first}\)"
        ):
            _protocol_mean_rounds((1, 1), clique=False, runs=64, max_rounds=2)


class TestExperiment:
    def test_passes(self):
        protocol_round_complexity(runs=200).require_pass()
