"""Kernel contracts: substream purity, prefix stability, and bit-exact
agreement between the vectorized solvers and the scalar oracle."""

import numpy as np
import pytest

from repro.core import k_leader_election, leader_election
from repro.core.task_zoo import unique_ids
from repro.models import (
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.randomness import RandomnessConfiguration
from repro.sampling import (
    BLOCK_SAMPLES,
    block_indicators,
    philox_key,
    resolve_method,
    scalar_block_indicators,
    source_words,
    words_needed,
)
from repro.sampling.kernel import _block_classes


class TestSubstreams:
    def test_key_is_a_pure_function(self):
        assert np.array_equal(philox_key(7, 3), philox_key(7, 3))
        assert not np.array_equal(philox_key(7, 3), philox_key(7, 4))
        assert not np.array_equal(philox_key(7, 3), philox_key(8, 3))

    def test_blocks_are_independent_of_generation_order(self):
        # Generating block 5 never requires blocks 0..4: counter-based
        # keys, not sequential state.
        late = source_words(11, 5, 3, 2)
        early = source_words(11, 0, 3, 2)
        again = source_words(11, 5, 3, 2)
        assert np.array_equal(late, again)
        assert not np.array_equal(late, early)

    def test_word_prefix_extension(self):
        # More words on the same key extends -- never reshuffles -- the
        # earlier words, so horizons t and t' > t share their first
        # rounds (the CRN property across the t axis).
        small = source_words(3, 0, 4, 1)
        large = source_words(3, 0, 4, 3)
        assert np.array_equal(large[:, :, :1], small)

    def test_shapes(self):
        assert source_words(0, 0, 5, 2).shape == (BLOCK_SAMPLES, 5, 2)
        assert words_needed(1) == words_needed(64) == 1
        assert words_needed(65) == 2
        with pytest.raises(ValueError):
            words_needed(0)

    def test_resolve_method(self):
        assert resolve_method("auto") == "bits"
        for retired in ("chain", "quantum"):
            with pytest.raises(ValueError):
                resolve_method(retired)


# The sharp correctness test: the vectorized solvers must reproduce the
# per-trajectory oracle (realization_solves over the same Philox words)
# bit for bit, trial by trial.
ORACLE_CASES = [
    pytest.param((1, 2), None, 3, id="blackboard-1,2-t3"),
    pytest.param((2, 2), None, 5, id="blackboard-2,2-t5"),
    pytest.param((1, 1, 2), None, 4, id="blackboard-1,1,2-t4"),
    pytest.param((1, 2), "adversarial", 3, id="clique-adv-1,2-t3"),
    pytest.param((2, 3), "adversarial", 4, id="clique-adv-2,3-t4"),
    pytest.param((1, 1, 2), "random", 4, id="clique-rand-1,1,2-t4"),
]


class TestBitExactness:
    @pytest.mark.parametrize("sizes,port_kind,t", ORACLE_CASES)
    def test_bits_matches_scalar_oracle(self, sizes, port_kind, t):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        if port_kind == "adversarial":
            ports = adversarial_assignment(sizes)
        elif port_kind == "random":
            ports = random_assignment(alpha.n, 5)
        else:
            ports = None
        task = leader_election(alpha.n)
        fast = block_indicators(
            alpha, task, t, ports, stream_seed=17, block=2, method="bits"
        )
        slow = scalar_block_indicators(
            alpha, task, t, ports, stream_seed=17, block=2
        )
        assert fast.dtype == bool and fast.shape == (BLOCK_SAMPLES,)
        assert np.array_equal(fast, slow)

    def test_scalar_is_the_method_behind_method_scalar(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = unique_ids(3)
        via_method = block_indicators(
            alpha, task, 3, stream_seed=1, block=0, method="scalar"
        )
        direct = scalar_block_indicators(
            alpha, task, 3, stream_seed=1, block=0
        )
        assert np.array_equal(via_method, direct)

    def test_the_chain_method_is_rejected(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        with pytest.raises(ValueError, match="unknown sampling method"):
            block_indicators(
                alpha, leader_election(3), 3,
                stream_seed=1, block=0, method="chain",
            )

    def test_distinct_blocks_sample_distinct_trials(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        a = block_indicators(alpha, task, 1, stream_seed=0, block=0)
        b = block_indicators(alpha, task, 1, stream_seed=0, block=1)
        assert 0 < a.sum() < BLOCK_SAMPLES  # intermediate probability
        assert not np.array_equal(a, b)


class TestBlockClassesCache:
    """The task-free partition cache must key on everything the partition
    reads -- configuration, ports, horizon, stream and block -- and must
    never hand a caller an array it shares with the cache."""

    STREAM = (23, 1)

    def _check(self, sizes, ports, task, t):
        alpha = RandomnessConfiguration.from_group_sizes(sizes)
        stream_seed, block = self.STREAM
        fast = block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block
        )
        slow = scalar_block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block,
            count=200,
        )
        assert np.array_equal(fast[:200], slow)
        return fast

    @pytest.fixture(params=["cleared", "warm"])
    def clear(self, request):
        def clear():
            if request.param == "cleared":
                _block_classes.cache_clear()

        clear()
        return clear

    def test_task_a_then_task_b(self, clear):
        sizes = (1, 2, 2)
        leader = self._check(sizes, None, leader_election(5), 4)
        clear()
        k_leader = self._check(sizes, None, k_leader_election(5, 2), 4)
        assert not np.array_equal(leader, k_leader)

    def test_longer_horizon_then_shorter(self, clear):
        sizes = (1, 2, 2)
        ports = adversarial_assignment(sizes)
        task = leader_election(5)
        long = self._check(sizes, ports, task, 4)
        clear()
        short = self._check(sizes, ports, task, 3)
        assert not np.array_equal(long, short)

    def test_port_tables_of_one_size(self, clear):
        sizes = (2, 2)
        task = leader_election(4)
        ports = adversarial_assignment(sizes)
        adversarial = self._check(sizes, ports, task, 4)
        clear()
        benign = self._check(sizes, round_robin_assignment(4), task, 4)
        assert not adversarial.any() and benign.any()

    def test_callers_cannot_write_into_the_cache(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        first = block_indicators(alpha, task, 3, stream_seed=4, block=0)
        expected = first.copy()
        first[:] = ~first
        again = block_indicators(alpha, task, 3, stream_seed=4, block=0)
        assert np.array_equal(again, expected)
        _, index = _block_classes(alpha, None, 3, 4, (0,))
        assert index.dtype == np.uint16 and not index.flags.writeable
