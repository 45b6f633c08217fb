"""Unit tests for task abstractions (output complexes, count profiles)."""

import pytest

from repro.core import (
    CountTask,
    OutputComplexTask,
    eventual_partition,
    leader_election,
)
from repro.core.leader_election import leader_election_complex
from repro.randomness import RandomnessConfiguration
from repro.topology import Simplex, SimplicialComplex


def blocks(*groups):
    return [frozenset(g) for g in groups]


class TestOutputComplexTask:
    def test_from_leader_election_complex(self):
        task = OutputComplexTask(leader_election_complex(3))
        assert task.n == 3

    def test_rejects_asymmetric(self):
        asym = SimplicialComplex([Simplex([(0, 1), (1, 0)])])
        with pytest.raises(ValueError):
            OutputComplexTask(asym)

    def test_rejects_partial_facets(self):
        partial = SimplicialComplex(
            [Simplex([(0, 0), (1, 0)]), Simplex([(2, 0)])]
        )
        with pytest.raises(ValueError):
            OutputComplexTask(partial)

    def test_rejects_gap_in_names(self):
        gap = SimplicialComplex([Simplex([(0, 0), (2, 0)])])
        with pytest.raises(ValueError):
            OutputComplexTask(gap)

    def test_solvability_matches_count_task(self):
        explicit = OutputComplexTask(leader_election_complex(3))
        counted = leader_election(3)
        for partition in (
            blocks({0}, {1}, {2}),
            blocks({0, 1}, {2}),
            blocks({0, 1, 2}),
        ):
            assert explicit.solvable_from_partition(
                partition
            ) == counted.solvable_from_partition(partition)

    def test_input_complex_is_single_facet(self):
        task = OutputComplexTask(leader_election_complex(2))
        assert task.input_complex().facet_count() == 1

    def test_partition_validation(self):
        task = OutputComplexTask(leader_election_complex(3))
        with pytest.raises(ValueError):
            task.solvable_from_partition(blocks({0}, {1}))  # misses node 2
        with pytest.raises(ValueError):
            task.solvable_from_partition(blocks({0, 1}, {1, 2}))  # overlap


class TestCanonicalPartitionStates:
    """``solvable_from_partition`` takes the package's own canonical
    ``PartitionState`` (a tuple of node tuples) as well as frozensets."""

    def test_eventual_partition_at_1_2(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        state = eventual_partition(alpha)
        assert state == ((0,), (1, 2))
        assert leader_election(3).solvable_from_partition(state)

    @pytest.mark.parametrize(
        "task",
        [leader_election(3), OutputComplexTask(leader_election_complex(3))],
        ids=["count", "complex"],
    )
    def test_tuple_blocks_agree_with_frozensets(self, task):
        for state in (((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 1, 2),)):
            assert task.solvable_from_partition(
                state
            ) == task.solvable_from_partition(blocks(*state))

    @pytest.mark.parametrize(
        "task",
        [leader_election(3), OutputComplexTask(leader_election_complex(3))],
        ids=["count", "complex"],
    )
    def test_tuple_blocks_still_validated(self, task):
        with pytest.raises(ValueError, match="overlap"):
            task.solvable_from_partition(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="covers"):
            task.solvable_from_partition(((0,), (1,)))


class TestCountTask:
    def test_profile_must_cover_n(self):
        with pytest.raises(ValueError):
            CountTask(3, [{1: 1, 0: 1}])

    def test_profile_positive_counts(self):
        with pytest.raises(ValueError):
            CountTask(2, [{1: 0, 0: 2}])

    def test_needs_a_profile(self):
        with pytest.raises(ValueError):
            CountTask(2, [])

    def test_leader_election_profile(self):
        task = leader_election(4)
        assert task.count_multisets() == ((1, 3),)

    def test_output_complex_generation(self):
        task = leader_election(3)
        complex_ = task.output_complex()
        assert complex_.facet_count() == 3
        assert complex_.is_symmetric()
        assert complex_ == leader_election_complex(3)

    def test_multi_profile_output_complex(self):
        task = CountTask(2, [{1: 1, 0: 1}, {1: 2}])
        assert task.output_complex().facet_count() == 3

    def test_solvable_from_partition(self):
        task = leader_election(3)
        assert task.solvable_from_partition(blocks({0}, {1, 2}))
        assert not task.solvable_from_partition(blocks({0, 1, 2}))

    def test_solvable_from_sizes(self):
        task = leader_election(5)
        assert task.solvable_from_sizes([1, 4])
        assert task.solvable_from_sizes([1, 2, 2])
        assert not task.solvable_from_sizes([5])
        assert not task.solvable_from_sizes([2, 3])

    def test_sizes_must_sum_to_n(self):
        with pytest.raises(ValueError):
            leader_election(3).solvable_from_sizes([1, 1])

    def test_packing_needs_exact_groups(self):
        # Profile {a:2, b:2}; blocks (1,1,2) can pack (1+1, 2); blocks (1,3)
        # cannot.
        task = CountTask(4, [{"a": 2, "b": 2}])
        assert task.solvable_from_sizes([1, 1, 2])
        assert task.solvable_from_sizes([2, 2])
        assert not task.solvable_from_sizes([1, 3])
        assert not task.solvable_from_sizes([4])

    def test_equal_counts_different_values(self):
        # {a:2, b:2} with blocks (2,2): both assignments work.
        task = CountTask(4, [{"a": 2, "b": 2}])
        assert task.solvable_from_sizes([1, 1, 1, 1])

    def test_repr(self):
        assert "leader-election" in repr(leader_election(3))
