"""Tests for port-assignment symmetries."""

import itertools

import pytest

from repro.analysis import (
    has_nontrivial_automorphism,
    source_preserving_automorphisms,
    symmetry_census,
)
from repro.models import adversarial_assignment, round_robin_assignment
from repro.randomness import RandomnessConfiguration


class TestAutomorphisms:
    def test_lemma43_shift_is_found(self):
        shape = (2, 2)
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = adversarial_assignment(shape)
        autos = list(source_preserving_automorphisms(ports, alpha))
        assert (1, 0, 3, 2) in autos  # the block shift f

    def test_round_robin_rotation_when_sources_allow(self):
        alpha = RandomnessConfiguration.shared(4)
        ports = round_robin_assignment(4)
        autos = list(source_preserving_automorphisms(ports, alpha))
        assert (1, 2, 3, 0) in autos  # the full rotation

    def test_source_constraint_filters(self):
        # With all-private sources no non-identity permutation preserves
        # the source map.
        alpha = RandomnessConfiguration.independent(4)
        ports = round_robin_assignment(4)
        assert not has_nontrivial_automorphism(ports, alpha)

    def test_size_mismatch(self):
        alpha = RandomnessConfiguration.independent(3)
        with pytest.raises(ValueError):
            list(
                source_preserving_automorphisms(
                    round_robin_assignment(4), alpha
                )
            )

    def test_matches_brute_force_over_all_two_two_assignments(self):
        from repro.analysis import iter_all_port_assignments

        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        identity = (0, 1, 2, 3)

        def brute_force(ports):
            return [
                perm
                for perm in itertools.permutations(range(4))
                if perm != identity
                and all(
                    alpha.source_of(perm[i]) == alpha.source_of(i)
                    for i in range(4)
                )
                and all(
                    ports.neighbour(perm[i], p) == perm[ports.neighbour(i, p)]
                    for i in range(4)
                    for p in range(1, 4)
                )
            ]

        for ports in iter_all_port_assignments(4):
            assert list(
                source_preserving_automorphisms(ports, alpha)
            ) == brute_force(ports)

    def test_automorphism_implies_unsolvable(self):
        """The sound direction, spot-checked beyond the census."""
        from repro.core import ConsistencyChain, leader_election

        shape = (3, 3)
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = adversarial_assignment(shape)
        assert has_nontrivial_automorphism(ports, alpha)
        assert not ConsistencyChain(alpha, ports).eventually_solvable(
            leader_election(6)
        )


class TestCensus:
    def test_census_passes(self):
        symmetry_census(shapes=((2, 2), (1, 3))).require_pass()

    def test_counts_for_two_two(self):
        result = symmetry_census(shapes=((2, 2),))
        row = result.rows[0]
        # 1296 assignments: 1152 solvable, 36 symmetric-unsolvable,
        # 108 asymmetric-unsolvable, 0 symmetric-solvable.
        assert row[2:7] == (1296, 1152, 36, 108, 0)
