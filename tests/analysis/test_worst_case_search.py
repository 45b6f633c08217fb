"""Tests for the exhaustive worst-case port search."""

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis import (
    exhaustive_worst_case,
    iter_all_port_assignments,
    port_orbit_table,
    symmetry_census,
    worst_case_port_search,
)
from repro.chain import compile_chain
from repro.core import ConsistencyChain, leader_election
from repro.models import PortAssignment, adversarial_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes


def _relabel(ports, g):
    """``g.T`` with ``(g.T)[g(i)] = g(T[i])``."""
    rows = [None] * ports.n
    for i in range(ports.n):
        rows[g[i]] = [g[j] for j in ports.neighbours(i)]
    return PortAssignment(rows)


def _relabelings(alpha):
    """Node permutations mapping every source group onto a source group."""
    groups = {frozenset(group) for group in alpha.groups()}
    return [
        g
        for g in itertools.permutations(range(alpha.n))
        if all(frozenset(g[i] for i in group) in groups for group in groups)
    ]


def _strictly_symmetric(ports, alpha):
    """Brute force over all n! permutations: a non-identity one fixing
    every source and every port."""
    n = ports.n
    return any(
        g != tuple(range(n))
        and all(alpha.source_of(g[i]) == alpha.source_of(i) for i in range(n))
        and _relabel(ports, g) == ports
        for g in itertools.permutations(range(n))
    )


def _reference(shape):
    """The literal per-assignment loop: one compile per assignment.

    Returns ``(min, max, #solvable, #assignments, census split)`` where
    the split counts ``(solvable, symmetric)`` pairs.
    """
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    task = leader_election(alpha.n)
    limits = []
    split = Counter()
    for ports in iter_all_port_assignments(alpha.n):
        limit = compile_chain(
            alpha, ports, use_memo=False
        ).limit_solving_probability(task)
        limits.append(limit)
        split[limit == 1, _strictly_symmetric(ports, alpha)] += 1
    solvable = sum(limit == 1 for limit in limits)
    return min(limits), max(limits), solvable, len(limits), split


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in iter_all_port_assignments(2)) == 1
        assert sum(1 for _ in iter_all_port_assignments(3)) == 8
        assert sum(1 for _ in iter_all_port_assignments(4)) == 1296

    def test_all_distinct(self):
        found = list(iter_all_port_assignments(3))
        assert len(set(found)) == len(found)

    def test_guard(self):
        with pytest.raises(ValueError):
            list(iter_all_port_assignments(5, limit=100))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_lexicographic_order(self, n):
        """The index arithmetic enumerates the product of each node's
        port orders, the last node varying fastest."""
        per_node = [
            itertools.permutations([x for x in range(n) if x != i])
            for i in range(n)
        ]
        assert [
            PortAssignment(rows) for rows in itertools.product(*per_node)
        ] == list(iter_all_port_assignments(n))


class TestExhaustiveWorstCase:
    def test_gcd_one_all_assignments_solve(self):
        lowest, highest, solvable, total = exhaustive_worst_case((1, 2))
        assert lowest == highest == 1
        assert solvable == total == 8

    def test_shared_source_no_assignment_solves(self):
        lowest, highest, solvable, total = exhaustive_worst_case((3,))
        assert lowest == highest == 0
        assert solvable == 0

    def test_two_two_mixed(self):
        """(2,2): most assignments solve, the adversarial ones do not."""
        lowest, highest, solvable, total = exhaustive_worst_case((2, 2))
        assert lowest == 0
        assert highest == 1
        assert 0 < solvable < total

    def test_lemma43_attains_minimum(self):
        for shape in ((2, 2), (1, 3)):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            task = leader_election(alpha.n)
            lemma_limit = ConsistencyChain(
                alpha, adversarial_assignment(shape)
            ).limit_solving_probability(task)
            lowest, _, _, _ = exhaustive_worst_case(shape)
            assert lemma_limit == lowest

    def test_limits_always_zero_or_one(self):
        """Zero-one law over the whole assignment space of n=3."""
        for shape in ((1, 2), (3,), (1, 1, 1)):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            task = leader_election(3)
            for ports in iter_all_port_assignments(3):
                limit = ConsistencyChain(
                    alpha, ports
                ).limit_solving_probability(task)
                assert limit in (Fraction(0), Fraction(1))


class TestExperiment:
    def test_small_sweep_passes(self):
        worst_case_port_search(shapes=((1, 2), (3,), (2, 2))).require_pass()

    def test_prediction_matches_gcd(self):
        result = worst_case_port_search(shapes=((2, 2), (1, 3)))
        for row in result.rows:
            shape = row[0]
            assert (row[4] == 1.0) == (math.gcd(*shape) == 1)


#: Every shape with n <= 4: the whole domain of the orbit table.
ORACLE_SHAPES = tuple(
    shape for n in range(1, 5) for shape in enumerate_size_shapes(n)
)


class TestPortOrbitTable:
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_the_per_assignment_loop(self, shape):
        lowest, highest, solvable, total, split = _reference(shape)
        assert exhaustive_worst_case(shape) == (
            lowest, highest, solvable, total
        )
        table_split = Counter()
        for row in port_orbit_table(shape):
            table_split[row.limit == 1, row.symmetric] += row.size
        assert table_split == split

    def test_census_rows_match_the_per_assignment_loop(self):
        for shape, row in zip(
            ((2, 2), (4,)), symmetry_census(shapes=((2, 2), (4,))).rows
        ):
            _, _, solvable, total, split = _reference(shape)
            assert row[2:7] == (
                total,
                solvable,
                split[False, True],
                split[False, False],
                split[True, True],
            )

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_burnside_identities(self, shape):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        group = _relabelings(alpha)
        position = {
            ports: index
            for index, ports in enumerate(iter_all_port_assignments(alpha.n))
        }
        table = port_orbit_table(shape)
        assert sum(row.size for row in table) == math.factorial(
            alpha.n - 1
        ) ** alpha.n
        for row in table:
            images = [_relabel(row.ports, g) for g in group]
            stabilizer = sum(image == row.ports for image in images)
            assert row.size * stabilizer == len(group)
            assert len(set(images)) == row.size
            # The representative is the orbit's first enumerated member.
            assert min(position[image] for image in images) == position[
                row.ports
            ]

    def test_same_rows_cold_or_warm(self):
        """The memoized table is the same object warm and equal rows
        when rebuilt cold, whatever ran before."""
        port_orbit_table.cache_clear()
        cold = port_orbit_table((1, 1, 2))
        assert port_orbit_table((1, 1, 2)) is cold
        port_orbit_table.cache_clear()
        assert port_orbit_table((1, 1, 2)) == cold

    def test_rows_compile_no_chain(self):
        """Limits come from the eventual-partition oracle, so the
        per-assignment loop in ``_reference`` is a chain-against-oracle
        check; no ``compile_chain`` frame runs while the table builds."""
        compiled = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "compile_chain":
                compiled.append(frame.f_code.co_filename)

        port_orbit_table.cache_clear()
        sys.setprofile(profile)
        try:
            table = port_orbit_table((2, 2))
        finally:
            sys.setprofile(None)
            port_orbit_table.cache_clear()
        assert len(table) == 177
        assert compiled == []
