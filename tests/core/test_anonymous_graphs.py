"""Unit tests for the anonymous-graphs slice of the framework."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.chain import compile_chain
from repro.core import (
    ConsistencyChain,
    anonymous_graphs,
    color_refinement_fixpoint,
    deterministic_solvable,
    iter_labeling_verdicts,
    leader_election,
    randomized_worst_case_solvable,
    single_block_state,
    worst_case_deterministic_solvable,
)
from repro.core.anonymous_graphs import labeling_orbits
from repro.models import GraphTopology
from repro.randomness import RandomnessConfiguration


class TestColorRefinement:
    def test_vertex_transitive_graph_stays_uniform(self):
        ring = GraphTopology.ring(4)  # canonical orientation labeling
        assert color_refinement_fixpoint(ring) == single_block_state(4)

    def test_path_centre_isolated(self):
        fixpoint = color_refinement_fixpoint(GraphTopology.path(5))
        assert (2,) in fixpoint  # the centre is a singleton class

    def test_star_hub_isolated(self):
        fixpoint = color_refinement_fixpoint(GraphTopology.star(4))
        assert (0,) in fixpoint

    def test_bipartite_sides_split_by_degree(self):
        fixpoint = color_refinement_fixpoint(
            GraphTopology.complete_bipartite(2, 3)
        )
        blocks = {frozenset(b) for b in fixpoint}
        # the left side {0,1} and right side {2,3,4} are separated
        assert all(
            block <= {0, 1} or block <= {2, 3, 4} for block in blocks
        )

    def test_fixpoint_is_stable(self):
        topology = GraphTopology.complete_bipartite(2, 4)
        alpha = RandomnessConfiguration.shared(6)
        chain = ConsistencyChain(alpha, topology, include_back_ports=True)
        fixpoint = color_refinement_fixpoint(topology)
        assert chain.refine(fixpoint, (0,)) == fixpoint


class TestClassicalResults:
    def test_angluin_rings(self):
        for n in (3, 4, 5):
            assert not worst_case_deterministic_solvable(
                GraphTopology.ring(n), leader_election(n)
            )

    def test_some_ring_labelings_do_solve(self):
        """Port numbers are extra structure: asymmetric labelings break
        the rotational symmetry (Boldi et al. fibrations)."""
        verdicts = [
            v
            for _, v in iter_labeling_verdicts(
                GraphTopology.ring(3), leader_election(3)
            )
        ]
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_codenotti_bipartite(self, m, n):
        base = GraphTopology.complete_bipartite(m, n)
        got = worst_case_deterministic_solvable(
            base, leader_election(m + n), include_back_ports=True
        )
        assert got == (math.gcd(m, n) == 1 and (m, n) != (1, 1))

    def test_k11_is_the_exception(self):
        """gcd(1,1)=1 but two fully symmetric nodes cannot elect."""
        base = GraphTopology.complete_bipartite(1, 1)
        assert not worst_case_deterministic_solvable(
            base, leader_election(2), include_back_ports=True
        )

    def test_paths_odd_iff(self):
        for n in (2, 3, 4, 5):
            assert worst_case_deterministic_solvable(
                GraphTopology.path(n), leader_election(n)
            ) == (n % 2 == 1)

    def test_randomness_rescues_the_ring(self):
        n = 4
        assert randomized_worst_case_solvable(
            GraphTopology.ring(n),
            RandomnessConfiguration.independent(n),
            leader_election(n),
        )

    def test_shared_source_ring_stays_stuck_even_randomized(self):
        """One shared source on a symmetric ring labeling: the chain limit
        must be 0 (randomness carries no distinguishing information)."""
        n = 4
        alpha = RandomnessConfiguration.shared(n)
        chain = ConsistencyChain(alpha, GraphTopology.ring(n))
        assert chain.limit_solving_probability(leader_election(n)) == 0


class TestTheorem42Robustness:
    def test_back_ports_do_not_change_clique_characterization(self):
        """Theorem 4.2 is stated for Eq. (2) knowledge; the classical
        semantics gives the same worst-case answers on the clique."""
        from repro.models import adversarial_assignment
        from repro.randomness import enumerate_size_shapes

        for n in range(2, 6):
            task = leader_election(n)
            for shape in enumerate_size_shapes(n):
                alpha = RandomnessConfiguration.from_group_sizes(shape)
                ports = adversarial_assignment(shape)
                plain = ConsistencyChain(alpha, ports).eventually_solvable(
                    task
                )
                classical = ConsistencyChain(
                    alpha, ports, include_back_ports=True
                ).eventually_solvable(task)
                assert plain == classical == (alpha.gcd == 1), shape


class TestValidation:
    def test_blackboard_back_ports_rejected(self):
        alpha = RandomnessConfiguration.independent(3)
        with pytest.raises(ValueError):
            ConsistencyChain(alpha, None, include_back_ports=True)

    def test_size_mismatch(self):
        alpha = RandomnessConfiguration.independent(3)
        with pytest.raises(ValueError):
            randomized_worst_case_solvable(
                GraphTopology.ring(4), alpha, leader_election(4)
            )


class TestLabelingOrbits:
    @pytest.mark.parametrize(
        "base",
        [GraphTopology.ring(3), GraphTopology.ring(4), GraphTopology.ring(5),
         GraphTopology.path(5), GraphTopology.complete_bipartite(2, 3)],
        ids=["C3", "C4", "C5", "P5", "K23"],
    )
    def test_orbit_sizes_sum_to_the_labeling_count(self, base):
        for alpha in (RandomnessConfiguration.independent(base.n),
                      RandomnessConfiguration.from_group_sizes((2, base.n - 2))):
            tables, first, inverse = labeling_orbits(base, alpha.assignment)
            assert len(tables) == base.labeling_count()
            sizes = np.bincount(inverse)
            assert sizes.sum() == base.labeling_count()
            assert (inverse[first] == np.arange(len(first))).all()

    @pytest.mark.parametrize("split", [False, True], ids=["private", "two"])
    def test_ring_chain_verdicts_are_orbit_constant(self, split):
        """A one-shot chain on every labeling of C_3..C_5 gives its
        orbit representative's verdict (the representatives are the
        only chains the randomized worst case compiles).  With two
        sources both verdicts occur."""
        chains = 0
        seen = set()
        for n in (3, 4, 5):
            base = GraphTopology.ring(n)
            alpha = (
                RandomnessConfiguration.from_group_sizes((n // 2, n - n // 2))
                if split
                else RandomnessConfiguration.independent(n)
            )
            task = leader_election(n)
            _, first, inverse = labeling_orbits(base, alpha.assignment)
            verdicts = [
                compile_chain(
                    alpha, labeled, include_back_ports=True, use_memo=False
                ).eventually_solvable(task)
                for labeled in base.iter_labelings()
            ]
            for index, orbit in enumerate(inverse.tolist()):
                assert verdicts[index] == verdicts[first[orbit]], (n, index)
            chains += len(first)
            seen.update(verdicts)
        if split:
            assert seen == {False, True}
        else:
            assert chains == 10  # of 8 + 16 + 32 labelings

    def test_randomized_worst_case_compiles_one_chain_per_orbit(
        self, monkeypatch
    ):
        import repro.chain

        compiled = []
        real = repro.chain.compile_chain

        def counting(*args, **kwargs):
            compiled.append(kwargs.get("use_memo"))
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.chain, "compile_chain", counting)
        assert randomized_worst_case_solvable(
            GraphTopology.ring(5),
            RandomnessConfiguration.independent(5),
            leader_election(5),
        )
        assert compiled == [False] * 4


class TestChunkedSweep:
    def test_k33_stops_after_one_chunk(self, monkeypatch):
        """K_{3,3} has 46,656 labelings; the first chunk already holds an
        unsolvable one, so the sweep refines one chunk and stops."""
        calls = []
        real = anonymous_graphs.eventual_labels

        def counting(source, behind, back=None):
            calls.append(len(behind))
            return real(source, behind, back)

        monkeypatch.setattr(anonymous_graphs, "eventual_labels", counting)
        base = GraphTopology.complete_bipartite(3, 3)
        assert base.labeling_count() == 46656
        assert not worst_case_deterministic_solvable(base, leader_election(6))
        assert calls == [anonymous_graphs.CHUNK]

    def test_chunked_verdicts_match_one_labeling_calls(self):
        base = GraphTopology.complete_bipartite(2, 3)
        task = leader_election(5)
        for back_ports in (False, True):
            got = [
                (labeled, verdict)
                for labeled, verdict in iter_labeling_verdicts(
                    base, task, include_back_ports=back_ports
                )
            ]
            assert [labeled for labeled, _ in got] == list(
                base.iter_labelings()
            )
            assert [verdict for _, verdict in got] == [
                deterministic_solvable(
                    labeled, task, include_back_ports=back_ports
                )
                for labeled in base.iter_labelings()
            ]

    def test_labeling_limit_guard(self):
        with pytest.raises(ValueError, match="exceed the limit"):
            worst_case_deterministic_solvable(
                GraphTopology.complete_bipartite(3, 3),
                leader_election(6),
                limit=1000,
            )
