"""Single-instance facts of the paper's constructions, one per result.

Each test pins one exact value a figure, lemma, theorem or extension
rests on, at a size small enough for tier-1: facet counts of the
complexes, chain limits and series, the enumeration oracle, and single
protocol runs at fixed seeds.  The experiments themselves run end to end
in ``test_experiment_registry.py``.
"""

from repro.algorithms import (
    OBSERVER,
    V1,
    V2,
    CliqueNetwork,
    CreateMatchingNode,
    EuclidLeaderNode,
    consensus_on_max,
    matching_summary,
    solve_name_independent_task,
)
from repro.analysis import (
    exact_tail_ratio,
    exhaustive_worst_case,
    has_nontrivial_automorphism,
)
from repro.analysis.round_complexity import _protocol_mean_rounds
from repro.core import (
    ConsistencyChain,
    build_protocol_complex,
    color_refinement_fixpoint,
    expected_solving_time,
    leader_election,
    leader_election_complex,
    project_complex,
    reachable_multisets,
    realization_complex,
    solving_probability_enumerated,
    solving_probability_sampled,
    unique_ids,
    worst_case_deterministic_solvable,
    worst_case_k_leader_solvable,
)
from repro.models import (
    BlackboardModel,
    GraphTopology,
    MessagePassingModel,
    adversarial_assignment,
    random_assignment,
)
from repro.randomness import (
    RandomnessConfiguration,
    iter_consistent_realizations,
    realization_probability,
)


def config(*sizes):
    return RandomnessConfiguration.from_group_sizes(sizes)


class TestComplexes:
    def test_figure1_protocol_complex_has_64_facets(self):
        assert build_protocol_complex(BlackboardModel(2), 3).facet_count() \
            == 64

    def test_figure2_realization_complex_size(self):
        complex_ = realization_complex(3, 2)
        assert complex_.facet_count() == 64
        assert len(complex_.vertices()) == 12

    def test_figure3_projection_isolates_every_vertex_at_n7(self):
        projected = project_complex(leader_election_complex(7))
        assert len(projected.isolated_vertices()) == 7


class TestChains:
    def test_theorem41_series_grows_and_matches_enumeration(self):
        alpha, task = config(1, 2, 3), leader_election(6)
        series = ConsistencyChain(alpha).solving_probability_series(task, 8)
        assert series[-1] > series[0]
        assert solving_probability_enumerated(alpha, task, 4) == series[3]

    def test_theorem41_long_horizon_converges(self):
        series = ConsistencyChain(config(1, 2, 2)).solving_probability_series(
            leader_election(5), 24
        )
        assert float(series[-1]) > 0.999999

    def test_theorem42_adversarial_limit_at_2_3(self):
        chain = ConsistencyChain(config(2, 3), adversarial_assignment((2, 3)))
        assert chain.limit_solving_probability(leader_election(5)) == 1

    def test_chain_matches_enumeration_and_sampling_at_1_2_2(self):
        alpha, task = config(1, 2, 2), leader_election(5)
        exact = solving_probability_enumerated(alpha, task, 4)
        assert 0 < exact < 1
        assert ConsistencyChain(alpha).solving_probability(task, 4) == exact
        estimate = solving_probability_sampled(
            alpha, task, 4, samples=2000, seed=1
        )
        assert abs(estimate - float(exact)) < 0.05

    def test_tail_ratio_of_1_2_2_2_is_one_half(self):
        ratio = exact_tail_ratio(
            ConsistencyChain(config(1, 2, 2, 2)), leader_election(7),
            horizon=30,
        )
        assert abs(float(ratio) - 0.5) < 1e-6

    def test_task_zoo_adversarial_cells(self):
        ports = adversarial_assignment((1, 2, 3))
        expected = expected_solving_time(
            ConsistencyChain(config(1, 2, 3), ports), leader_election(6)
        )
        assert expected is not None and expected >= 1
        chain = ConsistencyChain(config(2, 3), adversarial_assignment((2, 3)))
        assert chain.limit_solving_probability(unique_ids(5)) == 1

    def test_exhaustive_worst_case_of_2_2(self):
        assert exhaustive_worst_case((2, 2)) == (0, 1, 1152, 1296)


class TestLemmas:
    def test_lemma43_adversarial_blocks_divide_by_gcd(self):
        alpha = config(3, 3)
        model = MessagePassingModel(adversarial_assignment((3, 3)))
        for rho in iter_consistent_realizations(alpha, 3):
            assert all(len(block) % 3 == 0 for block in model.partition(rho))

    def test_lemma_b1_realization_probabilities_sum_to_one(self):
        alpha = config(1, 2, 3)
        assert sum(
            realization_probability(rho, alpha)
            for rho in iter_consistent_realizations(alpha, 4)
        ) == 1

    def test_k_leader_closure_and_divisibility(self):
        assert (1,) * 29 in reachable_multisets((4, 6, 9, 10))
        assert [
            worst_case_k_leader_solvable((4, 6, 8), k) for k in range(1, 19)
        ] == [k % 2 == 0 for k in range(1, 19)]

    def test_adversarial_3_3_clique_has_an_automorphism(self):
        assert has_nontrivial_automorphism(
            adversarial_assignment((3, 3)), config(3, 3)
        )


class TestGraphs:
    def test_colour_refinement_separates_the_sides_of_k34(self):
        fixpoint = color_refinement_fixpoint(
            GraphTopology.complete_bipartite(3, 4)
        )
        assert len(fixpoint) >= 2

    def test_k23_elects_deterministically_with_back_ports(self):
        assert worst_case_deterministic_solvable(
            GraphTopology.complete_bipartite(2, 3), leader_election(5),
            include_back_ports=True,
        ) is True


class TestProtocols:
    def test_reduction_solves_consensus_on_max(self):
        outputs, election = solve_name_independent_task(
            config(2, 3), (4, 1, 2, 2, 4), consensus_on_max,
            ports=adversarial_assignment((2, 3)), seed=1,
        )
        assert outputs == (4, 4, 4, 4, 4)
        assert election.all_decided

    def test_blackboard_election_mean_rounds(self):
        mean, _ = _protocol_mean_rounds((1, 2, 2), clique=False, runs=100)
        assert 2.0 <= mean <= 6.0

    def test_algorithm1_matches_all_of_v1(self):
        roles = iter([V1] * 4 + [V2] * 7 + [OBSERVER])
        network = CliqueNetwork(
            RandomnessConfiguration.independent(12), random_assignment(12, 3),
            lambda: CreateMatchingNode(next(roles)), seed=5,
        )
        result = network.run(max_rounds=30)
        assert matching_summary(result.outputs)["matched"] == 8

    def test_euclid_elects_one_leader_at_3_4(self):
        network = CliqueNetwork(
            config(3, 4), adversarial_assignment((3, 4)), EuclidLeaderNode,
            seed=2,
        )
        result = network.run(max_rounds=96)
        assert result.all_decided and len(result.leaders()) == 1
