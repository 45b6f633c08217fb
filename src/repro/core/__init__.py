"""The paper's framework: complexes, projections, solvability, probability.

This package is the reproduction's core contribution: per-facet solvability
of input-free symmetry-breaking tasks (Definitions 3.1/3.4), the
realization/protocol complex correspondence ``h``, the consistency
projections ``pi`` / ``pi~``, exact solving probabilities and their 0/1
limits, and the closed-form characterizations of Theorems 4.1 and 4.2 with
their ``k``-leader generalizations.
"""

from .anonymous_graphs import (
    color_refinement_fixpoint,
    deterministic_solvable,
    iter_labeling_verdicts,
    randomized_worst_case_solvable,
    worst_case_deterministic_solvable,
)
from .eventual import eventual_partition
from .hitting_time import (
    expected_solving_time,
    expected_time_table,
    solving_time_distribution,
    solving_time_quantile,
)
from .task_zoo import (
    blackboard_leader_and_deputy_solvable,
    blackboard_teams_solvable,
    blackboard_threshold_solvable,
    blackboard_unique_ids_solvable,
    leader_and_deputy,
    mp_worst_case_leader_and_deputy_solvable,
    mp_worst_case_teams_solvable,
    mp_worst_case_threshold_solvable,
    mp_worst_case_unique_ids_solvable,
    partition_into_teams,
    threshold_election,
    unique_ids,
)
from .characterization import (
    blackboard_k_leader_solvable,
    blackboard_solvable,
    blackboard_task_solvable,
    message_passing_worst_case_k_leader_solvable,
    message_passing_worst_case_solvable,
    message_passing_worst_case_task_solvable,
    two_leader_blackboard_solvable,
    two_leader_message_passing_solvable,
)
from .leader_election import (
    FOLLOWER,
    LEADER,
    k_leader_election,
    leader_election,
    leader_election_complex,
    leader_election_facet,
    weak_symmetry_breaking,
)
from .markov import (
    ConsistencyChain,
    PartitionState,
    canonical_state,
    is_refinement,
    single_block_state,
)
from .probability import (
    eventually_solvable,
    model_for,
    solving_probability_enumerated,
    solving_probability_exact,
    solving_probability_sampled,
    solving_probability_series,
    solving_realizations,
)
from .projection import (
    knowledge_projection,
    project_complex,
    project_facet,
    projected_realization_complex,
    realization_facet,
)
from .protocol_complex import (
    ProtocolComplexBuild,
    build_protocol_complex,
    facet_correspondence_is_bijective,
    protocol_facet,
)
from .round_operator import (
    evolve_facet,
    facet_successors,
    initial_protocol_complex,
    iterate_protocol_complex,
    round_operator,
)
from .reachability import (
    gcd_divides_k,
    minimum_reachable_class,
    reachable_multisets,
    worst_case_k_leader_solvable,
    worst_case_leader_election_solvable,
)
from .realization_complex import (
    facet_count,
    iter_realizations,
    realization_complex,
    succeeds,
    vertex_count,
)
from .solvability import (
    realization_solves,
    solves_by_definition_31,
    solves_by_definition_34,
    solves_by_forced_map,
)
from .tasks import CountTask, OutputComplexTask, Partition, SymmetryBreakingTask
from .zero_one import (
    blackboard_unique_source_linear_bound,
    blackboard_unique_source_lower_bound,
    classify_limit,
    is_monotone_non_decreasing,
)

__all__ = [
    "ConsistencyChain",
    "CountTask",
    "FOLLOWER",
    "LEADER",
    "OutputComplexTask",
    "Partition",
    "PartitionState",
    "ProtocolComplexBuild",
    "SymmetryBreakingTask",
    "blackboard_k_leader_solvable",
    "blackboard_leader_and_deputy_solvable",
    "blackboard_solvable",
    "blackboard_task_solvable",
    "blackboard_teams_solvable",
    "blackboard_threshold_solvable",
    "blackboard_unique_ids_solvable",
    "blackboard_unique_source_linear_bound",
    "blackboard_unique_source_lower_bound",
    "build_protocol_complex",
    "canonical_state",
    "classify_limit",
    "worst_case_deterministic_solvable",
    "randomized_worst_case_solvable",
    "iter_labeling_verdicts",
    "deterministic_solvable",
    "eventual_partition",
    "color_refinement_fixpoint",
    "eventually_solvable",
    "expected_solving_time",
    "expected_time_table",
    "facet_correspondence_is_bijective",
    "facet_count",
    "round_operator",
    "iterate_protocol_complex",
    "initial_protocol_complex",
    "facet_successors",
    "evolve_facet",
    "gcd_divides_k",
    "is_monotone_non_decreasing",
    "is_refinement",
    "iter_realizations",
    "k_leader_election",
    "knowledge_projection",
    "leader_and_deputy",
    "leader_election",
    "leader_election_complex",
    "leader_election_facet",
    "message_passing_worst_case_k_leader_solvable",
    "message_passing_worst_case_solvable",
    "message_passing_worst_case_task_solvable",
    "minimum_reachable_class",
    "model_for",
    "mp_worst_case_leader_and_deputy_solvable",
    "mp_worst_case_teams_solvable",
    "mp_worst_case_threshold_solvable",
    "mp_worst_case_unique_ids_solvable",
    "partition_into_teams",
    "project_complex",
    "project_facet",
    "projected_realization_complex",
    "protocol_facet",
    "reachable_multisets",
    "realization_complex",
    "realization_facet",
    "realization_solves",
    "single_block_state",
    "solves_by_definition_31",
    "solves_by_definition_34",
    "solves_by_forced_map",
    "solving_probability_enumerated",
    "solving_probability_exact",
    "solving_probability_sampled",
    "solving_probability_series",
    "solving_realizations",
    "solving_time_quantile",
    "solving_time_distribution",
    "succeeds",
    "threshold_election",
    "two_leader_blackboard_solvable",
    "two_leader_message_passing_solvable",
    "unique_ids",
    "vertex_count",
    "weak_symmetry_breaking",
    "worst_case_k_leader_solvable",
    "worst_case_leader_election_solvable",
]
