"""Experiment harness: one generator per figure/theorem of the paper.

Each generator returns an :class:`ExperimentResult` with measurements and a
verdict against the paper's prediction.  ``run_all_experiments()`` executes
the full reproduction sweep (used by ``examples/reproduce_paper.py``); the
individual generators back one benchmark file each.
"""

from ..obs import trace
from .convergence import convergence_rates, exact_tail_ratio, fitted_decay_rate
from .extensions import extension_expected_times, extension_task_zoo
from .graphs import extension_anonymous_graphs, ring_labeling_census
from .montecarlo import (
    Estimate,
    adaptive_estimate,
    estimate_solving_probability,
    parallel_estimate,
    wilson_interval,
)
from .report import (
    result_from_dict,
    result_to_csv,
    result_to_dict,
    result_to_markdown,
    results_from_json,
    results_to_json,
    write_report,
)
from .round_complexity import protocol_round_complexity
from .symmetry import (
    has_nontrivial_automorphism,
    source_preserving_automorphisms,
    symmetry_census,
)
from .worst_case_search import (
    exhaustive_worst_case,
    iter_all_port_assignments,
    port_orbit_table,
    worst_case_port_search,
)
from .figures import (
    figure1_protocol_complex,
    figure2_realization_complex,
    figure3_output_projection,
    figure4_solvability_equivalence,
)
from .protocols import (
    algorithm1_matching,
    euclid_protocol,
    lemma43_divisibility,
    theoremC1_reduction,
)
from .result import ExperimentResult
from .theorems import (
    extension_k_leader,
    lemma_b1_equiprobability,
    theorem41_blackboard,
    theorem41_convergence,
    theorem42_message_passing,
)

#: The full reproduction sweep, in paper order.
ALL_EXPERIMENTS = (
    figure1_protocol_complex,
    figure2_realization_complex,
    figure3_output_projection,
    figure4_solvability_equivalence,
    lemma_b1_equiprobability,
    theorem41_blackboard,
    theorem41_convergence,
    theorem42_message_passing,
    lemma43_divisibility,
    algorithm1_matching,
    euclid_protocol,
    theoremC1_reduction,
    extension_k_leader,
    extension_task_zoo,
    extension_expected_times,
    extension_anonymous_graphs,
    ring_labeling_census,
    protocol_round_complexity,
    worst_case_port_search,
    symmetry_census,
    convergence_rates,
)


def iter_all_experiments(engine=None):
    """Yield every experiment result as it completes, in paper order.

    ``engine`` (a :class:`repro.runner.engines.ExecutionEngine`) fans the
    generators out over a worker pool; ``None`` or a serial engine runs
    them in-process exactly as before.  Yielding lazily lets callers
    (like the ``experiments`` CLI command) stream output as each
    experiment finishes instead of waiting for the whole registry.
    In-process, each generator runs inside an ``analysis.experiment``
    span tagged with its name; pooled, inside its worker's
    ``runner.experiment`` span.
    """
    if engine is None or getattr(engine, "name", "serial") == "serial":
        for generator in ALL_EXPERIMENTS:
            with trace("analysis.experiment", generator=generator.__name__):
                result = generator()
            yield result
        return
    from ..runner.worker import execute_experiment, payload_context

    # The caller's context (e.g. the quotient mode) travels with every
    # pool payload, so workers compile exactly what this process would.
    context = payload_context()
    payloads = [
        {"index": i, "context": context} for i in range(len(ALL_EXPERIMENTS))
    ]
    for record in engine.map(execute_experiment, payloads):
        # Fold the worker's traced spans/counters into this process
        # before handing the live result on (the sweep orchestrator
        # treatment, closing the experiment-path telemetry gap).
        telemetry = record.pop("telemetry", None)
        if telemetry is not None:
            from ..obs import merge_telemetry

            merge_telemetry(telemetry)
        yield record["result"]


def run_all_experiments(engine=None) -> list[ExperimentResult]:
    """Run every experiment with default parameters, in paper order.

    Materialized form of :func:`iter_all_experiments`.
    """
    return list(iter_all_experiments(engine))


__all__ = [
    "ALL_EXPERIMENTS",
    "Estimate",
    "ExperimentResult",
    "adaptive_estimate",
    "estimate_solving_probability",
    "parallel_estimate",
    "protocol_round_complexity",
    "result_from_dict",
    "result_to_csv",
    "result_to_dict",
    "result_to_markdown",
    "results_from_json",
    "results_to_json",
    "wilson_interval",
    "write_report",
    "exhaustive_worst_case",
    "has_nontrivial_automorphism",
    "iter_all_port_assignments",
    "port_orbit_table",
    "source_preserving_automorphisms",
    "symmetry_census",
    "worst_case_port_search",
    "algorithm1_matching",
    "convergence_rates",
    "euclid_protocol",
    "exact_tail_ratio",
    "fitted_decay_rate",
    "extension_anonymous_graphs",
    "extension_expected_times",
    "extension_k_leader",
    "extension_task_zoo",
    "figure1_protocol_complex",
    "ring_labeling_census",
    "figure2_realization_complex",
    "figure3_output_projection",
    "figure4_solvability_equivalence",
    "iter_all_experiments",
    "lemma43_divisibility",
    "lemma_b1_equiprobability",
    "run_all_experiments",
    "theoremC1_reduction",
    "theorem41_blackboard",
    "theorem41_convergence",
    "theorem42_message_passing",
]
