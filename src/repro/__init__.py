"""repro -- reproduction of "The Topology of Randomized Symmetry-Breaking
Distributed Computing" (Fraigniaud, Gelles, Lotker; PODC 2021).

The package implements the paper's topological framework for randomized
algorithms in synchronous anonymous systems, end to end:

* :mod:`repro.topology` -- simplicial complexes, simplicial maps, homology;
* :mod:`repro.randomness` -- randomness sources, configurations ``alpha``,
  realization probabilities (Lemma B.1);
* :mod:`repro.models` -- blackboard and port-numbered message passing,
  knowledge evolution, the Lemma 4.3 adversarial port assignment;
* :mod:`repro.core` -- protocol/realization complexes, consistency
  projections, solvability (Definitions 3.1/3.4), exact ``Pr[S(t)|alpha]``
  and its 0/1 limits, Theorems 4.1/4.2 and generalizations;
* :mod:`repro.chain` -- the compiled consistency-chain engine behind
  :class:`~repro.core.markov.ConsistencyChain`: interned states, sparse
  transition matrices, dual exact/float backends and a process-wide
  memo (see ``CHAIN.md``);
* :mod:`repro.algorithms` -- runnable protocols: blackboard leader
  election, Algorithm 1 (CreateMatching), the Euclid-style leader election,
  and the Theorem C.1 reduction;
* :mod:`repro.analysis` -- the experiment harness regenerating every figure
  and theorem of the paper;
* :mod:`repro.runner` -- parallel experiment orchestration: declarative
  sweeps, serial/process-pool engines with deterministic per-job seed
  streams, and resumable JSONL run directories;
* :mod:`repro.results` -- the columnar results warehouse and cross-run
  query memo serving reports and repeated sweeps (see ``STORE.md``);
* :mod:`repro.obs` -- span tracing and metrics across the chain/runner/
  warehouse stack, persisted and queryable (see ``OBS.md``);
* :mod:`repro.context` -- how jobs run (quotient mode, query memo,
  tracing) as one scoped value;
* :mod:`repro.viz` -- ASCII/DOT rendering of the paper's figures.

Quickstart::

    from repro import RandomnessConfiguration, leader_election
    from repro.core import ConsistencyChain

    alpha = RandomnessConfiguration.from_group_sizes([2, 3])
    chain = ConsistencyChain(alpha)          # blackboard model
    task = leader_election(alpha.n)
    chain.eventually_solvable(task)          # False: no n_i == 1 (Thm 4.1)
"""

from .chain import CompiledChain, compile_chain
from .core import (
    ConsistencyChain,
    CountTask,
    OutputComplexTask,
    SymmetryBreakingTask,
    blackboard_solvable,
    eventually_solvable,
    k_leader_election,
    leader_election,
    message_passing_worst_case_solvable,
    solving_probability_exact,
    solving_probability_series,
    weak_symmetry_breaking,
)
from .models import (
    BlackboardModel,
    MessagePassingModel,
    PortAssignment,
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from .randomness import RandomnessConfiguration, enumerate_size_shapes
from .runner import (
    ProcessPoolEngine,
    RunDirectory,
    RunSpec,
    SerialEngine,
    SweepSpec,
    derive_seed,
    make_engine,
    run_sweep,
)
from .topology import Simplex, SimplicialComplex, Vertex

__version__ = "1.0.0"

__all__ = [
    "BlackboardModel",
    "CompiledChain",
    "ConsistencyChain",
    "CountTask",
    "MessagePassingModel",
    "OutputComplexTask",
    "PortAssignment",
    "ProcessPoolEngine",
    "RandomnessConfiguration",
    "RunDirectory",
    "RunSpec",
    "SerialEngine",
    "Simplex",
    "SimplicialComplex",
    "SweepSpec",
    "SymmetryBreakingTask",
    "Vertex",
    "adversarial_assignment",
    "blackboard_solvable",
    "compile_chain",
    "derive_seed",
    "enumerate_size_shapes",
    "eventually_solvable",
    "k_leader_election",
    "leader_election",
    "make_engine",
    "message_passing_worst_case_solvable",
    "random_assignment",
    "round_robin_assignment",
    "run_sweep",
    "solving_probability_exact",
    "solving_probability_series",
    "weak_symmetry_breaking",
    "__version__",
]
