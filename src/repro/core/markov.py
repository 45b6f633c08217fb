"""Exact analysis of the consistency partition as a Markov chain.

The consistency relation ``~t`` (knowledge equality) induces a partition of
the nodes at every time, and the partition at time ``t+1`` is a
*deterministic* function of the partition at time ``t`` and the round's
source bits:

* blackboard (Eq. 1): ``i ~' j  iff  i ~ j  and  bit_i == bit_j``;
* message passing (Eq. 2): additionally ``pi_i(p) ~ pi_j(p)`` for every
  port ``p`` (received tuples are compared port-wise).

Only bit *equalities* matter, never bit values, so the partition evolves as
a Markov chain whose per-round input is one of the ``2^k`` equally-likely
source-bit vectors.  The chain is monotone: partitions only refine.  This
yields

* :meth:`ConsistencyChain.state_distribution` -- the exact distribution of
  the partition at any time ``t`` (Fractions, no enumeration of ``2^{tk}``
  realizations);
* :meth:`ConsistencyChain.solving_probability` -- the exact
  ``Pr[S(t) | alpha]`` for any symmetric task;
* :meth:`ConsistencyChain.limit_solving_probability` -- the exact limit
  ``lim_t Pr[S(t) | alpha]``, computed by absorption analysis over the
  (finite, acyclic-up-to-self-loops) refinement lattice.  Lemma 3.2 says
  the limit must be 0 or 1; the test suite asserts that on sweeps, making
  the zero-one law machine-checked rather than assumed.

Since the compiled-engine refactor this module is a thin *facade* over
:mod:`repro.chain`: the reachable state space is explored exactly once
per ``(alpha, ports)`` across the whole process (hash-consed label
vectors, sparse integer transition arrays), and every probability
query here is asked of the compiled chain through the query front door
(:func:`repro.chain.run_queries`).  ``backend="exact"`` (default)
returns the same ``Fraction`` values the seed implementation produced;
``backend="float"`` switches the probability queries to numpy
``float64`` for long horizons and large state spaces.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ..chain import (
    MAX_NODES,
    CompiledChain,
    Query,
    back_port_tables,
    blocks_from_labels,
    compile_chain,
    labels_from_blocks,
    neighbour_tables,
    refine_labels,
    run_queries,
    validate_backend,
)
from ..randomness.configuration import RandomnessConfiguration
from .tasks import SymmetryBreakingTask

#: Canonical partition state: sorted tuple of sorted node tuples.
PartitionState = tuple[tuple[int, ...], ...]


def canonical_state(blocks: "list[frozenset[int]] | PartitionState") -> PartitionState:
    """Canonicalize a partition into a hashable, ordered state."""
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


def single_block_state(n: int) -> PartitionState:
    """The time-0 partition: every node holds ``bottom``."""
    return (tuple(range(n)),)


def is_refinement(fine: PartitionState, coarse: PartitionState) -> bool:
    """True when every block of ``fine`` lies inside a block of ``coarse``."""
    membership = {}
    for index, block in enumerate(coarse):
        for node in block:
            membership[node] = index
    return all(
        len({membership[node] for node in block}) == 1 for block in fine
    )


class ConsistencyChain:
    """The Markov chain of consistency partitions for one configuration.

    ``ports=None`` selects the blackboard model; a
    :class:`~repro.models.ports.PortAssignment` (clique) or a
    :class:`~repro.models.graph.GraphTopology` (arbitrary connected graph)
    selects message passing on that labeling.  With
    ``include_back_ports=True`` the refinement additionally uses the
    sender-side port of each received message (the classical
    anonymous-network semantics; see
    :mod:`repro.models.graph_model`).

    ``backend`` selects the arithmetic of the probability queries:
    ``"exact"`` (Fraction, the default and the seed semantics) or
    ``"float"`` (numpy float64).  Structural queries --
    :meth:`reachable_states`, :meth:`transitions`,
    :meth:`state_distribution`, :meth:`eventually_solvable` -- stay
    exact under either backend.
    """

    def __init__(
        self,
        alpha: RandomnessConfiguration,
        ports=None,
        *,
        include_back_ports: bool = False,
        backend: str = "exact",
    ):
        if alpha.n > MAX_NODES:
            raise ValueError(
                f"exact chain supports n <= {MAX_NODES}, got {alpha.n}"
            )
        if ports is not None and ports.n != alpha.n:
            raise ValueError("port assignment size does not match alpha")
        if ports is None and include_back_ports:
            raise ValueError("back ports are meaningless on a blackboard")
        self.alpha = alpha
        self.ports = ports
        self.include_back_ports = include_back_ports
        self.backend = validate_backend(backend)
        self._neigh = None if ports is None else neighbour_tables(ports)
        self._back = (
            back_port_tables(ports)
            if ports is not None and include_back_ports
            else None
        )
        self._compiled: CompiledChain | None = None
        self._transition_cache: dict[
            PartitionState, dict[PartitionState, Fraction]
        ] = {}

    @property
    def compiled(self) -> CompiledChain:
        """The underlying compiled chain (shared process-wide)."""
        if self._compiled is None:
            self._compiled = compile_chain(
                self.alpha,
                self.ports,
                include_back_ports=self.include_back_ports,
            )
        return self._compiled

    # ------------------------------------------------------------------
    # One-round refinement
    # ------------------------------------------------------------------
    def refine(
        self, state: PartitionState, source_bits: tuple[int, ...]
    ) -> PartitionState:
        """Apply one synchronous round with the given per-source bits."""
        n = self.alpha.n
        labels = labels_from_blocks(state)
        node_bits = tuple(
            source_bits[self.alpha.source_of(i)] for i in range(n)
        )
        nxt = refine_labels(labels, node_bits, self._neigh, self._back)
        return blocks_from_labels(nxt)

    def transitions(
        self, state: PartitionState
    ) -> dict[PartitionState, Fraction]:
        """Next-state distribution from ``state`` (one round)."""
        cached = self._transition_cache.get(state)
        if cached is not None:
            return cached
        compiled = self.compiled
        sid = compiled.state_id(labels_from_blocks(state))
        if sid is not None:
            out = {
                compiled.partition_of(dst): Fraction(cnt, compiled.denom)
                for dst, cnt in compiled.out_edges(sid)
            }
        else:
            # Unreachable (hence uncompiled) states still answer: the same
            # halved enumeration the compiler uses, on this one state.
            k = self.alpha.k
            out = {}
            weight = Fraction(1, 2 ** (k - 1)) if k > 1 else Fraction(1)
            for rest in itertools.product((0, 1), repeat=k - 1):
                nxt = self.refine(state, (0, *rest))
                out[nxt] = out.get(nxt, Fraction(0)) + weight
        self._transition_cache[state] = out
        return out

    # ------------------------------------------------------------------
    # Exact finite-time distribution
    # ------------------------------------------------------------------
    def state_distribution(
        self, t: int
    ) -> dict[PartitionState, Fraction]:
        """Exact distribution of the consistency partition at time ``t``."""
        compiled = self.compiled
        return {
            compiled.partition_of(sid): prob
            for sid, prob in compiled.state_distribution(t).items()
        }

    def solving_probability(
        self, task: SymmetryBreakingTask, t: int
    ) -> "Fraction | float":
        """``Pr[S(t) | alpha]`` for a symmetric task (exact by default)."""
        return self._ask(Query.probability(task, t))

    def solving_probability_series(
        self, task: SymmetryBreakingTask, t_max: int
    ) -> "list[Fraction] | list[float]":
        """``[Pr[S(1)], ..., Pr[S(t_max)]]`` sharing work across times."""
        return self._ask(Query.series(task, t_max))

    # ------------------------------------------------------------------
    # Exact limits (eventual solvability)
    # ------------------------------------------------------------------
    def reachable_states(self) -> set[PartitionState]:
        """All partition states reachable from the initial state."""
        compiled = self.compiled
        return {
            compiled.partition_of(sid)
            for sid in range(compiled.num_states)
        }

    def limit_solving_probability(
        self, task: SymmetryBreakingTask
    ) -> "Fraction | float":
        """``lim_{t->inf} Pr[S(t) | alpha]`` (exact by default).

        Solvability is monotone under refinement, so the limit equals the
        probability of ever reaching a solving state; the compiled chain
        solves the first-step equations in one reverse-topological pass.
        """
        return self._ask(Query.limit(task))

    def to_networkx(self):
        """The reachable transition graph as a networkx DiGraph.

        Nodes are partition states; edge weights carry the transition
        probabilities (as ``Fraction``).  Useful for external analysis and
        cross-validated against the internal absorption solver in tests.
        """
        import networkx as nx

        compiled = self.compiled
        graph = nx.DiGraph()
        for sid in range(compiled.num_states):
            state = compiled.partition_of(sid)
            graph.add_node(state, blocks=len(state))
            for dst, prob in compiled.transitions_exact(sid).items():
                graph.add_edge(state, compiled.partition_of(dst), weight=prob)
        return graph

    def eventually_solvable(self, task: SymmetryBreakingTask) -> bool:
        """Definition 3.3 decided exactly; asserts the zero-one law."""
        return self._ask(Query.solvable(task))

    def _ask(self, query: Query):
        """One query through the front door, under this chain's backend."""
        return run_queries(self.compiled, [query], backend=self.backend)[0]


__all__ = [
    "ConsistencyChain",
    "MAX_NODES",
    "PartitionState",
    "canonical_state",
    "is_refinement",
    "single_block_state",
]
