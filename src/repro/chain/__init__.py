"""Compiled consistency-chain engine (interning, compilation, backends).

The package-level API:

* :func:`compile_chain` -- compile (or fetch memoized) the chain of
  one ``(alpha, ports)`` configuration;
* :class:`CompiledChain` -- interned states, sparse integer transitions,
  and every query of the seed :class:`~repro.core.markov.ConsistencyChain`
  under both an exact ``Fraction`` backend and a numpy ``float64``
  backend (``backend="exact" | "float"``);
* :func:`run_queries` / :func:`run_group_queries` -- the one query
  front door: answer whole sets of :class:`Query` objects against one
  chain (a group of one) or many chains, memo first, then one shared
  per-chain plan under either backend (:mod:`repro.chain.batch`,
  :mod:`repro.chain.multi`).
  The scalar per-query methods on :class:`CompiledChain` are the
  oracle the tests check the front door against.

``repro.core.markov`` keeps its historical API as a thin facade over
this engine; see ``CHAIN.md`` for the design.
"""

from .backends import BACKENDS, validate_backend
from .batch import (
    QUANTITIES,
    Query,
    run_queries,
)
from .engine import (
    DEFAULT_DISTRIBUTION_CACHE_CAP,
    MAX_NODES,
    ChainKey,
    CompiledChain,
    back_port_tables,
    chain_key,
    clear_memo,
    compile_chain,
    memo_size,
    memoized_chain,
    neighbour_tables,
    refine_labels,
    set_distribution_cache_cap,
)
from .multi import run_group_queries
from .quotient import (
    QUOTIENT_MODES,
    QuotientChain,
    automorphism_count,
    automorphism_generators,
    effective_chain_key,
    is_chain_automorphism,
    is_quotient_key,
    quotient_key,
    resolve_quotient,
)
from .interning import (
    LabelVector,
    StateTable,
    block_count,
    block_sizes,
    blocks_from_labels,
    canonical_labels,
    labels_from_blocks,
)

__all__ = [
    "BACKENDS",
    "ChainKey",
    "CompiledChain",
    "DEFAULT_DISTRIBUTION_CACHE_CAP",
    "LabelVector",
    "MAX_NODES",
    "QUANTITIES",
    "QUOTIENT_MODES",
    "Query",
    "QuotientChain",
    "StateTable",
    "automorphism_count",
    "automorphism_generators",
    "back_port_tables",
    "block_count",
    "block_sizes",
    "blocks_from_labels",
    "canonical_labels",
    "chain_key",
    "clear_memo",
    "compile_chain",
    "effective_chain_key",
    "is_chain_automorphism",
    "is_quotient_key",
    "labels_from_blocks",
    "memo_size",
    "memoized_chain",
    "neighbour_tables",
    "quotient_key",
    "refine_labels",
    "resolve_quotient",
    "run_group_queries",
    "run_queries",
    "set_distribution_cache_cap",
    "validate_backend",
]
