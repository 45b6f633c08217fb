"""Vectorized Monte-Carlo engine with mergeable, memoized substreams.

Three layers (see RUNNER.md, "Monte-Carlo substreams and the merge law"):

* :mod:`repro.sampling.kernel` -- counter-based Philox substreams in
  fixed blocks; whole-block solvability decided by bit partition
  refinement in numpy passes, with the legacy per-trajectory loop kept
  as the scalar oracle.
* :mod:`repro.sampling.estimator` -- integer ``(successes, samples)``
  cells with an associative merge law, memoized per full block in the
  cross-run :mod:`repro.results` memo.
* :mod:`repro.sampling.allocation` -- adaptive budget allocation by
  Wilson-interval width, plus common-random-number paired comparisons.
"""

from .allocation import (
    adaptive_cell_estimate,
    allocate_budget,
    paired_difference,
)
from .estimator import (
    MCEstimate,
    block_token,
    cell_digest,
    sample_cell,
    sample_range,
)
from .kernel import (
    BLOCK_SAMPLES,
    METHODS,
    block_indicators,
    philox_key,
    resolve_method,
    scalar_block_indicators,
    source_words,
    words_needed,
)
from .stats import normal_quantile, wilson_interval

__all__ = [
    "BLOCK_SAMPLES",
    "METHODS",
    "MCEstimate",
    "adaptive_cell_estimate",
    "allocate_budget",
    "block_indicators",
    "block_token",
    "cell_digest",
    "normal_quantile",
    "paired_difference",
    "philox_key",
    "resolve_method",
    "sample_cell",
    "sample_range",
    "scalar_block_indicators",
    "source_words",
    "wilson_interval",
    "words_needed",
]
