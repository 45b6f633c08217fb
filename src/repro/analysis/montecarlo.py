"""Monte-Carlo estimation with confidence intervals.

The exact engines cover every configuration the paper discusses; this
module exists for the regime beyond them (large ``n`` or ``t`` where the
partition chain's state space would blow up).  It wraps the vectorized
substream sampler (:mod:`repro.sampling`) with Wilson score intervals
and an adaptive loop that samples until the interval is narrow enough,
and provides an agreement check against the exact value used by the test
suite to validate the sampler.

All estimators here consume the kernel's counter-based substreams, so
their integer success counts are pure functions of ``(seed, cell)``:
independent of batching, engines, worker counts -- and mergeable with
memoized cells from previous runs.  The interval statistics themselves
(``wilson_interval`` and the inverse-normal quantile) live in
:mod:`repro.sampling.stats`; they are re-exported here for their
historical import path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.tasks import SymmetryBreakingTask
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration
from ..sampling import MCEstimate, sample_cell
from ..sampling.stats import normal_quantile as _normal_quantile
from ..sampling.stats import wilson_interval


@dataclass(frozen=True)
class Estimate:
    """A binomial estimate with its Wilson confidence interval.

    ``successes`` carries the integer count the estimate was formed
    from (appended with a default so positional construction predating
    the field keeps working); estimators always populate it, so callers
    never re-derive the count from the float.
    """

    probability: float
    low: float
    high: float
    samples: int
    confidence: float
    successes: "int | None" = None

    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def _as_estimate(mc: MCEstimate, confidence: float) -> Estimate:
    low, high = mc.interval(confidence)
    return Estimate(
        mc.probability, low, high, mc.samples, confidence, mc.successes
    )


def _stream_seed(seed: "int | None") -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1 if seed is None else seed


def estimate_solving_probability(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    samples: int = 2000,
    confidence: float = 0.95,
    seed: int | None = 0,
    method: str = "auto",
) -> Estimate:
    """One-shot Monte-Carlo estimate with a Wilson interval."""
    mc = sample_cell(
        alpha, task, t, ports,
        stream_seed=_stream_seed(seed), samples=samples, method=method,
    )
    return _as_estimate(mc, confidence)


def adaptive_estimate(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    target_width: float = 0.05,
    confidence: float = 0.95,
    batch: int = 500,
    max_samples: int = 20000,
    seed: int | None = 0,
    method: str = "auto",
) -> Estimate:
    """Sample in batches until the Wilson interval is narrow enough.

    Each batch extends the *same* substream, so stopping after ``m``
    samples yields exactly the ``m``-sample one-shot estimate --
    adaptivity decides when to stop, never what is measured.
    """
    if target_width <= 0:
        raise ValueError("target_width must be positive")
    from ..sampling import adaptive_cell_estimate

    mc = adaptive_cell_estimate(
        alpha, task, t, ports,
        stream_seed=_stream_seed(seed),
        target_width=target_width,
        confidence=confidence,
        initial=batch,
        increment=batch,
        max_samples=max_samples,
        method=method,
    )
    return _as_estimate(mc, confidence)


def parallel_estimate(
    alpha: RandomnessConfiguration,
    task: SymmetryBreakingTask,
    t: int,
    ports: PortAssignment | None = None,
    *,
    samples: int = 2000,
    batches: int = 8,
    confidence: float = 0.95,
    seed: int = 0,
    engine=None,
) -> Estimate:
    """Monte-Carlo estimate with batches fanned out over a runner engine.

    The sample budget splits into ``batches`` contiguous ranges of one
    shared substream; each worker evaluates its range as a pure function
    of ``(seed, range)``, so the summed count is identical for a serial
    engine, a process pool of any width, *and any batch count* -- the
    decomposition is an implementation detail, not part of the estimate's
    identity.  With ``engine=None`` the batches run in-process.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not 1 <= batches <= samples:
        raise ValueError("need 1 <= batches <= samples")
    from ..runner.engines import SerialEngine
    from ..runner.worker import execute_sample_batch, payload_context

    engine = engine or SerialEngine()
    base, extra = divmod(samples, batches)
    context = payload_context()
    bounds = [0]
    for index in range(batches):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))
    payloads = [
        {
            "alpha": alpha,
            "task": task,
            "ports": ports,
            "t": t,
            "start": bounds[index],
            "stop": bounds[index + 1],
            "seed": seed,
            "context": context,
        }
        for index in range(batches)
    ]
    successes = sum(
        record["successes"]
        for record in engine.map(execute_sample_batch, payloads)
    )
    return _as_estimate(MCEstimate(successes, samples), confidence)


__all__ = [
    "Estimate",
    "adaptive_estimate",
    "estimate_solving_probability",
    "parallel_estimate",
    "wilson_interval",
]
