"""Adaptive sample-budget allocation over mergeable MC cells.

Simulation-optimization discipline (PyMOSO's framing): spend increments
where Wilson intervals are widest, never re-spending what a previous
round (or a previous *run*, through the memo) already bought.  Because
cell estimates are range-extensions of one fixed substream, an adaptive
schedule reaching ``m`` samples is bit-identical to a single ``m``-sample
run -- adaptivity changes only *when* you stop, not what you measure.

Also home of the common-random-numbers helper: cells sharing a stream
share trial blocks, so paired differences cancel the common noise and
their variance drops strictly below independent sampling.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..obs import OBS
from .estimator import MCEstimate, sample_range
from .kernel import BLOCK_SAMPLES, block_indicators

#: One substream block: the natural unit of both the first look and each
#: adaptive top-up (full blocks are what the memo can serve and store).
DEFAULT_INITIAL = BLOCK_SAMPLES
DEFAULT_INCREMENT = BLOCK_SAMPLES


def _extend(cell: Mapping, estimate: MCEstimate, by: int) -> MCEstimate:
    """Grow ``estimate`` by the next ``by`` samples of the cell's stream."""
    grown = sample_range(
        cell["alpha"],
        cell["task"],
        cell["t"],
        cell.get("ports"),
        stream_seed=cell["stream_seed"],
        start=estimate.samples,
        stop=estimate.samples + by,
        method=cell.get("method", "auto"),
        use_memo=cell.get("use_memo", True),
    )
    return estimate.merge(grown)


def _width(estimate: MCEstimate, confidence: float) -> float:
    low, high = estimate.interval(confidence)
    return high - low


def adaptive_cell_estimate(
    alpha,
    task,
    t: int,
    ports=None,
    *,
    stream_seed: int,
    target_width: float,
    confidence: float = 0.95,
    initial: int = DEFAULT_INITIAL,
    increment: int = DEFAULT_INCREMENT,
    max_samples: int = 64 * BLOCK_SAMPLES,
    method: str = "auto",
    use_memo: bool = True,
) -> MCEstimate:
    """Sample one cell until its interval is narrow enough (or the cap).

    Deterministic given the cell and the schedule parameters: stopping
    depends only on integer success counts, which are pure functions of
    the stream.
    """
    if not 0 < target_width < 1:
        raise ValueError("target_width must be in (0, 1)")
    if initial < 1 or increment < 1:
        raise ValueError("need positive initial and increment")
    cell = {
        "alpha": alpha,
        "task": task,
        "t": t,
        "ports": ports,
        "stream_seed": stream_seed,
        "method": method,
        "use_memo": use_memo,
    }
    estimate = _extend(cell, MCEstimate(0, 0), min(initial, max_samples))
    while (
        _width(estimate, confidence) > target_width
        and estimate.samples < max_samples
    ):
        if OBS.enabled:
            OBS.metrics.inc("mc.allocator.rounds")
        step = min(increment, max_samples - estimate.samples)
        estimate = _extend(cell, estimate, step)
    return estimate


def allocate_budget(
    cells: Sequence[Mapping],
    total_samples: int,
    *,
    confidence: float = 0.95,
    initial: int = DEFAULT_INITIAL,
    increment: int = DEFAULT_INCREMENT,
) -> list[MCEstimate]:
    """Split a shared sample budget across cells, widest interval first.

    Every cell gets the ``initial`` look (truncated if the budget cannot
    cover it); the remainder is spent greedily on whichever estimate
    currently has the widest Wilson interval, one increment at a time.
    Ties break on cell order, so the allocation is deterministic.
    """
    if total_samples < 1:
        raise ValueError("need a positive sample budget")
    if initial < 1 or increment < 1:
        raise ValueError("need positive initial and increment")
    cells = [dict(cell) for cell in cells]
    if not cells:
        return []
    estimates: list[MCEstimate] = []
    remaining = total_samples
    for cell in cells:
        first = min(initial, max(remaining, 0))
        if first == 0:
            raise ValueError(
                f"budget {total_samples} cannot give all {len(cells)} "
                f"cells an initial look"
            )
        estimates.append(_extend(cell, MCEstimate(0, 0), first))
        remaining -= first
    while remaining > 0:
        if OBS.enabled:
            OBS.metrics.inc("mc.allocator.rounds")
        widest = max(
            range(len(cells)),
            key=lambda i: (_width(estimates[i], confidence), -i),
        )
        step = min(increment, remaining)
        estimates[widest] = _extend(cells[widest], estimates[widest], step)
        remaining -= step
    return estimates


def paired_difference(
    cell_a: Mapping,
    cell_b: Mapping,
    *,
    stream_seed: int,
    samples: int,
    confidence: float = 0.95,
) -> dict:
    """CRN paired comparison of two cells over *shared* trial blocks.

    Both cells are evaluated on the same ``(stream_seed, block)`` words,
    so the per-trial difference cancels the randomness the cells share
    and its variance sits below the independent-streams sum
    ``p_a(1-p_a) + p_b(1-p_b)`` whenever the cells are positively
    coupled.  Returns the difference estimate, the sample variance of
    the paired differences, that independent-sampling variance, and a
    normal-approximation confidence halfwidth.
    """
    if samples < 2:
        raise ValueError("need samples >= 2 for a variance estimate")
    from .stats import normal_quantile

    sum_d = 0
    sum_d2 = 0
    sum_a = 0
    sum_b = 0
    done = 0
    block = 0
    while done < samples:
        take = min(BLOCK_SAMPLES, samples - done)
        pair = []
        for cell in (cell_a, cell_b):
            indicators = block_indicators(
                cell["alpha"],
                cell["task"],
                cell["t"],
                cell.get("ports"),
                stream_seed=stream_seed,
                block=block,
                method=cell.get("method", "auto"),
            )[:take]
            pair.append(indicators.astype(int))
        diff = pair[0] - pair[1]
        sum_d += int(diff.sum())
        sum_d2 += int((diff * diff).sum())
        sum_a += int(pair[0].sum())
        sum_b += int(pair[1].sum())
        done += take
        block += 1
    mean = sum_d / samples
    paired_var = (sum_d2 - samples * mean * mean) / (samples - 1)
    p_a = sum_a / samples
    p_b = sum_b / samples
    independent_var = p_a * (1 - p_a) + p_b * (1 - p_b)
    z = normal_quantile(0.5 + confidence / 2)
    return {
        "difference": mean,
        "paired_variance": paired_var,
        "independent_variance": independent_var,
        "halfwidth": z * (paired_var / samples) ** 0.5,
        "samples": samples,
    }


__all__ = [
    "DEFAULT_INCREMENT",
    "DEFAULT_INITIAL",
    "adaptive_cell_estimate",
    "allocate_budget",
    "paired_difference",
]
