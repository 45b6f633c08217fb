"""One kernel pass over a range of blocks equals the blocks one by one.

``block_indicators`` takes a block index or a sequence of them; the
``bits`` solver refines all of a range's trials together, so every
trial's indicator must still be the one its own block gives alone --
for every shape with ``n <= 6``, on the blackboard and the clique, at
horizons inside one source word, filling it and spilling into a second.
``sample_range`` hands the kernel every block its memo does not serve,
and must still reach it through the ``repro.sampling.kernel`` binding
that benchmark tracing wraps.
"""

import sys

import numpy as np
import pytest

from repro.context import ExecutionContext, use_context
from repro.core import k_leader_election, leader_election
from repro.models import random_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.sampling import (
    BLOCK_SAMPLES,
    block_indicators,
    sample_range,
    scalar_block_indicators,
)
from repro.sampling import estimator, kernel

SHAPES = [
    shape for n in range(1, 7) for shape in enumerate_size_shapes(n)
]

#: Unordered and with gaps, as the fresh blocks between memo hits are.
BLOCKS = (4, 1, 2)


def _ports(model, shape):
    return None if model == "blackboard" else random_assignment(sum(shape), 3)


def _per_block(alpha, task, t, ports, stream_seed, blocks):
    return np.concatenate([
        block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block
        )
        for block in blocks
    ])


@pytest.mark.parametrize("t", [1, 4, 64, 65])
@pytest.mark.parametrize("model", ["blackboard", "clique"])
def test_a_range_equals_its_blocks_one_by_one(model, t):
    for shape in SHAPES:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = _ports(model, shape)
        task = leader_election(alpha.n)
        batched = block_indicators(
            alpha, task, t, ports, stream_seed=11, block=BLOCKS
        )
        assert batched.dtype == bool
        assert batched.shape == (len(BLOCKS) * BLOCK_SAMPLES,)
        expected = _per_block(alpha, task, t, ports, 11, BLOCKS)
        assert np.array_equal(batched, expected), shape


@pytest.mark.parametrize("model", ["blackboard", "clique"])
def test_ranges_longer_than_one_pass(model):
    shape = (1, 2, 3)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = _ports(model, shape)
    task = k_leader_election(alpha.n, 2)
    blocks = range(3, 3 + 2 * kernel.PASS_BLOCKS + 1)
    batched = block_indicators(
        alpha, task, 4, ports, stream_seed=5, block=blocks
    )
    assert np.array_equal(
        batched, _per_block(alpha, task, 4, ports, 5, blocks)
    )
    # The oracle agrees on the last pass's lone block.
    assert np.array_equal(
        batched[-BLOCK_SAMPLES:],
        scalar_block_indicators(
            alpha, task, 4, ports, stream_seed=5, block=blocks[-1]
        ),
    )


def test_scalar_method_takes_ranges_too():
    alpha = RandomnessConfiguration.from_group_sizes((1, 2))
    task = leader_election(3)
    assert np.array_equal(
        block_indicators(
            alpha, task, 3, stream_seed=2, block=(1, 0), method="scalar"
        ),
        _per_block(alpha, task, 3, None, 2, (1, 0)),
    )
    for method in ("scalar", "bits"):
        empty = block_indicators(
            alpha, task, 3, stream_seed=2, block=(), method=method
        )
        assert empty.shape == (0,)


def _range_reference(alpha, task, t, ports, stream_seed, start, stop):
    """Successes over ``[start, stop)`` from per-block kernel calls."""
    total = 0
    for block in range(start // BLOCK_SAMPLES, (stop - 1) // BLOCK_SAMPLES + 1):
        lo = max(start, block * BLOCK_SAMPLES) - block * BLOCK_SAMPLES
        hi = min(stop, (block + 1) * BLOCK_SAMPLES) - block * BLOCK_SAMPLES
        indicators = block_indicators(
            alpha, task, t, ports, stream_seed=stream_seed, block=block
        )
        total += int(indicators[lo:hi].sum())
    return total


@pytest.mark.parametrize("model", ["blackboard", "clique"])
def test_fresh_ranges_split_by_memo_hits(model, tmp_path, monkeypatch):
    shape = (1, 1, 2)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = _ports(model, shape)
    task = leader_election(alpha.n)
    calls = []
    block_indicators_ = kernel.block_indicators

    def spy(*args, **kwargs):
        calls.append(tuple(kwargs["block"]))
        return block_indicators_(*args, **kwargs)

    with use_context(ExecutionContext(results_memo=tmp_path / "memo")):
        # Memoize blocks 1 and 3 only.
        for block in (1, 3):
            sample_range(
                alpha, task, 4, ports, stream_seed=8,
                start=block * BLOCK_SAMPLES,
                stop=(block + 1) * BLOCK_SAMPLES,
            )
        monkeypatch.setattr(estimator, "block_indicators", spy)
        # Edge block 0, hit 1, fresh 2, hit 3, edge block 4.
        warm = sample_range(
            alpha, task, 4, ports, stream_seed=8, start=250, stop=4600
        )
    assert calls == [(0, 2, 4)]
    assert warm.samples == 4350
    assert warm.successes == _range_reference(
        alpha, task, 4, ports, 8, 250, 4600
    )


def test_the_estimator_calls_the_kernel_binding_tracing_wraps(monkeypatch):
    """Benchmark tracing swaps every module binding of
    ``repro.sampling.kernel.block_indicators`` for a wrapper; the
    estimator's fresh blocks must go through it, once per call."""
    original = kernel.block_indicators
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(kwargs["block"])
        return original(*args, **kwargs)

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, wrapper)
                    patched += 1
    assert patched >= 2  # the kernel module and the estimator
    alpha = RandomnessConfiguration.from_group_sizes((2, 3))
    task = leader_election(5)
    estimate = sample_range(
        alpha, task, 4, stream_seed=1, start=0, stop=10 * BLOCK_SAMPLES,
        use_memo=False,
    )
    assert calls == [list(range(10))]
    assert estimate.successes == _range_reference(
        alpha, task, 4, None, 1, 0, 10 * BLOCK_SAMPLES
    )


def test_a_streams_second_task_reuses_the_range_pass():
    # A sweep runs a stream's tasks back to back over the same fresh
    # range: the second task must hit the task-free pass of the first.
    alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1, 3))
    ports = random_assignment(7, 3)
    kernel._block_classes.cache_clear()
    for task in (leader_election(7), k_leader_election(7, 2)):
        block_indicators(
            alpha, task, 4, ports, stream_seed=9, block=range(10, 20)
        )
    info = kernel._block_classes.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _, index = kernel._block_classes(alpha, ports, 4, 9, tuple(range(10, 20)))
    assert index.dtype == np.uint16 and not index.flags.writeable
