"""Trial-by-trial differential of the ``bits`` kernel against the scalar
oracle (``realization_solves`` over the same Philox words) on every
group-size shape with 2 <= n <= 6, in every port family, for two tasks.

Public API only, so the same file checks any rewrite of the kernel.
"""

import numpy as np
import pytest

from repro.core import k_leader_election, leader_election
from repro.models import (
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.sampling import block_indicators, scalar_block_indicators

#: Leading trials compared per case (the oracle is a Python loop, and
#: its cost grows with the horizon).
TRIALS = 100
LONG_HORIZON_TRIALS = 25
PORT_KINDS = ("blackboard", "adversarial", "round-robin", "random")
TASKS = ("leader", "k-leader:2")


def _ports(kind, sizes, n):
    if kind == "blackboard":
        return None
    if kind == "adversarial":
        return adversarial_assignment(sizes)
    if kind == "round-robin":
        return round_robin_assignment(n)
    return random_assignment(n, sum(sizes) * 31 + len(sizes))


def _task(name, n):
    return leader_election(n) if name == "leader" else k_leader_election(n, 2)


def _assert_matches_oracle(
    sizes, kind, task_name, t, *, stream_seed, block, trials=TRIALS
):
    alpha = RandomnessConfiguration.from_group_sizes(sizes)
    ports = _ports(kind, sizes, alpha.n)
    task = _task(task_name, alpha.n)
    fast = block_indicators(
        alpha, task, t, ports, stream_seed=stream_seed, block=block
    )
    slow = scalar_block_indicators(
        alpha, task, t, ports, stream_seed=stream_seed, block=block,
        count=trials,
    )
    assert np.array_equal(fast[:trials], slow)


SHAPES = [
    sizes for n in range(2, 7) for sizes in enumerate_size_shapes(n)
]


@pytest.mark.parametrize("task_name", TASKS)
@pytest.mark.parametrize("kind", PORT_KINDS)
@pytest.mark.parametrize(
    "sizes", SHAPES, ids=lambda sizes: ",".join(map(str, sizes))
)
def test_every_small_shape_matches_the_oracle(sizes, kind, task_name):
    _assert_matches_oracle(
        sizes, kind, task_name, 3, stream_seed=sum(sizes), block=1
    )


@pytest.mark.parametrize("t", (63, 64, 65))
@pytest.mark.parametrize("kind", PORT_KINDS)
@pytest.mark.parametrize("sizes", ((1, 3), (2, 2)), ids=("1,3", "2,2"))
def test_word_boundary_horizons_match_the_oracle(sizes, kind, t):
    # 64 rounds fill one source word exactly; 63 and 65 straddle it.
    for task_name in TASKS:
        _assert_matches_oracle(
            sizes, kind, task_name, t, stream_seed=5, block=0,
            trials=LONG_HORIZON_TRIALS,
        )
