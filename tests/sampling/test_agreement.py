"""Statistical agreement with the exact engines over a small registry.

Fixed seeds make these runs reproducible byte for byte, so the 1e-2
tolerance is a one-time verification, not a flaky statistical bound.
"""

import pytest

from repro.core import leader_election
from repro.core.probability import solving_probability_exact
from repro.core.task_zoo import unique_ids
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration
from repro.sampling import sample_cell

SAMPLES = 20000

REGISTRY = [
    pytest.param((1, 2), None, "leader", 3, id="bb-1,2-leader"),
    pytest.param((1, 3), None, "leader", 4, id="bb-1,3-leader"),
    pytest.param((1, 1, 2), None, "unique", 4, id="bb-1,1,2-unique"),
    pytest.param((2, 3), None, "leader", 5, id="bb-2,3-leader"),
    pytest.param((1, 2), "adversarial", "leader", 3, id="mp-1,2-leader"),
    pytest.param((1, 3), "adversarial", "unique", 4, id="mp-1,3-unique"),
    pytest.param((2, 2), "adversarial", "leader", 4, id="mp-2,2-leader"),
]


def _case(sizes, port_kind, task_kind, t):
    alpha = RandomnessConfiguration.from_group_sizes(sizes)
    ports = adversarial_assignment(sizes) if port_kind else None
    task = (
        leader_election(alpha.n)
        if task_kind == "leader"
        else unique_ids(alpha.n)
    )
    return alpha, ports, task, t


class TestAgreementWithExact:
    @pytest.mark.parametrize("sizes,port_kind,task_kind,t", REGISTRY)
    def test_bits_within_1e2_of_exact(self, sizes, port_kind, task_kind, t):
        alpha, ports, task, t = _case(sizes, port_kind, task_kind, t)
        exact = solving_probability_exact(
            alpha, task, t, ports, backend="float"
        )
        estimate = sample_cell(
            alpha, task, t, ports, stream_seed=1, samples=SAMPLES
        )
        assert estimate.probability == pytest.approx(exact, abs=1e-2)
