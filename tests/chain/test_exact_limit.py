"""Exact limits decided on the chain's support against the Fraction sweep.

:func:`~repro.chain.backends.exact_limit` answers a limit from one reverse
boolean pass -- can the start reach the mask, and can it end in a
non-mask absorbing state while avoiding the mask -- and runs
:func:`~repro.chain.backends.absorption_exact` only when both hold.
Every chain with ``n <= 6`` (blackboard; adversarial, round-robin and
random ports; random and adversarial ports with back ports) is checked
against the sweep for every ``make_task`` family, plus a mask that is
not closed under refinement, whose limit lies strictly between 0 and 1.
The scalar ``CompiledChain`` limit methods take the same pass.
"""

from fractions import Fraction

import pytest

from repro.chain import Query, compile_chain, run_queries
from repro.chain.backends import absorption_exact
from repro.chain.backends import exact_limit
from repro.models import (
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec

SEED = 7

PORTS = (
    ("blackboard", False, lambda shape: None),
    ("adversarial", False, adversarial_assignment),
    ("round-robin", False, lambda shape: round_robin_assignment(sum(shape))),
    ("random", False, lambda shape: random_assignment(sum(shape), SEED)),
    ("random-back", True, lambda shape: random_assignment(sum(shape), SEED)),
    ("adversarial-back", True, adversarial_assignment),
)


def _task_family(n):
    """One task per ``make_task`` spec family and parameter."""
    specs = ["leader", "unique-ids"]
    specs += [f"k-leader:{k}" for k in range(1, n + 1)]
    specs += [
        f"threshold:{low},{high}"
        for low in range(1, n + 1) for high in range(low, n + 1)
    ]
    specs += [
        "teams:" + ",".join(map(str, shape))
        for shape in enumerate_size_shapes(n)
    ]
    if n >= 2:
        specs += ["weak-sb", "deputy"]
    return [(spec, runner_spec.make_task(spec, n)) for spec in specs]


@pytest.mark.parametrize("name,back,make_ports", PORTS,
                         ids=[p[0] for p in PORTS])
@pytest.mark.parametrize("n", range(1, 7))
def test_support_pass_matches_the_fraction_sweep(n, name, back, make_ports):
    if n == 1 and name != "blackboard":
        pytest.skip("one node has no ports")
    tasks = _task_family(n)
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        chain = compile_chain(
            alpha, make_ports(shape), include_back_ports=back
        )
        for spec, task in tasks:
            mask = chain.solvable_mask(task)
            expected = absorption_exact(chain, mask)[chain.start]
            assert exact_limit(chain, mask) == expected, (shape, spec)


@pytest.mark.parametrize("model", ["blackboard", "adversarial"])
def test_limits_never_build_exact_weights(model):
    shape = (2, 4)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = None if model == "blackboard" else adversarial_assignment(shape)
    chain = compile_chain(alpha, ports, use_memo=False)
    tasks = [task for _, task in _task_family(6)]
    limits = run_queries(chain, [Query.limit(task) for task in tasks])
    verdicts = run_queries(chain, [Query.solvable(task) for task in tasks])
    # Both outcomes occur, so both shortcuts of the pass are taken.
    assert set(limits) == {Fraction(0), Fraction(1)}
    assert verdicts == [limit == 1 for limit in limits]
    assert chain._exact_weights is None


@pytest.mark.parametrize("model", ["blackboard", "adversarial"])
def test_scalar_limits_take_the_support_pass(model):
    """``limit_solving_probability``, ``eventually_solvable`` and the
    finiteness test of ``expected_solving_time`` decide exact limits
    on the support too: no ``Fraction`` weights are built."""
    shape = (2, 4)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = None if model == "blackboard" else adversarial_assignment(shape)
    chain = compile_chain(alpha, ports, use_memo=False)
    tasks = [task for _, task in _task_family(6)]
    limits = [chain.limit_solving_probability(task) for task in tasks]
    assert limits == run_queries(chain, [Query.limit(t) for t in tasks])
    assert [chain.eventually_solvable(task) for task in tasks] == [
        limit == 1 for limit in limits
    ]
    unsolvable = [t for t, limit in zip(tasks, limits) if limit == 0]
    assert unsolvable
    assert all(chain.expected_solving_time(t) is None for t in unsolvable)
    assert chain._exact_weights is None
    assert limits == [
        absorption_exact(chain, chain.solvable_mask(task))[chain.start]
        for task in tasks
    ]


class _ThreeClasses:
    """Solved exactly in three-class states: not closed under
    refinement, so the zero-one law does not apply to it."""

    def solvable_from_partition(self, partition):
        return len(partition) == 3


def test_a_mask_open_under_refinement_falls_back_to_fractions():
    # Four sources: a round splits each class in at most two, so two
    # classes of two go to three classes or straight to four, and four
    # classes never merge back.
    alpha = RandomnessConfiguration.from_group_sizes((1, 1, 1, 1))
    chain = compile_chain(alpha, use_memo=False)
    task = _ThreeClasses()
    mask = chain.solvable_mask(task)
    limit = exact_limit(chain, mask)
    assert chain._exact_weights is not None  # the Fraction sweep ran
    assert limit == absorption_exact(chain, mask)[chain.start]
    assert 0 < limit < 1
    assert run_queries(chain, [Query.limit(task)]) == [limit]
    with pytest.raises(AssertionError, match="zero-one law violated"):
        run_queries(chain, [Query.solvable(task)])
