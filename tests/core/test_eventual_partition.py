"""The eventual-partition oracle against exact chain limits.

:func:`~repro.core.eventual.eventual_partition` names Lemma 3.2's limit
without building a chain: the limit of ``Pr[S(t)]`` is 1 exactly when
the task is solvable from the class sizes of the stable port-aware
refinement of the source partition.  Every shape with ``n <= 9`` is
checked against the exact chain limit under round-robin, random (fixed
seed) and adversarial (``n <= 8``) ports, for five task families and
both port semantics; the blackboard (Theorem 4.1), whose many-source
chains grow fastest, up to ``n = 7``.  The oracle's correctness also
rests on ``solvable_from_sizes`` being monotone under refinement, which
is checked for every task family.
"""

import os
import sys
from fractions import Fraction

import pytest

from repro.chain import Query, compile_chain, run_queries
from repro.core import eventual_partition
from repro.models import PortAssignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec

TASKS = ("leader", "weak-sb", "unique-ids", "k-leader:2", "deputy")
SEED = 7


def _tasks(n):
    return [runner_spec.make_task(name, n) for name in TASKS]


def _oracle_limits(alpha, ports, back_ports, tasks):
    sizes = [
        len(block)
        for block in eventual_partition(alpha, ports, back_ports=back_ports)
    ]
    return [Fraction(int(task.solvable_from_sizes(sizes))) for task in tasks]


def _chain_limits(alpha, ports, back_ports, tasks):
    chain = compile_chain(
        alpha, ports, include_back_ports=back_ports, use_memo=False
    )
    return run_queries(chain, [Query.limit(task) for task in tasks])


@pytest.mark.parametrize("n", range(2, 8))
def test_blackboard_is_the_source_partition(n):
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        blocks = eventual_partition(alpha)
        assert blocks == tuple(tuple(group) for group in alpha.groups())
        tasks = _tasks(n)
        assert _oracle_limits(alpha, None, False, tasks) == _chain_limits(
            alpha, None, False, tasks
        ), shape


@pytest.mark.parametrize("back_ports", [False, True], ids=["eq2", "back-ports"])
@pytest.mark.parametrize("n", range(2, 10))
def test_clique_limits_match_the_chain(n, back_ports):
    kinds = ["round-robin", "random"] + (["adversarial"] if n <= 8 else [])
    tasks = _tasks(n)
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        for kind in kinds:
            ports = runner_spec.make_ports(kind, shape, SEED)
            assert _oracle_limits(
                alpha, ports, back_ports, tasks
            ) == _chain_limits(alpha, ports, back_ports, tasks), (shape, kind)


def sorted_ports(n):
    return PortAssignment([[j for j in range(n) if j != i] for i in range(n)])


@pytest.mark.parametrize(
    "back_ports, limit", [(False, 0), (True, 1)], ids=["eq2", "back-ports"]
)
def test_sorted_labelling_counterexample(back_ports, limit):
    """The Theorem 4.2 counterexample of ``test_theorem42_sorted_ports``:
    under Eq. 2 the source partition of (2,3) is already stable."""
    alpha = RandomnessConfiguration.from_group_sizes((2, 3))
    ports = sorted_ports(5)
    (oracle,) = _oracle_limits(
        alpha, ports, back_ports, [runner_spec.make_task("leader", 5)]
    )
    assert oracle == limit
    if not back_ports:
        assert eventual_partition(alpha, ports) == ((0, 1), (2, 3, 4))


def _size_multisets(n, largest=None):
    """Every multiset of positive sizes summing to ``n``, descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _size_multisets(n - first, first):
            yield (first,) + rest


def _one_step_refinements(sizes):
    """Every multiset reached by splitting one block in two."""
    for index, size in enumerate(sizes):
        rest = sizes[:index] + sizes[index + 1:]
        for part in range(1, size // 2 + 1):
            yield rest + (part, size - part)


def _task_family(n):
    specs = ["leader", "unique-ids"]
    specs += [f"k-leader:{k}" for k in range(1, n + 1)]
    specs += [
        f"threshold:{low},{high}"
        for low in range(1, n + 1) for high in range(low, n + 1)
    ]
    specs += ["teams:" + ",".join(map(str, sizes))
              for sizes in _size_multisets(n)]
    if n >= 2:
        specs += ["weak-sb", "deputy"]
    return [(spec, runner_spec.make_task(spec, n)) for spec in specs]


@pytest.mark.parametrize("n", range(1, 9))
def test_solvability_is_monotone_under_refinement(n):
    """Splitting a knowledge class never makes a task unsolvable: the
    oracle may decide from the stable partition alone."""
    for spec, task in _task_family(n):
        for sizes in _size_multisets(n):
            if not task.solvable_from_sizes(sizes):
                continue
            for finer in _one_step_refinements(sizes):
                assert task.solvable_from_sizes(finer), (spec, sizes, finer)


def test_oracle_runs_no_chain_code():
    """The oracle is independent: no frame of ``repro/chain`` runs."""
    shape = (2, 3)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = runner_spec.make_ports("random", shape, SEED)
    chain_dir = os.sep + os.path.join("repro", "chain") + os.sep
    touched = set()

    def profile(frame, event, arg):
        if event == "call":
            touched.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        for back_ports in (False, True):
            eventual_partition(alpha, ports, back_ports=back_ports)
        eventual_partition(alpha)
    finally:
        sys.setprofile(None)
    assert touched
    assert not [f for f in touched if chain_dir in f]
