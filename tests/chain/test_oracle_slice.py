"""Full and quotient chains against the literal enumeration oracle.

:func:`~repro.core.probability.solving_probability_enumerated` walks all
``2^(t*k)`` source realizations and decides each one from the nodes'
interned knowledge (Definitions 3.1/3.4 via the partition criterion) --
it never builds a chain.  Every enumerable cell with ``n <= 4`` and
``t <= 3``, on the blackboard and under the three port families, must
give the same ``Fraction`` through the full chain and the quotient
chain -- through the scalar methods and through the query front door
(``run_queries`` per cell, one ``run_group_queries`` call per shape);
the front door's float answers must agree with the oracle to 1e-12.
"""

import os
import sys

import pytest

from repro.chain import Query, compile_chain, run_group_queries, run_queries
from repro.core.probability import solving_probability_enumerated
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec

T_MAX = 3


def _models(shape):
    yield "blackboard", None
    if sum(shape) < 2:
        return
    yield "adversarial", runner_spec.make_ports("adversarial", shape, 0)
    yield "round-robin", runner_spec.make_ports("round-robin", shape, 0)
    for seed in (1, 2):
        yield f"random:{seed}", runner_spec.make_ports("random", shape, seed)


def _tasks(n):
    yield runner_spec.make_task("leader", n)
    if n >= 2:
        yield runner_spec.make_task("k-leader:2", n)


@pytest.mark.parametrize("n", range(1, 5))
def test_full_and_quotient_chains_match_enumeration(n):
    horizons = range(1, T_MAX + 1)
    for shape in enumerate_size_shapes(n):
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        # (chain, task, oracle series) for the shape's one group call.
        items = []
        for name, ports in _models(shape):
            full = compile_chain(alpha, ports, quotient=False)
            folded = compile_chain(alpha, ports, quotient=True)
            for task in _tasks(n):
                oracle = [
                    solving_probability_enumerated(alpha, task, t, ports)
                    for t in horizons
                ]
                cell = (shape, name, task)
                queries = [Query.probability(task, t) for t in horizons]
                for chain in (full, folded):
                    scalar = [chain.solving_probability(task, t)
                              for t in horizons]
                    assert scalar == oracle, cell
                    assert run_queries(chain, queries) == oracle, cell
                    _assert_close(
                        run_queries(chain, queries, backend="float"),
                        oracle, cell,
                    )
                    items.append((chain, task, oracle))
        group = [(chain, [Query.series(task, T_MAX)])
                 for chain, task, _ in items]
        exact = run_group_queries(group)
        floats = run_group_queries(group, backend="float")
        for (_, task, oracle), got, approx in zip(items, exact, floats):
            assert got == [oracle], (shape, task)
            _assert_close(approx[0], oracle, (shape, task))


def _assert_close(got, oracle, cell):
    assert len(got) == len(oracle), cell
    for value, want in zip(got, oracle):
        assert isinstance(value, float), cell
        assert abs(value - float(want)) <= 1e-12, cell


def test_oracle_runs_no_chain_code():
    """The oracle is independent: no frame of ``repro/chain`` runs."""
    shape = (1, 1, 2)
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = runner_spec.make_ports("adversarial", shape, 0)
    task = runner_spec.make_task("leader", alpha.n)
    chain_dir = os.sep + os.path.join("repro", "chain") + os.sep
    touched = set()

    def profile(frame, event, arg):
        if event == "call":
            touched.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        solving_probability_enumerated(alpha, task, 2, ports)
    finally:
        sys.setprofile(None)
    assert touched
    assert not [f for f in touched if chain_dir in f]
