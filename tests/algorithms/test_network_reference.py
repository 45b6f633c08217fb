"""The network simulator against a literal reference round loop.

The reference below is the simulator written out the slow, obvious way:
every inbox is sorted by ``repr`` on its own, every clique port is
resolved through ``PortAssignment.neighbour`` / ``port_to``, every node
looks up its source through ``alpha.source_of``, and Euclid nodes send
an explicit per-port dict each round.  Both loops must produce the same
outputs, rounds, decision rounds and ``all_decided`` flag on every
shape with ``n <= 6`` and seeds 0-9.  The leader protocols only count
what they receive, so a node that outputs its whole inbox trace checks
the deliveries themselves, order included.  The reference uses only the
public node protocol, never a helper of the simulator itself.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from repro.algorithms import (
    BlackboardLeaderNode,
    BlackboardNetwork,
    CliqueNetwork,
    EuclidLeaderNode,
    NodeContext,
    NodeProtocol,
)
from repro.models import (
    adversarial_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.models.knowledge import KnowledgeInterner
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes

SEEDS = range(10)
MAX_ROUNDS = 24


class DictComposeEuclid(EuclidLeaderNode):
    """Euclid node that always spells its message out port by port."""

    def compose(self):
        return {
            port: (self._tag, 1 if port == self._request_port else 0)
            for port in range(1, self.ctx.n)
        }


class TraceNode(NodeProtocol):
    """Outputs every inbox it received, so outputs compare deliveries.

    Payloads carry a weight whose ``repr`` order differs from its
    numeric order (``"14" < "7"``); clique nodes alternate between one
    payload for all ports and an explicit per-port dict.
    """

    ROUNDS = 6

    def __init__(self, per_port: bool = False):
        self.per_port = per_port
        self.bits: list[int] = []
        self.inboxes: list[tuple] = []

    def compose(self):
        payload = (7 * sum(self.bits), tuple(self.bits))
        if self.per_port and len(self.bits) % 2:
            return {port: (payload, port) for port in range(1, self.ctx.n)}
        return payload

    def absorb(self, bit, inbox):
        self.bits.append(bit)
        self.inboxes.append(inbox)

    def output(self):
        if len(self.inboxes) < self.ROUNDS:
            return None
        return tuple(self.inboxes)


def reference_run(alpha, node_factory, seed, ports=None):
    """One run of the literal round loop; returns the four result fields."""
    n = alpha.n
    sources = alpha.make_sources(seed)
    nodes = [node_factory() for _ in range(n)]
    ctx = NodeContext(n=n, interner=KnowledgeInterner())
    for node in nodes:
        node.on_start(ctx)
    decision_rounds = [None] * n
    rounds = 0
    for r in range(1, MAX_ROUNDS + 1):
        outbox = [node.compose() for node in nodes]
        inboxes = []
        for i in range(n):
            if ports is None:
                others = [p for j, p in enumerate(outbox) if j != i]
                inboxes.append(tuple(sorted(others, key=repr)))
                continue
            received = []
            for port in range(1, n):
                sender = ports.neighbour(i, port)
                sent = outbox[sender]
                if isinstance(sent, Mapping):
                    sent = sent[ports.port_to(sender, i)]
                received.append(sent)
            inboxes.append(tuple(received))
        for i, node in enumerate(nodes):
            node.absorb(sources[alpha.source_of(i)].bit(r), inboxes[i])
            if decision_rounds[i] is None and node.output() is not None:
                decision_rounds[i] = r
        rounds = r
        if all(node.output() is not None for node in nodes):
            break
    outputs = tuple(node.output() for node in nodes)
    return (
        outputs,
        rounds,
        tuple(decision_rounds),
        all(out is not None for out in outputs),
    )


def fields(result):
    return (
        result.outputs,
        result.rounds,
        result.decision_rounds,
        result.all_decided,
    )


def shapes(n):
    return [
        (shape, RandomnessConfiguration.from_group_sizes(shape))
        for shape in enumerate_size_shapes(n)
    ]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
def test_blackboard_matches_reference(n, k):
    for shape, alpha in shapes(n):
        for seed in SEEDS:
            expected = reference_run(
                alpha, lambda: BlackboardLeaderNode(k=k), seed
            )
            network = BlackboardNetwork(
                alpha, lambda: BlackboardLeaderNode(k=k), seed=seed
            )
            got = fields(network.run(max_rounds=MAX_ROUNDS))
            assert got == expected, (shape, k, seed)


PORTS = {
    "adversarial": lambda shape, seed: adversarial_assignment(shape),
    "round-robin": lambda shape, seed: round_robin_assignment(sum(shape)),
    "random": lambda shape, seed: random_assignment(sum(shape), seed + 100),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", sorted(PORTS))
def test_euclid_matches_reference(n, k, kind):
    for shape, alpha in shapes(n):
        for seed in SEEDS:
            ports = PORTS[kind](shape, seed)
            expected = reference_run(
                alpha, lambda: DictComposeEuclid(k=k), seed, ports
            )
            network = CliqueNetwork(
                alpha, ports, lambda: EuclidLeaderNode(k=k), seed=seed
            )
            got = fields(network.run(max_rounds=MAX_ROUNDS))
            assert got == expected, (shape, k, kind, seed)


@pytest.mark.parametrize("n", range(1, 7))
def test_deliveries_match_reference(n):
    for shape, alpha in shapes(n):
        for seed in SEEDS:
            expected = reference_run(alpha, TraceNode, seed)
            got = BlackboardNetwork(alpha, TraceNode, seed=seed).run()
            assert fields(got) == expected, ("blackboard", shape, seed)
            for kind in sorted(PORTS):
                ports = PORTS[kind](shape, seed)
                node = lambda: TraceNode(per_port=True)  # noqa: E731
                expected = reference_run(alpha, node, seed, ports)
                got = CliqueNetwork(alpha, ports, node, seed=seed).run()
                assert fields(got) == expected, (kind, shape, seed)


def test_reference_elects_somewhere():
    """The comparison is not vacuous: both protocols decide on easy
    shapes and stay undecided where the paper says they must."""
    alpha = RandomnessConfiguration.from_group_sizes((1, 2))
    outputs, _, _, decided = reference_run(alpha, BlackboardLeaderNode, 0)
    assert decided and sorted(outputs) == [0, 0, 1]
    alpha = RandomnessConfiguration.from_group_sizes((2, 2))
    *_, decided = reference_run(
        alpha, DictComposeEuclid, 0, adversarial_assignment((2, 2))
    )
    assert not decided
