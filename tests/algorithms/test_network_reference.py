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

The simulator is in turn the reference for the batched election
(``election_rounds``): on the same shapes, with ``k`` up to 3 and seeds
0-63, its decision round must equal ``network.run().rounds`` seed by
seed, an undecided run reading as ``-1``.  Its per-round labels must be
the partition of the nodes' knowledge, and its matching move must pick
the port ``EuclidLeaderNode`` picks.
"""

from __future__ import annotations

import collections
import math
import random
from collections.abc import Mapping

import numpy as np
import pytest

from repro.algorithms import (
    BlackboardLeaderNode,
    BlackboardNetwork,
    CliqueNetwork,
    EuclidLeaderNode,
    NodeContext,
    NodeProtocol,
)
from repro.algorithms.batched_election import (
    TABLE_ROUNDS,
    _partitions,
    _requests,
    draw_bits,
    election_rounds,
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


def network_rounds(network, max_rounds=MAX_ROUNDS):
    """The decision round of a node run, ``-1`` when it did not decide."""
    result = network.run(max_rounds=max_rounds)
    return result.rounds if result.all_decided else -1


def node_network(alpha, k, ports, seed):
    if ports is None:
        return BlackboardNetwork(
            alpha, lambda: BlackboardLeaderNode(k=k), seed=seed
        )
    return CliqueNetwork(
        alpha, ports, lambda: EuclidLeaderNode(k=k), seed=seed
    )


BATCH_SEEDS = range(64)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["blackboard", *sorted(PORTS)])
def test_batched_rounds_match_network(n, kind):
    for shape, alpha in shapes(n):
        ports = None if kind == "blackboard" else PORTS[kind](shape, 0)
        for k in (1, 2, 3):
            got = election_rounds(
                alpha, BATCH_SEEDS, k=k, ports=ports, max_rounds=MAX_ROUNDS
            )
            expected = [
                network_rounds(node_network(alpha, k, ports, seed))
                for seed in BATCH_SEEDS
            ]
            assert got.tolist() == expected, (shape, k, kind)


def restricted_growth(keys):
    """Label each key by the order of its first appearance."""
    first = {}
    return [first.setdefault(key, len(first)) for key in keys]


def assert_partitions_match(alpha, k, ports, seeds):
    """Round by round, the batched labels are the partition of the
    nodes' knowledge: bit histories on the blackboard, Euclid tags on
    the clique."""
    networks = [node_network(alpha, k, ports, seed) for seed in seeds]
    for r, live, labels, _ in _partitions(
        alpha, seeds, k, ports, MAX_ROUNDS, None
    ):
        for row, s in enumerate(live.tolist()):
            knowledge = [
                node._tag if ports else tuple(node._bits)
                for node in networks[s].nodes
            ]
            assert labels[row].tolist() == restricted_growth(knowledge), (
                alpha.group_sizes, k, seeds[s], r
            )
            networks[s].run(max_rounds=1)


@pytest.mark.parametrize("kind", ["blackboard", *sorted(PORTS)])
def test_batched_partitions_match_node_knowledge(kind):
    for n in range(2, 6):
        for shape, alpha in shapes(n):
            ports = None if kind == "blackboard" else PORTS[kind](shape, 0)
            for k in (1, 2):
                assert_partitions_match(alpha, k, ports, list(range(16)))


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 1, 2)])
def test_batched_matching_move_matches_node_tags(shape):
    """Decision rounds hardly see the matching move: with it switched
    off, they stayed the same on every shape with n <= 7 under the
    adversarial, round-robin and six random port assignments (seeds
    0-31).  Partitions see it here: with k = 2 on these ports, seed 17
    (among others) reaches time 4 with a partition that only the
    move's requests split."""
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    ports = random_assignment(4, 1)
    assert_partitions_match(alpha, 2, ports, list(range(64)))


def test_batched_request_ports_match_euclid_node():
    """The matching move alone, on random partitions and bit histories
    longer than 63 bits: each node requests through the port
    ``EuclidLeaderNode`` picks, ties between equal-sized classes
    included.  Partitions rarely show which class member moved."""
    rng = random.Random(7)
    requests = 0
    for trial in range(400):
        n = rng.randint(3, 8)
        ports = random_assignment(n, trial)
        labels = restricted_growth(
            [rng.randrange(rng.randint(2, n)) for _ in range(n)]
        )
        histories = [
            [rng.getrandbits(1) for _ in range(rng.randint(1, 80))]
            for _ in range(n)
        ]
        counts = collections.Counter(labels)
        expected = []
        for i in range(n):
            node = EuclidLeaderNode()
            node._bits = histories[i]
            port = node._pick_request_port(
                labels[i], [labels[j] for j in ports.neighbours(i)], counts
            )
            expected.append(port or 0)
        modulus = math.lcm(*range(1, n))
        index = [
            int("".join(map(str, bits)), 2) % modulus for bits in histories
        ]
        got = _requests(
            np.array([labels]),
            np.bincount(labels, minlength=n)[None],
            np.array([index]),
            np.array([ports.neighbours(i) for i in range(n)]),
        )
        assert got[0].tolist() == expected, (trial, labels)
        requests += any(expected)
    assert requests > 100


REPORT_SHAPES = [
    ((1, 1), False), ((1, 2), False), ((1, 2, 2), False), ((1, 1, 2), False),
    ((2, 3), True), ((1, 2), True),
]


def test_batched_rounds_match_network_on_report_shapes():
    """The round-complexity experiment's six shapes at all 400 seeds,
    over one table shared by the six, as the experiment draws it."""
    seeds = range(400)
    bits = draw_bits(seeds, 3, TABLE_ROUNDS)
    for shape, clique in REPORT_SHAPES:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = adversarial_assignment(shape) if clique else None
        got = election_rounds(
            alpha, seeds, ports=ports, max_rounds=256, bits=bits
        )
        expected = [
            network_rounds(node_network(alpha, 1, ports, seed), 256)
            for seed in seeds
        ]
        assert got.tolist() == expected, shape
        assert min(expected) > 0


def test_batched_rounds_past_the_bit_table():
    """Seeds outliving a short table re-draw their streams: a (2,2)
    adversarial clique never decides, and deciding shapes still match
    the nodes round for round."""
    seeds = range(16)
    ports = adversarial_assignment((2, 2))
    alpha = RandomnessConfiguration.from_group_sizes((2, 2))
    got = election_rounds(
        alpha, seeds, ports=ports, max_rounds=40, bits=draw_bits(seeds, 2, 4)
    )
    assert got.tolist() == [-1] * len(seeds)
    assert all(
        network_rounds(node_network(alpha, 1, ports, seed), 40) == -1
        for seed in seeds
    )
    for shape, clique in [((1, 1, 2), False), ((2, 3), True)]:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        ports = adversarial_assignment(shape) if clique else None
        got = election_rounds(
            alpha, BATCH_SEEDS, ports=ports, bits=draw_bits(BATCH_SEEDS, 3, 2)
        )
        expected = [
            network_rounds(node_network(alpha, 1, ports, seed), 64)
            for seed in BATCH_SEEDS
        ]
        assert got.tolist() == expected, shape
        assert max(expected) > 3


def test_bit_table_is_the_sources_prefix():
    rounds = 40
    seeds = [0, 1, 7, 399, 123456789]
    table = draw_bits(seeds, 3, rounds)
    assert table.shape == (len(seeds), 3, rounds)
    for shape in [(1, 1), (2, 3), (1, 2, 2)]:
        alpha = RandomnessConfiguration.from_group_sizes(shape)
        for row, seed in enumerate(seeds):
            for j, source in enumerate(alpha.make_sources(seed)):
                assert tuple(table[row, j]) == source.prefix(rounds)
    assert np.unique(table).tolist() == [0, 1]
