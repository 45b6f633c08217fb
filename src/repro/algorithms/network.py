"""Synchronous anonymous network simulator.

Runs concrete protocols (node state machines) on the paper's two
communication fabrics:

* :class:`BlackboardNetwork` -- every round each node appends one message
  to the board; at the end of the round everyone sees the multiset of the
  *other* nodes' messages (origin-free, lexicographically ordered);
* :class:`CliqueNetwork` -- every round each node sends one message per
  port; a message sent on ``u``'s port towards ``v`` is delivered into the
  port of ``v`` that faces ``u``.

Per the model (Section 2.1): rounds are synchronous and fault-free, node
``i`` receives one fresh random bit from its source each round (nodes on
the same source receive identical bits), and nodes are anonymous -- a node
never learns global indices, only its own port numbers.

Timing convention: at round ``r`` each node first *composes* its outgoing
messages from its state at time ``r-1``, then *absorbs* the round's random
bit together with the messages the other nodes composed, producing its
state at time ``r``.  This matches Eqs. (1)/(2), where ``K_i(t)`` contains
the other nodes' time-``t-1`` knowledge.

Hot path: the protocol experiments (``euclid-protocol``, ``theorem-C1``)
and ``repro protocol`` run many short executions, so each round does the
least work that gives the same deliveries.  The round-complexity
experiment, which reads only each seed's decision round, runs 400 seeds
per shape in one batched pass instead
(:mod:`repro.algorithms.batched_election`); this simulator is the
reference that pass is tested against, seed by seed.  A run resolves
every node's source index once and reads each source's bit once per round.
The blackboard orders the whole board by ``repr`` once per round (a stable
sort of node indices); each inbox is that board with the node's own slot
dropped, which is exactly the stable ``repr`` sort of the other nodes'
payloads.  The clique precomputes a route table at construction: for each
node and port, the sender behind it and the sender's port facing back, so
delivery never consults the :class:`PortAssignment` in the round loop.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from ..models.knowledge import KnowledgeInterner
from ..models.ports import PortAssignment
from ..randomness.configuration import RandomnessConfiguration
from ..randomness.source import BitSource

Payload = Hashable


@dataclass
class NodeContext:
    """What a node is allowed to know at start: only local facts."""

    n: int
    #: Shared structural interner.  Semantically this is a content-addressed
    #: encoding of the unbounded full-information messages: equal ids <=>
    #: equal message contents, and the id order is an arbitrary total order
    #: on contents that all nodes share.  It carries no identity information.
    interner: KnowledgeInterner


class NodeProtocol(abc.ABC):
    """A synchronous protocol node (anonymous state machine)."""

    def on_start(self, ctx: NodeContext) -> None:
        """Called once before round 1."""
        self.ctx = ctx

    @abc.abstractmethod
    def compose(self) -> Payload | Mapping[int, Payload]:
        """Message(s) for this round, from the state at time ``r-1``.

        Blackboard nodes return one payload.  Clique nodes return either a
        single payload (sent on every port) or a mapping ``port -> payload``
        covering all ports ``1..n-1``.
        """

    @abc.abstractmethod
    def absorb(self, bit: int, inbox: Sequence[Payload]) -> None:
        """End of round: the fresh random bit plus the delivered messages.

        Blackboard: ``inbox`` is the sorted tuple of the other nodes'
        payloads.  Clique: ``inbox[p-1]`` is the payload that arrived on
        port ``p``.
        """

    def output(self) -> Hashable | None:
        """The decided output, or ``None`` while undecided."""
        return None


@dataclass
class RunResult:
    """Outcome of a protocol run."""

    outputs: tuple[Hashable | None, ...]
    rounds: int
    all_decided: bool
    #: Round at which each node decided (None if it never did).
    decision_rounds: tuple[int | None, ...] = ()
    #: Optional per-round traces recorded by the network (tests/benches).
    trace: list = field(default_factory=list)

    def leaders(self) -> tuple[int, ...]:
        """Indices of nodes that output 1 (election conventions)."""
        return tuple(i for i, out in enumerate(self.outputs) if out == 1)


class _BaseNetwork(abc.ABC):
    """Round loop shared by both fabrics."""

    def __init__(
        self,
        alpha: RandomnessConfiguration,
        node_factory: Callable[[], NodeProtocol],
        *,
        seed: int | None = 0,
        sources: Sequence[BitSource] | None = None,
    ):
        self.alpha = alpha
        self.n = alpha.n
        self.interner = KnowledgeInterner()
        self.sources = (
            list(sources) if sources is not None else alpha.make_sources(seed)
        )
        if len(self.sources) != alpha.k:
            raise ValueError(
                f"need {alpha.k} sources, got {len(self.sources)}"
            )
        self.nodes = [node_factory() for _ in range(self.n)]
        ctx = NodeContext(n=self.n, interner=self.interner)
        for node in self.nodes:
            node.on_start(ctx)
        self._round = 0
        self._decision_rounds: list[int | None] = [None] * self.n

    @abc.abstractmethod
    def _deliver(
        self, outbox: Sequence[Payload | Mapping[int, Payload]]
    ) -> list[tuple[Payload, ...]]:
        """Fabric-specific delivery: per-node inboxes from the outboxes."""

    def run(self, max_rounds: int = 64) -> RunResult:
        """Run until all nodes decided or ``max_rounds`` more rounds passed.

        Calling ``run`` again *resumes* the execution: the round counter and
        the random streams continue where the previous call stopped, so the
        reported ``rounds`` is cumulative across calls.
        """
        deadline = self._round + max_rounds
        source_of = self.alpha.assignment
        while self._round < deadline:
            r = self._round + 1
            outbox = [node.compose() for node in self.nodes]
            inboxes = self._deliver(outbox)
            bits = [source.bit(r) for source in self.sources]
            for i, node in enumerate(self.nodes):
                node.absorb(bits[source_of[i]], inboxes[i])
                if (
                    self._decision_rounds[i] is None
                    and node.output() is not None
                ):
                    self._decision_rounds[i] = r
            self._round = r
            if all(node.output() is not None for node in self.nodes):
                break
        outputs = tuple(node.output() for node in self.nodes)
        return RunResult(
            outputs=outputs,
            rounds=self._round,
            all_decided=all(out is not None for out in outputs),
            decision_rounds=tuple(self._decision_rounds),
        )


class BlackboardNetwork(_BaseNetwork):
    """The shared-blackboard fabric."""

    def _deliver(
        self, outbox: Sequence[Payload | Mapping[int, Payload]]
    ) -> list[tuple[Payload, ...]]:
        for payload in outbox:
            if isinstance(payload, Mapping):
                raise TypeError(
                    "blackboard nodes must post a single payload"
                )
        keys = [repr(payload) for payload in outbox]
        order = sorted(range(self.n), key=keys.__getitem__)
        board = tuple(outbox[j] for j in order)
        inboxes: list[tuple[Payload, ...]] = [()] * self.n
        for slot, j in enumerate(order):
            inboxes[j] = board[:slot] + board[slot + 1 :]
        return inboxes


class CliqueNetwork(_BaseNetwork):
    """The port-numbered clique fabric."""

    def __init__(
        self,
        alpha: RandomnessConfiguration,
        ports: PortAssignment,
        node_factory: Callable[[], NodeProtocol],
        *,
        seed: int | None = 0,
        sources: Sequence[BitSource] | None = None,
    ):
        if ports.n != alpha.n:
            raise ValueError("ports and alpha disagree on n")
        self.ports = ports
        #: ``routes[i][p-1]`` is ``(sender, sender_port)``: the node behind
        #: port ``p`` of ``i`` and that node's port facing ``i``.
        self._routes = tuple(
            tuple(
                (sender, ports.port_to(sender, i))
                for sender in ports.neighbours(i)
            )
            for i in range(ports.n)
        )
        super().__init__(alpha, node_factory, seed=seed, sources=sources)

    def _deliver(
        self, outbox: Sequence[Payload | Mapping[int, Payload]]
    ) -> list[tuple[Payload, ...]]:
        per_port = [isinstance(sent, Mapping) for sent in outbox]
        inboxes: list[tuple[Payload, ...]] = []
        for routes in self._routes:
            received = []
            for sender, sender_port in routes:
                sent = outbox[sender]
                if per_port[sender]:
                    if sender_port not in sent:
                        raise ValueError(
                            f"node {sender} composed no payload for its "
                            f"port {sender_port}"
                        )
                    sent = sent[sender_port]
                received.append(sent)
            inboxes.append(tuple(received))
        return inboxes


__all__ = [
    "BlackboardNetwork",
    "CliqueNetwork",
    "NodeContext",
    "NodeProtocol",
    "Payload",
    "RunResult",
]
