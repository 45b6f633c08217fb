"""Euclid-style leader election on the port-numbered clique (Theorem 4.2).

The protocol drives the consistency partition towards a state that solves
``k``-leader election, using the two mechanisms the paper combines:

1. **Knowledge refinement.**  Every round each node broadcasts its class
   tag (a content-addressed encoding of its full-information knowledge) and
   folds its fresh random bit and the received tag tuple into a new tag.
   This is exactly Eq. (2): tags of two nodes are equal iff their knowledge
   is equal, so the tag classes *are* the consistency partition, and they
   refine over time as randomness and port asymmetries surface.

2. **Matching pressure.**  When the partition (which is common knowledge
   with a one-round lag) has no electing sub-multiset but has two classes
   of distinct sizes, every node of the smallest class ``A`` sends a
   matching request through one of its ports facing the next-smallest
   larger class ``B`` (the port is selected by the node's accumulated
   random bits, so same-source nodes choose the same *index* but generally
   different *targets*).  Because ``|A| < |B|``, at most ``|A|`` members of
   ``B`` receive requests, so at least one does and at least one does not:
   the request pattern strictly refines the partition.  This is the
   one-round distillation of ``CreateMatching`` (Algorithm 1): the paper
   matches then discards; here the matched/unmatched distinction itself is
   the knowledge split of Lemma 4.7, sizes ``(<=|A|, >=|B|-|A|)``.

**Election rule** (common knowledge, evaluated identically everywhere):
as soon as some sub-multiset of classes has total size ``k``, the
canonically-least such set is elected and members output 1.

Guarantees (tested):

* *safety* -- unconditionally, either nobody decides or exactly ``k`` nodes
  output 1, all in the same round;
* *liveness* -- if ``gcd(n_1..n_k') | k`` then for **every** port
  assignment the election terminates with probability 1 (each matching
  round strictly refines; terminal all-equal class sizes divide the gcd);
* *impossibility witness* -- under the Lemma 4.3 adversarial assignment
  with ``g > 1`` and ``g`` not dividing ``k``, no node ever decides, and
  every class size stays divisible by ``g`` throughout.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .blackboard_leader import choose_classes
from .network import NodeProtocol, Payload


class EuclidLeaderNode(NodeProtocol):
    """Clique node electing ``k`` leaders under any port assignment."""

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self._bits: list[int] = []
        self._tag: int | None = None  # interned; set in on_start
        self._prev_tag: int | None = None
        #: Port chosen for this round's matching request (None = no request).
        self._request_port: int | None = None
        self._output: int | None = None

    # ------------------------------------------------------------------
    def on_start(self, ctx) -> None:
        super().on_start(ctx)
        self._tag = self.ctx.interner.intern(("euclid-start",))
        self._prev_tag = self._tag

    def compose(self) -> Payload | Mapping[int, Payload]:
        if self._request_port is None:
            return (self._tag, 0)  # the same message on every port
        return {
            port: (self._tag, 1 if port == self._request_port else 0)
            for port in range(1, self.ctx.n)
        }

    def absorb(self, bit: int, inbox: Sequence[Payload]) -> None:
        self._bits.append(bit)
        received = tuple(inbox)  # ((tag, req_flag), ...) indexed by port
        tag_before = self._tag
        self._tag = self.ctx.interner.intern(
            ("euclid", tag_before, bit, received)
        )
        if self._output is not None:
            self._prev_tag = tag_before
            return
        # The partition at the *previous* time is now common knowledge:
        # everyone sees the same multiset of previous tags.
        neighbour_tags = [tag for tag, _ in received]
        counts: dict[int, int] = {}
        for tag in [tag_before, *neighbour_tags]:
            counts[tag] = counts.get(tag, 0) + 1
        chosen = choose_classes(sorted(counts.items()), self.k)
        if chosen is not None:
            self._output = 1 if tag_before in chosen else 0
            self._request_port = None
            self._prev_tag = tag_before
            return
        self._request_port = self._pick_request_port(
            tag_before, neighbour_tags, counts
        )
        self._prev_tag = tag_before

    def output(self) -> int | None:
        return self._output

    # ------------------------------------------------------------------
    def _pick_request_port(
        self,
        my_tag: int,
        neighbour_tags: list[int],
        counts: dict[int, int],
    ) -> int | None:
        """The matching move: a member of the smallest class requests into
        the next-larger class through a bit-selected port."""
        sizes = sorted(set(counts.values()))
        if len(sizes) < 2:
            return None  # all classes equal -- wait for refinement
        smallest = sizes[0]
        class_a = min(tag for tag, c in counts.items() if c == smallest)
        if my_tag != class_a:
            return None
        larger = min(c for c in counts.values() if c > smallest)
        class_b = min(tag for tag, c in counts.items() if c == larger)
        b_ports = [
            port
            for port, tag in enumerate(neighbour_tags, start=1)
            if tag == class_b
        ]
        index = 0
        for bit in self._bits:
            index = (index << 1) | bit
        return b_ports[index % len(b_ports)]


__all__ = ["EuclidLeaderNode"]
