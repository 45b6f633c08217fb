"""Anonymous port-numbered graphs (the conclusion's suggested extension).

The paper's message-passing model is the clique ``K_n``; its conclusion
proposes "extending the communication model to networks with arbitrary
structure".  A :class:`GraphTopology` is an undirected connected graph
where every node privately labels its incident edges with ports
``1..deg``; the clique's :class:`~repro.models.ports.PortAssignment` is
the special case of :func:`GraphTopology.complete`.

Anonymous computation on such graphs is classical territory (Angluin 1980;
Yamashita-Kameda 1996; Boldi et al. 1996 -- all cited by the paper), and
two cited results become checkable here:

* leader election on an anonymous ring is impossible without randomness
  (Angluin), and
* leader election on ``K_{m,n}`` is possible iff ``gcd(m, n) = 1``
  (Codenotti et al., as quoted in the paper's related work).

For small graphs the *worst case over all port labelings* is computed by
exhaustive enumeration via :meth:`GraphTopology.iter_labelings`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import networkx as nx


class GraphTopology:
    """An undirected connected graph with per-node ordered neighbour lists.

    ``neighbours[i]`` is node ``i``'s neighbour behind each of its ports,
    in port order (port ``p`` is ``neighbours[i][p-1]``).  The ordering is
    the node's private labeling; re-orderings of the same underlying graph
    are different topologies for the knowledge dynamics.
    """

    __slots__ = ("_neighbours",)

    def __init__(self, neighbours: Sequence[Sequence[int]]):
        n = len(neighbours)
        if n < 1:
            raise ValueError("need at least one node")
        cleaned: list[tuple[int, ...]] = []
        for i, row in enumerate(neighbours):
            row = tuple(int(x) for x in row)
            if i in row:
                raise ValueError(f"node {i} has a self-loop")
            if len(set(row)) != len(row):
                raise ValueError(f"node {i} has duplicate edges {row}")
            if any(not 0 <= x < n for x in row):
                raise ValueError(f"node {i} references unknown nodes {row}")
            cleaned.append(row)
        for i, row in enumerate(cleaned):
            for j in row:
                if i not in cleaned[j]:
                    raise ValueError(
                        f"edge {i}-{j} is not symmetric in the adjacency"
                    )
        self._neighbours = tuple(cleaned)
        if n > 1 and not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nbr in self._neighbours[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == self.n

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._neighbours)

    def degree(self, node: int) -> int:
        """Number of incident edges (= number of ports) of ``node``."""
        return len(self._neighbours[node])

    def neighbours(self, node: int) -> tuple[int, ...]:
        """Ordered neighbours of ``node`` (index p-1 = port p)."""
        return self._neighbours[node]

    def neighbour(self, node: int, port: int) -> int:
        """The node behind ``port`` (1-based) of ``node``."""
        if not 1 <= port <= self.degree(node):
            raise ValueError(
                f"node {node} has ports 1..{self.degree(node)}, got {port}"
            )
        return self._neighbours[node][port - 1]

    def port_to(self, node: int, target: int) -> int:
        """The port of ``node`` whose edge leads to ``target`` (1-based)."""
        return self._neighbours[node].index(target) + 1

    def edges(self) -> set[frozenset[int]]:
        """The undirected edge set as frozen pairs."""
        return {
            frozenset((i, j))
            for i, row in enumerate(self._neighbours)
            for j in row
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GraphTopology):
            return self._neighbours == other._neighbours
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._neighbours)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphTopology(n={self.n}, edges={len(self.edges())})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, graph: "nx.Graph") -> "GraphTopology":
        """Adopt a networkx graph; ports follow sorted neighbour order."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        return cls(
            [
                tuple(sorted(index[m] for m in graph.neighbors(node)))
                for node in nodes
            ]
        )

    @classmethod
    def ring(cls, n: int) -> "GraphTopology":
        """The anonymous ring ``C_n`` (Angluin's classical arena)."""
        if n < 3:
            raise ValueError("a ring needs n >= 3")
        return cls(
            [((i - 1) % n, (i + 1) % n) for i in range(n)]
        )

    @classmethod
    def path(cls, n: int) -> "GraphTopology":
        """The path ``P_n``."""
        if n < 1:
            raise ValueError("need n >= 1")
        if n == 1:
            return cls([()])
        rows: list[tuple[int, ...]] = [(1,)]
        for i in range(1, n - 1):
            rows.append((i - 1, i + 1))
        rows.append((n - 2,))
        return cls(rows)

    @classmethod
    def star(cls, n: int) -> "GraphTopology":
        """The star ``S_n``: node 0 is the hub, nodes 1..n-1 the leaves."""
        if n < 2:
            raise ValueError("a star needs n >= 2")
        return cls([tuple(range(1, n))] + [(0,)] * (n - 1))

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        """The clique ``K_n`` with round-robin ports."""
        return cls(
            [tuple((i + j) % n for j in range(1, n)) for i in range(n)]
        )

    @classmethod
    def complete_bipartite(cls, m: int, n: int) -> "GraphTopology":
        """``K_{m,n}``: nodes ``0..m-1`` on one side, ``m..m+n-1`` on the
        other (the Codenotti et al. arena cited by the paper)."""
        if m < 1 or n < 1:
            raise ValueError("both sides need at least one node")
        left = [tuple(range(m, m + n))] * m
        right = [tuple(range(m))] * n
        return cls(left + right)

    # ------------------------------------------------------------------
    # Labelings (for worst-case sweeps)
    # ------------------------------------------------------------------
    def relabel(
        self, orders: Sequence[Sequence[int]]
    ) -> "GraphTopology":
        """Reorder each node's ports; ``orders[i]`` permutes node i's row."""
        rows = []
        for i, order in enumerate(orders):
            row = self._neighbours[i]
            if sorted(order) != list(range(len(row))):
                raise ValueError(
                    f"order {order} is not a permutation of node {i}'s ports"
                )
            rows.append(tuple(row[p] for p in order))
        return GraphTopology(rows)

    def labeling_count(self) -> int:
        """Number of distinct port labelings: ``prod_i deg(i)!``."""
        total = 1
        for i in range(self.n):
            for f in range(2, self.degree(i) + 1):
                total *= f
        return total

    def iter_labelings(
        self, *, limit: int = 1 << 16
    ) -> Iterator["GraphTopology"]:
        """All port labelings of the underlying graph (guarded by size)."""
        if self.labeling_count() > limit:
            raise ValueError(
                f"{self.labeling_count()} labelings exceed the limit {limit}"
            )
        per_node: list[Iterable[tuple[int, ...]]] = [
            itertools.permutations(range(self.degree(i)))
            for i in range(self.n)
        ]
        for orders in itertools.product(*per_node):
            yield self.relabel(orders)

    def to_networkx(self) -> "nx.Graph":
        """Export the underlying (unlabeled) graph to networkx."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(tuple(edge) for edge in self.edges())
        return graph


__all__ = ["GraphTopology"]
