"""Interconnection-network topologies.

Section 3.2 of the paper: "The topology of the interconnection network
will be mesh-like or a variant of a chordal ring", with four links per
processing element.  This module builds those topologies (plus a few
others useful as baselines) as undirected graphs, and offers the
structural metrics — degree, diameter, mean hop count — that enter the
network cost model.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Collection, Iterable, Iterator

from repro.errors import TopologyError


class Topology:
    """An undirected interconnect graph over nodes ``0..n-1``.

    The adjacency structure is immutable after construction.  Use the
    ``build_*`` functions or :func:`build_topology` rather than
    constructing instances by hand.
    """

    def __init__(
        self,
        name: str,
        n_nodes: int,
        edges: Iterable[tuple[int, int]],
        kind: str = "generic",
        params: dict[str, object] | None = None,
    ):
        if n_nodes < 1:
            raise TopologyError(f"topology needs at least one node, got {n_nodes}")
        self.name = name
        self.n_nodes = n_nodes
        #: Structural family ("mesh", "torus", "ring", "chordal_ring",
        #: "hypercube", "complete", or "generic") plus the parameters the
        #: builder used.  The router dispatches on these to pick a
        #: closed-form shortest-path rule instead of parsing the name.
        self.kind = kind
        self.params: dict[str, object] = dict(params or {})
        adjacency: list[set[int]] = [set() for _ in range(n_nodes)]
        for u, v in edges:
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise TopologyError(f"edge ({u}, {v}) out of range for n={n_nodes}")
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors)) for neighbors in adjacency
        )

    # -- basic structure ----------------------------------------------------

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Nodes directly linked to *node*, in ascending order."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    @property
    def max_degree(self) -> int:
        return max(self.degree(n) for n in range(self.n_nodes))

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return sum(self.degree(n) for n in range(self.n_nodes)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All undirected links as ``(u, v)`` with ``u < v``."""
        for u in range(self.n_nodes):
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    # -- path metrics ---------------------------------------------------------

    def bfs(
        self,
        root: int,
        down_nodes: Collection[int] = (),
        down_links: Collection[tuple[int, int]] = (),
    ) -> tuple[list[int], list[int]]:
        """Hop distance to *root* and next hop toward it, for every node.

        The one shortest-path search of the machine: the router's lazy
        columns, the fault-aware distances and the structural metrics
        all read it.  Neighbors expand in ascending order, so ties break
        toward the lowest-numbered neighbor.  Elements in *down_nodes*
        and directed ``(u, v)`` pairs in *down_links* are skipped; -1
        marks a node that cannot reach *root* (and every node when
        *root* itself is down).  Plain lists: element access on an
        ``array('i')`` boxes every read, which doubles this loop's cost.
        """
        distances = [-1] * self.n_nodes
        next_hops = [-1] * self.n_nodes
        if root in down_nodes:
            return distances, next_hops
        distances[root] = 0
        next_hops[root] = root
        frontier = deque([root])
        adjacency = self._adjacency
        while frontier:
            node = frontier.popleft()
            d = distances[node] + 1
            for neighbor in adjacency[node]:
                if distances[neighbor] >= 0 or neighbor in down_nodes:
                    continue
                if down_links and (node, neighbor) in down_links:
                    continue
                distances[neighbor] = d
                # A packet at `neighbor` heads to `node` next.
                next_hops[neighbor] = node
                frontier.append(neighbor)
        return distances, next_hops

    def diameter(self) -> int:
        """Longest shortest path, in hops."""
        worst = 0
        for source in range(self.n_nodes):
            distances = self.bfs(source)[0]
            if any(d < 0 for d in distances):
                raise TopologyError(f"topology {self.name!r} is disconnected")
            worst = max(worst, max(distances))
        return worst

    def mean_hops(self) -> float:
        """Average shortest-path length over distinct ordered pairs."""
        if self.n_nodes == 1:
            return 0.0
        total = 0
        for source in range(self.n_nodes):
            distances = self.bfs(source)[0]
            if any(d < 0 for d in distances):
                raise TopologyError(f"topology {self.name!r} is disconnected")
            total += sum(distances)
        return total / (self.n_nodes * (self.n_nodes - 1))

    def check_degree(self, links_per_node: int) -> None:
        """Raise if any node needs more links than the hardware provides."""
        for node in range(self.n_nodes):
            if self.degree(node) > links_per_node:
                raise TopologyError(
                    f"node {node} of {self.name!r} has degree {self.degree(node)}"
                    f" > {links_per_node} links per processing element"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology({self.name!r}, n={self.n_nodes}, links={self.n_links})"


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------


def _mesh_shape(n_nodes: int) -> tuple[int, int]:
    """Most-square ``rows x cols`` factorization of *n_nodes*."""
    best = (1, n_nodes)
    for rows in range(1, int(math.isqrt(n_nodes)) + 1):
        if n_nodes % rows == 0:
            best = (rows, n_nodes // rows)
    return best


def build_mesh(n_nodes: int, wrap: bool = False) -> Topology:
    """A 2-D mesh (or torus when *wrap* is true), as square as possible.

    64 nodes give the 8x8 mesh of the prototype; interior nodes have
    degree 4, matching the four links per processing element.
    """
    rows, cols = _mesh_shape(n_nodes)
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            elif wrap and cols > 2:
                edges.append((node, r * cols))
            if r + 1 < rows:
                edges.append((node, node + cols))
            elif wrap and rows > 2:
                edges.append((node, c))
    name = "torus" if wrap else "mesh"
    return Topology(
        f"{name}_{rows}x{cols}",
        n_nodes,
        edges,
        kind=name,
        params={
            "rows": rows,
            "cols": cols,
            # An axis only wraps when the builder added the wrap edge.
            "wrap_rows": wrap and rows > 2,
            "wrap_cols": wrap and cols > 2,
        },
    )


def build_ring(n_nodes: int) -> Topology:
    if n_nodes < 3:
        return Topology(f"ring_{n_nodes}", n_nodes,
                        [(0, 1)] if n_nodes == 2 else [], kind="ring")
    edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    return Topology(f"ring_{n_nodes}", n_nodes, edges, kind="ring")


def build_chordal_ring(n_nodes: int, skips: Iterable[int] = (8,)) -> Topology:
    """A ring with extra chords of the given skip lengths.

    With one chord length the degree is 4, matching the prototype's four
    links.  The default skip of 8 at 64 nodes gives diameter comparable
    to the 8x8 mesh.
    """
    if n_nodes < 3:
        raise TopologyError("chordal ring needs at least 3 nodes")
    edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    for skip in skips:
        if not 2 <= skip <= n_nodes // 2:
            raise TopologyError(
                f"chord skip {skip} must lie in [2, {n_nodes // 2}] for n={n_nodes}"
            )
        for i in range(n_nodes):
            edges.append((i, (i + skip) % n_nodes))
    skip_label = "+".join(str(s) for s in skips)
    return Topology(
        f"chordal_ring_{n_nodes}_s{skip_label}",
        n_nodes,
        edges,
        kind="chordal_ring",
        params={"skips": tuple(skips)},
    )


def build_hypercube(n_nodes: int) -> Topology:
    dimension = n_nodes.bit_length() - 1
    if 2**dimension != n_nodes:
        raise TopologyError(f"hypercube size must be a power of two, got {n_nodes}")
    edges = [
        (node, node ^ (1 << bit))
        for node in range(n_nodes)
        for bit in range(dimension)
        if node < node ^ (1 << bit)
    ]
    return Topology(
        f"hypercube_{dimension}d",
        n_nodes,
        edges,
        kind="hypercube",
        params={"dimension": dimension},
    )


def build_complete(n_nodes: int) -> Topology:
    edges = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)]
    return Topology(f"complete_{n_nodes}", n_nodes, edges, kind="complete")


_BUILDERS = {
    "mesh": lambda n, cfg: build_mesh(n, wrap=False),
    "torus": lambda n, cfg: build_mesh(n, wrap=True),
    "ring": lambda n, cfg: build_ring(n),
    "chordal_ring": lambda n, cfg: build_chordal_ring(n, cfg.chord_skips),
    "hypercube": lambda n, cfg: build_hypercube(n),
    "complete": lambda n, cfg: build_complete(n),
}


def build_topology(config) -> Topology:
    """Build the topology named by a :class:`~repro.machine.config.MachineConfig`.

    The result is checked against the config's ``links_per_node`` except
    for the ``complete`` baseline, which deliberately ignores physical
    link limits.
    """
    try:
        builder = _BUILDERS[config.topology]
    except KeyError:
        raise TopologyError(f"unknown topology {config.topology!r}") from None
    topology = builder(config.n_nodes, config)
    if config.topology != "complete":
        topology.check_degree(config.links_per_node)
    return topology
