"""Shortest-path routing over a :class:`~repro.machine.topology.Topology`.

Historically routes were computed eagerly, by breadth-first search from
every destination into three dense N^2 tables — affordable at the
paper's 64 processing elements, but a 1024-PE mesh would pay ~3M-entry
allocations and 1024 full BFS passes before the first packet moved.
Routing now answers its two questions separately, both reproducing the
original tables bit for bit:

* **Distances are algebraic** — the structured topologies (mesh, torus,
  ring, single-skip chordal ring, hypercube) have closed-form
  shortest-path distances, so ``hops`` — all the analytic cost model
  asks — is O(1) with no tables at all.
* **Next hops come from lazy per-destination BFS** — the packet
  simulator wants a flat per-destination column of outgoing link ids;
  those columns (and the distances of the generic/``complete``
  fallback) are built on first use by the same ascending-neighbor BFS
  as before and memoized as ``array('i')``; ``next_hop``/``path`` read
  them.  Router memory is O(links + touched destinations) instead of
  O(N^2).

Ties always break toward the lowest-numbered neighbor, so routing is
deterministic and simulations are reproducible; the oracle tests in
``tests/test_router_scaling.py`` assert closed-form == BFS distance on
every (node, destination) pair for all five structured families.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Callable

from repro.errors import TopologyError
from repro.machine.topology import Topology


class Router:
    """Deterministic shortest-path router.

    Parameters
    ----------
    topology:
        The interconnect to route over; must be connected.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        n = topology.n_nodes
        self._n = n
        # One BFS proves connectivity up front (routing is lazy, but a
        # disconnected interconnect must still fail at construction).
        reach = topology.bfs_distances(0)
        unreachable = [i for i, d in enumerate(reach) if d < 0]
        if unreachable:
            raise TopologyError(
                f"topology {topology.name!r} is disconnected:"
                f" {unreachable[:5]} cannot reach 0"
            )
        # Directed links enumerated in deterministic (source, neighbor)
        # order; the packet simulator indexes its per-link state by these
        # integer ids instead of hashing (u, v) tuples per hop.  Node u's
        # outgoing links occupy [offset[u], offset[u+1]) in neighbor
        # order, so link ids need no dict.
        link_source = array("i")
        link_destination = array("i")
        link_offset = array("i", [0])
        for u in range(n):
            for v in topology.neighbors(u):
                link_source.append(u)
                link_destination.append(v)
            link_offset.append(len(link_source))
        self.link_source = link_source
        self.link_destination = link_destination
        self._link_offset = link_offset
        self.n_directed_links = len(link_source)
        # Memoized per-destination columns (array('i'), built on demand).
        self._next_hop_cols: dict[int, array] = {}
        self._dist_cols: dict[int, array] = {}
        self._out_cols: dict[int, array] = {}
        self._mean_hops: float | None = None
        #: Closed-form hop-distance rule, or None for generic topologies.
        self._hops_fn: Callable[[int, int], int] | None = self._algebraic_hops_fn()

    # -- algebraic distances -------------------------------------------------

    def _algebraic_hops_fn(self) -> Callable[[int, int], int] | None:
        """Closed-form shortest-path distance for structured topologies."""
        topology = self.topology
        params = topology.params
        n = self._n
        kind = topology.kind
        if kind in ("mesh", "torus"):
            rows = int(params["rows"])
            cols = int(params["cols"])
            wrap_rows = bool(params["wrap_rows"])
            wrap_cols = bool(params["wrap_cols"])

            def mesh_hops(u: int, v: int) -> int:
                ru, cu = divmod(u, cols)
                rv, cv = divmod(v, cols)
                dr = ru - rv if ru >= rv else rv - ru
                if wrap_rows and rows - dr < dr:
                    dr = rows - dr
                dc = cu - cv if cu >= cv else cv - cu
                if wrap_cols and cols - dc < dc:
                    dc = cols - dc
                return dr + dc

            return mesh_hops
        if kind == "ring":

            def ring_hops(u: int, v: int) -> int:
                a = (v - u) % n
                return a if a <= n - a else n - a

            return ring_hops
        if kind == "chordal_ring":
            skips = params["skips"]
            assert isinstance(skips, tuple)
            if len(skips) != 1:
                # Multi-skip chordal rings have no cheap closed form;
                # they fall back to lazy BFS columns.
                return None
            skip = int(skips[0])

            def chordal_hops(u: int, v: int) -> int:
                # q signed chord steps plus ring steps covering the rest:
                # cost(q) = |q| + cyc(a - q*skip).  Any |q| >= best costs
                # at least |q|, so the scan over q terminates exactly.
                a = (v - u) % n
                best = a if a <= n - a else n - a
                q = 1
                while q < best:
                    for residue in ((a - q * skip) % n, (a + q * skip) % n):
                        ring_part = residue if residue <= n - residue else n - residue
                        cost = q + ring_part
                        if cost < best:
                            best = cost
                    q += 1
                return best

            return chordal_hops
        if kind == "hypercube":

            def cube_hops(u: int, v: int) -> int:
                return (u ^ v).bit_count()

            return cube_hops
        return None

    @property
    def has_algebraic_routes(self) -> bool:
        """True when hops needs no tables at all."""
        return self._hops_fn is not None

    @property
    def touched_destinations(self) -> int:
        """Destinations with memoized BFS columns (lazy-memory metric)."""
        return len(self._next_hop_cols)

    def table_bytes(self) -> int:
        """Bytes held in routing tables: links plus memoized columns."""
        total = sum(
            a.itemsize * len(a)
            for a in (self.link_source, self.link_destination, self._link_offset)
        )
        for memo in (self._next_hop_cols, self._dist_cols, self._out_cols):
            for col in memo.values():
                total += col.itemsize * len(col)
        return total

    # -- lazy BFS columns ----------------------------------------------------

    def _bfs_from(self, destination: int) -> tuple[array, array]:
        """Next-hop and distance columns by ascending-neighbor BFS.

        Identical, value for value, to one pass of the old eager
        all-pairs construction.
        """
        fill = array("i", [-1])
        next_col = fill * self._n
        dist_col = fill * self._n
        next_col[destination] = destination
        dist_col[destination] = 0
        frontier = deque([destination])
        neighbors = self.topology.neighbors
        while frontier:
            node = frontier.popleft()
            d = dist_col[node] + 1
            for neighbor in neighbors(node):
                if dist_col[neighbor] < 0:
                    dist_col[neighbor] = d
                    # The packet at `neighbor` heads to `node` next.
                    next_col[neighbor] = node
                    frontier.append(neighbor)
        return next_col, dist_col

    def _columns_for(self, destination: int) -> tuple[array, array]:
        next_col = self._next_hop_cols.get(destination)
        if next_col is None:
            next_col, dist_col = self._bfs_from(destination)
            self._next_hop_cols[destination] = next_col
            self._dist_cols[destination] = dist_col
        return next_col, self._dist_cols[destination]

    def out_links_to(self, destination: int) -> array:
        """Flat column: node -> outgoing link id toward *destination*.

        -1 marks ``node == destination``.  Built (and memoized) on first
        use; this is the packet simulator's per-hop lookup table.
        """
        col = self._out_cols.get(destination)
        if col is None:
            next_col, _ = self._columns_for(destination)
            offsets = self._link_offset
            neighbors = self.topology.neighbors
            col = array("i", next_col)
            for node in range(self._n):
                if node == destination:
                    col[node] = -1
                else:
                    hop = next_col[node]
                    col[node] = offsets[node] + neighbors(node).index(hop)
            self._out_cols[destination] = col
        return col

    # -- public routing queries ----------------------------------------------

    def next_hop(self, node: int, destination: int) -> int:
        """The neighbor *node* forwards to, en route to *destination*."""
        return self._columns_for(destination)[0][node]

    def hops(self, source: int, destination: int) -> int:
        """Shortest-path length in hops."""
        hops_fn = self._hops_fn
        if hops_fn is not None:
            return hops_fn(source, destination)
        dist_col = self._dist_cols.get(destination)
        if dist_col is None:
            dist_col = self._columns_for(destination)[1]
        return dist_col[source]

    def path(self, source: int, destination: int) -> list[int]:
        """Full node sequence from *source* to *destination*, inclusive."""
        col = self._columns_for(destination)[0]
        path = [source]
        node = source
        while node != destination:
            node = col[node]
            path.append(node)
        return path

    def mean_hops(self) -> float:
        """Average route length over distinct ordered pairs.

        Streamed one BFS at a time (and cached), so no dense distance
        table is ever materialized.
        """
        if self._mean_hops is None:
            n = self._n
            if n == 1:
                self._mean_hops = 0.0
            else:
                bfs = self.topology.bfs_distances
                total = 0
                for destination in range(n):
                    total += sum(bfs(destination))
                self._mean_hops = total / (n * (n - 1))
        return self._mean_hops
