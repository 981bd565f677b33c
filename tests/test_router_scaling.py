"""Large-machine routing: algebraic == BFS oracle, lazy tables, faults.

The router's closed-form distances must reproduce the historical
ascending-neighbor BFS bit for bit on every (node, destination) pair —
that equivalence is what lets 1024-PE machines skip the dense all-pairs
tables while 64-PE fingerprints stay byte-identical.
"""

import random

import pytest

from repro.errors import LinkDownError, TopologyError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.router import Router
from repro.machine.topology import (
    build_chordal_ring,
    build_complete,
    build_hypercube,
    build_mesh,
    build_ring,
)

ORACLE_SIZES = [4, 9, 16, 64]


def _structured_builders(n):
    """The five structured families, at every size where they exist."""
    builders = {
        "mesh": lambda: build_mesh(n),
        "torus": lambda: build_mesh(n, wrap=True),
        "ring": lambda: build_ring(n),
        "chordal_ring": lambda: build_chordal_ring(
            n, skips=(min(max(2, n // 8), n // 2),)
        ),
    }
    if n & (n - 1) == 0:
        builders["hypercube"] = lambda: build_hypercube(n)
    return builders


# -- oracle: algebraic routing == BFS routing --------------------------------


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_algebraic_next_hop_matches_bfs_on_every_pair(n):
    for name, build in _structured_builders(n).items():
        router = Router(build())
        assert router.has_algebraic_routes, name
        for dest in range(n):
            bfs_dist = router.topology.bfs(dest)[0]
            for node in range(n):
                assert router.hops(node, dest) == bfs_dist[node], (
                    f"{name} n={n}: hops({node} -> {dest})"
                )
        assert router.touched_destinations == 0


def test_multi_skip_chordal_ring_falls_back_to_bfs():
    router = Router(build_chordal_ring(32, skips=(4, 8)))
    assert not router.has_algebraic_routes
    # Generic routing still answers correctly via lazy columns.
    assert router.hops(0, 4) == 1
    assert router.next_hop(0, 4) == 4


def test_complete_topology_uses_generic_fallback():
    router = Router(build_complete(12))
    assert not router.has_algebraic_routes
    for u in range(12):
        for v in range(12):
            assert router.hops(u, v) == (0 if u == v else 1)
            assert router.next_hop(u, v) == v


# -- builder validation at large N -------------------------------------------


@pytest.mark.parametrize("n", [6, 12, 100, 1000])
def test_hypercube_rejects_non_power_of_two(n):
    with pytest.raises(TopologyError, match="power of two"):
        build_hypercube(n)


def test_chordal_ring_rejects_bad_skips_at_large_n():
    with pytest.raises(TopologyError, match="chord skip"):
        build_chordal_ring(1024, skips=(513,))
    with pytest.raises(TopologyError, match="chord skip"):
        build_chordal_ring(1024, skips=(1,))
    assert build_chordal_ring(1024, skips=(512,)).n_nodes == 1024


# -- laziness and memory ------------------------------------------------------


def test_router_construction_builds_no_columns():
    router = Router(build_mesh(1024))
    assert router.touched_destinations == 0
    # Distance queries on structured topologies stay table-free.
    assert router.hops(0, 1023) == 62
    assert router.touched_destinations == 0
    # Only destinations actually routed to pay for a column.
    assert router.next_hop(0, 1023) in router.topology.neighbors(0)
    router.out_links_to(1023)
    assert router.touched_destinations == 1
    router.out_links_to(7)
    assert router.touched_destinations == 2
    # Tables are O(links + touched destinations), nowhere near N^2.
    assert router.table_bytes() < 100_000


def test_disconnected_topology_still_rejected_at_construction():
    from repro.machine.topology import Topology

    with pytest.raises(TopologyError, match="disconnected"):
        Router(Topology("parts", 4, [(0, 1), (2, 3)]))


def test_1024_pe_machine_constructs_and_routes():
    for topology in ("mesh", "chordal_ring"):
        machine = Machine(MachineConfig(n_nodes=1024, topology=topology))
        assert machine.router.touched_destinations == 0
        assert machine.transfer_time(0, 1023, 4096) > 0.0


# -- fault memo: one BFS, cleared on every fault change -----------------------


def _reference_fault_hops(machine, source, destination):
    """Brute-force BFS avoiding faults, independent of the memo."""
    from collections import deque

    if source in machine._down_nodes or destination in machine._down_nodes:
        return -1
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        if node == destination:
            return dist[node]
        for neighbor in machine.topology.neighbors(node):
            if (
                neighbor in dist
                or neighbor in machine._down_nodes
                or (node, neighbor) in machine._down_links
            ):
                continue
            dist[neighbor] = dist[node] + 1
            frontier.append(neighbor)
    return -1


def _assert_memo_exact(machine):
    for source in range(machine.n_nodes):
        for destination in range(machine.n_nodes):
            assert machine._hops_under_faults(source, destination) == (
                _reference_fault_hops(machine, source, destination)
            ), f"({source} -> {destination})"


def test_fault_memo_survives_fault_sequences():
    machine = Machine(MachineConfig(n_nodes=16))
    machine.fail_link(0, 1)
    _assert_memo_exact(machine)
    machine.fail_node(5)
    _assert_memo_exact(machine)
    machine.fail_link(9, 10)
    _assert_memo_exact(machine)
    machine.restore_node(5)
    _assert_memo_exact(machine)
    machine.restore_link(0, 1)
    machine.fail_node(0)
    _assert_memo_exact(machine)




@pytest.mark.parametrize("topology", ["mesh", "chordal_ring", "hypercube", "complete"])
def test_fault_memo_matches_reference_over_random_fault_sequences(topology):
    """40 seeded fail/restore steps of elements and links: after each,
    every pair's memoized detour equals an independent BFS, the cost
    model refuses exactly the cut pairs, and any change empties the memo."""
    machine = Machine(MachineConfig(n_nodes=16, topology=topology))
    links = list(machine.topology.edges())
    rng = random.Random(f"faults/{topology}")
    for _ in range(40):
        faults = machine.active_faults()
        verbs = [
            lambda: machine.fail_node(rng.randrange(16)),
            lambda: machine.fail_link(*rng.choice(links)),
        ]
        if faults["nodes"]:
            verbs.append(lambda: machine.restore_node(rng.choice(faults["nodes"])))
        if faults["links"]:
            verbs.append(lambda: machine.restore_link(*rng.choice(faults["links"])))
        if rng.choice(verbs)():
            assert machine._fault_dist_cols == {}
        for source in range(16):
            for destination in range(16):
                expected = _reference_fault_hops(machine, source, destination)
                assert machine._hops_under_faults(source, destination) == expected, (
                    f"({source} -> {destination}) under {machine.active_faults()}"
                )
                if source == destination:
                    continue
                if expected < 0:
                    with pytest.raises(LinkDownError):
                        machine.transfer_time(source, destination, 64)
                else:
                    assert machine.transfer_time(source, destination, 64) > 0.0
