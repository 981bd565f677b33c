"""Tests for interconnect topologies and routing."""

import pytest

from repro.errors import TopologyError
from repro.machine import MachineConfig
from repro.machine.router import Router
from repro.machine.topology import (
    Topology,
    build_chordal_ring,
    build_complete,
    build_hypercube,
    build_mesh,
    build_ring,
    build_topology,
)


class TestMesh:
    def test_8x8_mesh_matches_prototype(self):
        mesh = build_mesh(64)
        assert mesh.n_nodes == 64
        assert mesh.name == "mesh_8x8"
        # Interior nodes use exactly the four links of a processing element.
        assert mesh.max_degree == 4
        assert mesh.n_links == 2 * 7 * 8
        assert -1 not in mesh.bfs(0)[0]
        assert mesh.diameter() == 14

    def test_corner_and_interior_degrees(self):
        mesh = build_mesh(16)  # 4x4
        assert mesh.degree(0) == 2  # corner
        assert mesh.degree(5) == 4  # interior

    def test_non_square_counts_factorize(self):
        mesh = build_mesh(12)
        assert mesh.name == "mesh_3x4"
        assert -1 not in mesh.bfs(0)[0]

    def test_torus_wraps(self):
        torus = build_mesh(16, wrap=True)
        assert torus.max_degree == 4
        # Every node in a 4x4 torus has full degree.
        assert all(torus.degree(n) == 4 for n in range(16))
        assert torus.diameter() == 4

    def test_mesh_mean_hops_smaller_than_ring(self):
        assert build_mesh(64).mean_hops() < build_ring(64).mean_hops()


class TestChordalRing:
    def test_prototype_chordal_ring_degree_four(self):
        ring = build_chordal_ring(64, skips=(8,))
        assert ring.max_degree == 4
        assert -1 not in ring.bfs(0)[0]
        assert ring.n_links == 128

    def test_chords_shrink_diameter(self):
        plain = build_ring(64)
        chordal = build_chordal_ring(64, skips=(8,))
        assert chordal.diameter() < plain.diameter()
        assert chordal.diameter() == 7

    def test_bad_skip_rejected(self):
        with pytest.raises(TopologyError):
            build_chordal_ring(64, skips=(1,))
        with pytest.raises(TopologyError):
            build_chordal_ring(64, skips=(40,))


class TestOtherTopologies:
    def test_hypercube_structure(self):
        cube = build_hypercube(16)
        assert all(cube.degree(n) == 4 for n in range(16))
        assert cube.diameter() == 4

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(TopologyError):
            build_hypercube(12)

    def test_complete_graph(self):
        complete = build_complete(5)
        assert complete.n_links == 10
        assert complete.diameter() == 1

    def test_ring_of_two(self):
        ring = build_ring(2)
        assert ring.n_links == 1
        assert -1 not in ring.bfs(0)[0]


class TestTopologyValidation:
    def test_self_loops_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, [(0, 7)])

    def test_degree_check_enforces_link_budget(self):
        star = Topology("star", 6, [(0, i) for i in range(1, 6)])
        with pytest.raises(TopologyError):
            star.check_degree(4)

    def test_build_topology_from_config(self):
        config = MachineConfig(n_nodes=64, topology="chordal_ring")
        topology = build_topology(config)
        assert topology.n_nodes == 64
        assert topology.max_degree <= config.links_per_node

    def test_build_topology_rejects_overdegree(self):
        # A 64-node hypercube has degree 6 > 4 links.
        config = MachineConfig(n_nodes=64, topology="hypercube")
        with pytest.raises(TopologyError):
            build_topology(config)


class TestRouter:
    def test_routes_are_shortest_paths(self):
        mesh = build_mesh(16)
        router = Router(mesh)
        for source in range(16):
            distances = mesh.bfs(source)[0]
            for destination in range(16):
                assert router.hops(source, destination) == distances[destination]

    def test_path_endpoints_and_length(self):
        mesh = build_mesh(64)
        router = Router(mesh)
        path = router.path(0, 63)
        assert path[0] == 0
        assert path[-1] == 63
        assert len(path) == router.hops(0, 63) + 1
        # Consecutive path nodes must be adjacent.
        for a, b in zip(path, path[1:]):
            assert b in mesh.neighbors(a)

    def test_routing_is_deterministic(self):
        mesh = build_mesh(64)
        assert Router(mesh).path(5, 40) == Router(mesh).path(5, 40)

    def test_disconnected_topology_rejected(self):
        disconnected = Topology("parts", 4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError):
            Router(disconnected)

