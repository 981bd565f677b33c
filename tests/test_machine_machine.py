"""Tests for the assembled Machine and its analytic cost model."""

import pytest

from repro.errors import MachineError
from repro.machine import Machine, MachineConfig, paper_prototype, small_machine


class TestConfig:
    def test_paper_defaults(self):
        config = MachineConfig()
        assert config.n_nodes == 64
        assert config.links_per_node == 4
        assert config.link_bandwidth_bps == 10_000_000
        assert config.packet_bits == 256
        assert config.memory_bytes == 16 * 1024 * 1024

    def test_derived_quantities(self):
        config = MachineConfig()
        assert config.packet_bytes == 32
        assert config.packet_service_time_s == pytest.approx(256 / 10e6)
        assert config.link_packets_per_second == pytest.approx(39062.5)
        assert config.packets_for_bytes(0) == 0
        assert config.packets_for_bytes(1) == 1
        assert config.packets_for_bytes(33) == 2

    def test_validation(self):
        with pytest.raises(MachineError):
            MachineConfig(n_nodes=0)
        with pytest.raises(MachineError):
            MachineConfig(topology="starship")
        with pytest.raises(MachineError):
            MachineConfig(disk_nodes=(99,))

    def test_paper_prototype_has_disks(self):
        config = paper_prototype()
        assert config.n_nodes == 64
        assert 0 in config.disk_nodes
        assert len(config.disk_nodes) == 8


class TestMachine:
    def test_nodes_and_disks(self):
        machine = Machine(paper_prototype())
        assert machine.n_nodes == 64
        assert len(machine.disk_nodes()) == 8
        assert machine.node(0).has_disk
        assert not machine.node(1).has_disk

    def test_node_out_of_range(self):
        machine = Machine(small_machine(4))
        with pytest.raises(MachineError):
            machine.node(4)

    def test_nearest_disk_node(self):
        machine = Machine(paper_prototype())
        assert machine.node(machine.nearest_disk_node(3)).has_disk
        # A disk node is its own nearest disk.
        assert machine.nearest_disk_node(0) == 0

    def test_no_disks_raises(self):
        machine = Machine(MachineConfig(n_nodes=4))
        with pytest.raises(MachineError):
            machine.nearest_disk_node(0)


class TestTransferCost:
    def test_local_transfer_free(self):
        machine = Machine(small_machine(4))
        assert machine.transfer_time(2, 2, 10_000) == 0.0

    def test_transfer_grows_with_size(self):
        machine = Machine(small_machine(4))
        small = machine.transfer_time(0, 1, 100)
        large = machine.transfer_time(0, 1, 100_000)
        assert large > small > 0

    def test_transfer_grows_with_distance(self):
        machine = Machine(MachineConfig(n_nodes=64))
        near = machine.transfer_time(0, 1, 1000)
        far = machine.transfer_time(0, 63, 1000)
        assert far > near

    def test_pipelining_beats_per_hop_retransmission(self):
        """Cut-through: a large transfer over many hops costs roughly
        serialization once, not once per hop."""
        machine = Machine(MachineConfig(n_nodes=64))
        n_bytes = 100_000
        hops = machine.router.hops(0, 63)
        one_hop = machine.transfer_time(0, 1, n_bytes)
        many_hops = machine.transfer_time(0, 63, n_bytes)
        assert many_hops < one_hop * hops * 0.5


class TestCpuAndDiskCost:
    def test_cpu_time_linear_in_work(self):
        machine = Machine(small_machine(2))
        config = machine.config
        assert machine.cpu_time(tuples=100) == pytest.approx(100 * config.cpu_tuple_cost_s)
        assert machine.cpu_time(hashes=10, compares=5) == pytest.approx(
            10 * config.cpu_hash_cost_s + 5 * config.cpu_compare_cost_s
        )

    def test_disk_time_includes_network_hop(self):
        # Machine with a single remote disk: node 1 has it, node 0 does not.
        config = MachineConfig(n_nodes=4, disk_nodes=(1,))
        machine = Machine(config)
        local = machine.disk_time(1, 8192)
        remote = machine.disk_time(0, 8192)
        assert remote > local

    def test_main_memory_vs_disk_gap(self):
        """The premise of the whole paper: memory access beats disk by
        orders of magnitude."""
        machine = Machine(small_machine(4))
        tuples = 1000
        row_bytes = 50
        memory_cost = machine.cpu_time(tuples=tuples)
        sequential = machine.disk_time(0, tuples * row_bytes, sequential=True)
        random_access = sum(
            machine.disk_time(0, row_bytes, sequential=False) for _ in range(tuples)
        )
        assert sequential > 10 * memory_cost
        assert random_access > 1000 * memory_cost

    def test_utilization_report(self):
        machine = Machine(small_machine(2))
        machine.node(0).charge(0.5)
        util = machine.utilization(1.0)
        assert util[0] == pytest.approx(0.5)
        assert util[1] == 0.0
        assert machine.utilization(0.0)[0] == 0.0
