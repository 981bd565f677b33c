"""Machine-model edge cases."""

import pytest

from repro.machine import Machine, MachineConfig


class TestMachineEdges:
    def test_single_node_machine(self):
        machine = Machine(MachineConfig(n_nodes=1, topology="complete", disk_nodes=(0,)))
        assert machine.transfer_time(0, 0, 10_000) == 0.0
        assert machine.nearest_disk_node(0) == 0

    def test_zero_byte_transfer_free(self):
        machine = Machine(MachineConfig(n_nodes=4))
        assert machine.transfer_time(0, 1, 0) == 0.0

    def test_disk_time_requires_disk(self):
        from repro.errors import MachineError

        machine = Machine(MachineConfig(n_nodes=2))
        with pytest.raises(MachineError):
            machine.disk_time(0, 100)

    def test_memory_peak_survives_frees(self):
        machine = Machine(MachineConfig(n_nodes=2))
        memory = machine.node(0).memory
        memory.allocate(1_000_000, "spike")
        memory.free("spike")
        assert memory.peak >= 1_000_000
        assert memory.used == 0

