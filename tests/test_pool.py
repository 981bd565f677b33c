"""Tests for the POOL-X-like process runtime (paper Section 3.1)."""

import pytest

from repro.errors import AllocationError, MachineError, ProcessCrashed
from repro.machine import Machine, MachineConfig
from repro.pool import LeastLoaded, PoolProcess, RoundRobin


class TestSpawn:
    def test_explicit_allocation(self, runtime4):
        process = runtime4.spawn(PoolProcess, node=2)
        assert process.node_id == 2
        assert process.alive

    def test_spawn_charges_startup_cost(self, runtime4):
        process = runtime4.spawn(PoolProcess, node=1)
        assert process.ready_at == pytest.approx(
            runtime4.machine.config.cpu_start_cost_s
        )

    def test_start_at_delays_clock(self, runtime4):
        process = runtime4.spawn(PoolProcess, node=0, start_at=5.0)
        assert process.ready_at == pytest.approx(
            5.0 + runtime4.machine.config.cpu_start_cost_s
        )

    def test_names_unique_and_lookup(self, runtime4):
        a = runtime4.spawn(PoolProcess, name="ofm-a", node=0)
        assert runtime4.process("ofm-a") is a
        with pytest.raises(MachineError):
            runtime4.spawn(PoolProcess, name="ofm-a", node=1)

    def test_node_and_placement_mutually_exclusive(self, runtime4):
        with pytest.raises(MachineError):
            runtime4.spawn(PoolProcess, node=1, placement=RoundRobin())

    def test_terminate_frees_name(self, runtime4):
        process = runtime4.spawn(PoolProcess, name="temp", node=0)
        runtime4.terminate(process)
        assert not process.alive
        with pytest.raises(MachineError):
            runtime4.process("temp")
        with pytest.raises(MachineError):
            process.charge(1.0)

    def test_bad_node_rejected(self, runtime4):
        with pytest.raises(MachineError):
            runtime4.spawn(PoolProcess, node=99)


class TestPlacement:
    def test_round_robin_cycles(self, machine4):
        policy = RoundRobin()
        picks = [policy.choose(machine4) for _ in range(6)]
        assert picks == [0, 1, 2, 3, 0, 1]

    def test_round_robin_subset(self, machine4):
        policy = RoundRobin(nodes=[1, 3])
        assert [policy.choose(machine4) for _ in range(4)] == [1, 3, 1, 3]

    def test_round_robin_empty_subset_raises(self, machine4):
        with pytest.raises(AllocationError):
            RoundRobin(nodes=[]).choose(machine4)

    def test_least_loaded_prefers_idle_node(self, machine4):
        machine4.node(0).charge(10.0)
        machine4.node(1).charge(5.0)
        assert LeastLoaded().choose(machine4) == 2

    def test_least_loaded_ties_and_down_nodes(self):
        # Same choice as min over up nodes of (busy time, id), which is
        # what the policy used to spell out per element.
        import random

        machine = Machine(MachineConfig(n_nodes=9, disk_nodes=(0,)))
        rng = random.Random(4)
        for _ in range(200):
            node = rng.randrange(9)
            machine.node(node).charge(rng.choice([0.5, 0.5, 1.0, 0.25]))
            if rng.random() < 0.2:
                machine.fail_node(node)
            if rng.random() < 0.2:
                machine.restore_node(rng.randrange(9))
            up = [n for n in range(9) if machine.node_is_up(n)]
            if not up:
                with pytest.raises(AllocationError):
                    LeastLoaded().choose(machine)
                continue
            assert LeastLoaded().choose(machine) == min(
                up, key=lambda n: (machine.node(n).stats.busy_time_s, n)
            )


class TestTimelineMessaging:
    def test_send_advances_receiver_past_transfer(self, runtime4):
        sender = runtime4.spawn(PoolProcess, node=0)
        receiver = runtime4.spawn(PoolProcess, node=1)
        before = receiver.ready_at
        arrival = runtime4.send(sender, receiver, 10_000)
        assert arrival > before
        assert receiver.ready_at == arrival

    def test_send_does_not_rewind_busy_receiver(self, runtime4):
        sender = runtime4.spawn(PoolProcess, node=0)
        receiver = runtime4.spawn(PoolProcess, node=1)
        receiver.charge(100.0)  # receiver busy until t=100+
        runtime4.send(sender, receiver, 100)
        assert receiver.ready_at >= 100.0

    def test_parallel_fanout_critical_path(self, runtime4):
        """Response time of a fan-out/fan-in is the max branch, not the sum."""
        coordinator = runtime4.spawn(PoolProcess, node=0)
        workers = [runtime4.spawn(PoolProcess, node=n) for n in (1, 2, 3)]
        work = [0.5, 2.0, 1.0]
        arrivals = []
        for worker, seconds in zip(workers, work):
            runtime4.send(coordinator, worker, 200)
            worker.charge(seconds)
            arrivals.append(runtime4.send(worker, coordinator, 200))
        finish = max(arrivals)
        assert finish < sum(work) + 1.0
        assert finish >= 2.0  # at least the slowest branch

    def test_send_counts_stats(self, runtime4):
        sender = runtime4.spawn(PoolProcess, node=0)
        receiver = runtime4.spawn(PoolProcess, node=1)
        runtime4.send(sender, receiver, 500)
        assert runtime4.stats.messages == 1
        assert runtime4.stats.bytes_moved == 500
        node0 = runtime4.machine.node(0).stats
        node1 = runtime4.machine.node(1).stats
        assert node0.messages_sent == 1
        assert node1.messages_received == 1
        assert node1.bytes_received == 500

    def test_local_send_is_fast_but_counted(self, runtime4):
        a = runtime4.spawn(PoolProcess, node=0)
        b = runtime4.spawn(PoolProcess, node=0)
        runtime4.send(a, b, 1_000_000)
        assert runtime4.stats.local_messages == 1
        # No network time, only CPU overheads.
        assert b.ready_at < a.ready_at + 0.01

    def test_negative_size_rejected(self, runtime4):
        a = runtime4.spawn(PoolProcess, node=0)
        b = runtime4.spawn(PoolProcess, node=1)
        with pytest.raises(MachineError):
            runtime4.send(a, b, -1)

    def test_horizon_is_max_clock(self, runtime4):
        a = runtime4.spawn(PoolProcess, node=0)
        b = runtime4.spawn(PoolProcess, node=1)
        a.charge(3.0)
        b.charge(7.0)
        assert runtime4.horizon() == pytest.approx(b.ready_at)

    def test_send_to_dead_receiver_raises_and_counts(self, runtime4):
        sender = runtime4.spawn(PoolProcess, node=0)
        crashed = runtime4.spawn(PoolProcess, node=1)
        terminated = runtime4.spawn(PoolProcess, node=2)
        runtime4.crash_node(1)
        runtime4.terminate(terminated)
        clock = sender.ready_at
        with pytest.raises(ProcessCrashed):
            runtime4.send(sender, crashed, 64)
        assert runtime4.stats.dead_letters == 1
        with pytest.raises(MachineError) as excinfo:
            runtime4.send(sender, terminated, 64)
        assert not isinstance(excinfo.value, ProcessCrashed)
        assert runtime4.stats.dead_letters == 2
        # A failed send moves nothing and charges nobody.
        assert runtime4.stats.messages == 0
        assert sender.ready_at == clock
