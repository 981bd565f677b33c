"""The POOL-X runtime: process creation, allocation, and message passing.

The runtime owns a :class:`~repro.machine.machine.Machine` and hands out
:class:`~repro.pool.process.PoolProcess` instances placed on its
processing elements.  All inter-process communication goes through
:meth:`PoolRuntime.send` (one message) or :meth:`PoolRuntime.fan_out`
(several at once), which share one cost path: they charge the analytic
network cost model of the machine and keep per-node message statistics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.errors import MachineError, ProcessCrashed
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.obs.api import SnapshotMixin
from repro.obs.tracer import Tracer, active
from repro.pool.placement import PlacementPolicy, RoundRobin
from repro.pool.process import PoolProcess

P = TypeVar("P", bound=PoolProcess)

#: CPU cost of assembling/sending one message (marshalling, system call).
SEND_OVERHEAD_S = 2e-5
#: CPU cost of receiving one message.
RECEIVE_OVERHEAD_S = 2e-5


@dataclass
class RuntimeStats(SnapshotMixin):
    """Aggregate communication counters for one runtime.

    A :class:`~repro.obs.api.Snapshot` like every other stats surface.
    """

    processes_spawned: int = 0
    processes_terminated: int = 0
    processes_killed: int = 0
    messages: int = 0
    bytes_moved: int = 0
    local_messages: int = 0
    #: Sends that raised because the receiver was dead.
    dead_letters: int = 0

    def stats(self) -> dict[str, int]:
        return {
            "processes_spawned": self.processes_spawned,
            "processes_terminated": self.processes_terminated,
            "processes_killed": self.processes_killed,
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "local_messages": self.local_messages,
            "dead_letters": self.dead_letters,
        }


class PoolRuntime:
    """Creates processes on a machine and passes messages between them."""

    def __init__(
        self,
        machine: Machine | MachineConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if machine is None:
            machine = Machine()
        elif isinstance(machine, MachineConfig):
            machine = Machine(machine)
        self.machine = machine
        self.stats = RuntimeStats()
        #: Raw tracer handle for collaborators (executor, commit,
        #: recovery) that call :func:`repro.obs.tracer.active` on it.
        self.tracer = tracer
        self._tracer = active(tracer)
        self._default_placement = RoundRobin()
        self._processes: dict[str, PoolProcess] = {}
        self._name_counter = 0

    # -- process lifecycle ----------------------------------------------------

    def spawn(
        self,
        process_class: type[P] = PoolProcess,
        name: str | None = None,
        node: int | None = None,
        placement: PlacementPolicy | None = None,
        start_at: float = 0.0,
        **kwargs: Any,
    ) -> P:
        """Create a process and allocate it to a processing element.

        Either pin it with *node* (explicit allocation, as POOL-X allows)
        or let a :class:`PlacementPolicy` choose.  Creation costs
        ``cpu_start_cost_s`` on the hosting element and the process's
        clock starts no earlier than *start_at*.
        """
        if node is not None and placement is not None:
            raise MachineError("pass either node or placement, not both")
        if node is None:
            policy = placement or self._default_placement
            node = policy.choose(self.machine)
        if not 0 <= node < self.machine.n_nodes:
            raise MachineError(f"no such processing element: {node}")
        if name is None:
            name = f"{process_class.__name__.lower()}-{self._name_counter}"
            self._name_counter += 1
        if name in self._processes:
            raise MachineError(f"process name {name!r} already in use")
        process = process_class(self, name, node, **kwargs)
        process.advance_to(start_at)
        process.charge(self.machine.config.cpu_start_cost_s)
        self.machine.node(node).stats.processes_started += 1
        self.stats.processes_spawned += 1
        self._processes[name] = process
        return process

    def terminate(self, process: PoolProcess) -> None:
        """Kill a process; its name becomes reusable."""
        # The runtime is the process lifecycle mechanism, not a peer
        # process; marking death is its job, not cross-process traffic.
        process.alive = False  # prismalint: disable=PL003 -- runtime owns lifecycle
        self._processes.pop(process.name, None)
        self.stats.processes_terminated += 1

    def kill(self, process: PoolProcess) -> None:
        """Fault-kill a process: it dies with its volatile state.

        Unlike :meth:`terminate` the death is marked as a *failure*, so
        later sends to it raise :class:`~repro.errors.ProcessCrashed`
        instead of a generic lifecycle error.  The name becomes
        reusable — restart respawns a fresh process under it.
        """
        process.alive = False  # prismalint: disable=PL003 -- runtime owns lifecycle
        process.failed = True  # prismalint: disable=PL003 -- runtime owns lifecycle
        self._processes.pop(process.name, None)
        self.stats.processes_killed += 1

    def crash_node(self, node_id: int) -> list[str]:
        """Kill every live process placed on one element; returns names.

        The machine-level element failure (routing) is the caller's
        responsibility (:meth:`~repro.machine.machine.Machine.fail_node`;
        :meth:`~repro.core.recovery.RecoveryManager.crash_element` does
        both).
        """
        victims = sorted(
            name
            for name, process in self._processes.items()
            if process.node_id == node_id
        )
        for name in victims:
            self.kill(self._processes[name])
        return victims

    def process(self, name: str) -> PoolProcess:
        try:
            return self._processes[name]
        except KeyError:
            raise MachineError(f"no live process named {name!r}") from None

    def live_processes(self) -> list[PoolProcess]:
        return list(self._processes.values())

    # -- messaging -------------------------------------------------------------

    def send(self, sender: PoolProcess, receiver: PoolProcess, n_bytes: int) -> float:
        """Move *n_bytes* from *sender* to *receiver*; returns arrival time.

        The message leaves when the sender is free, crosses the network
        at the machine's transfer rate, and the receiver's clock is
        advanced to the arrival.  Send/receive CPU overheads are charged
        on both sides.
        """
        self._check(sender, receiver, n_bytes)
        departure, arrival = self._depart(sender, receiver, n_bytes)
        self._arrive(sender, receiver, n_bytes, departure, arrival)
        return receiver.ready_at

    def fan_out(self, messages: Sequence[tuple[PoolProcess, PoolProcess, int]]) -> None:
        """Send ``(sender, receiver, n_bytes)`` *messages* at once.

        A fan-out, not a chain of :meth:`send` calls: every receiver is
        checked first, so a dead one raises before anything is charged;
        then every message departs on its sender's clock, in order; only
        then does each receiver's clock move to each arrival, paying the
        receive overhead in the order the messages were sent.  A sender
        that also receives therefore starts sending without waiting for
        what the others send it, and a many-to-many step costs its
        slowest sender, not the sum of them.
        """
        for sender, receiver, n_bytes in messages:
            self._check(sender, receiver, n_bytes)
        flights = [self._depart(*message) for message in messages]
        for (sender, receiver, n_bytes), (departure, arrival) in zip(messages, flights):
            self._arrive(sender, receiver, n_bytes, departure, arrival)

    def _check(self, sender: PoolProcess, receiver: PoolProcess, n_bytes: int) -> None:
        if n_bytes < 0:
            raise MachineError(f"negative message size: {n_bytes}")
        # Dead peers are an error, not silence: a sender must learn its
        # message had nowhere to go (2PC turns this into abort/unreached).
        if not receiver.alive:
            self.stats.dead_letters += 1
            if receiver.failed:
                raise ProcessCrashed(
                    f"cannot send from {sender.name!r} to {receiver.name!r}:"
                    " receiver crashed"
                )
            raise MachineError(
                f"cannot send from {sender.name!r} to {receiver.name!r}:"
                " receiver is terminated"
            )

    def _depart(
        self, sender: PoolProcess, receiver: PoolProcess, n_bytes: int
    ) -> tuple[float, float]:
        """The sender's half of a message: its departure and arrival."""
        departure = sender.charge(SEND_OVERHEAD_S)
        travel = self.machine.transfer_time(sender.node_id, receiver.node_id, n_bytes)
        return departure, departure + travel

    def _arrive(
        self,
        sender: PoolProcess,
        receiver: PoolProcess,
        n_bytes: int,
        departure: float,
        arrival: float,
    ) -> None:
        """The receiver's half of a message, and its accounting."""
        receiver.advance_to(arrival)
        receiver.charge(RECEIVE_OVERHEAD_S)
        self.stats.messages += 1
        self.stats.bytes_moved += n_bytes
        if sender.node_id == receiver.node_id:
            self.stats.local_messages += 1
        sender_stats = self.machine.node(sender.node_id).stats
        sender_stats.messages_sent += 1
        sender_stats.bytes_sent += n_bytes
        receiver_stats = self.machine.node(receiver.node_id).stats
        receiver_stats.messages_received += 1
        receiver_stats.bytes_received += n_bytes
        if self._tracer is not None:
            self._tracer.span(
                departure,
                arrival,
                "process.send",
                f"{sender.name}->{receiver.name}",
                node=sender.node_id,
                actor=sender.name,
                bytes=n_bytes,
                to_node=receiver.node_id,
            )

    # -- reporting ------------------------------------------------------------

    def horizon(self) -> float:
        """Latest clock over all live processes — the makespan so far."""
        processes = self.live_processes()
        return max((p.ready_at for p in processes), default=0.0)
