"""POOL-X-style processes.

Section 3.1: "The programming model of POOL-X is a collection of
dynamically created processes.  Internally the processes have a control
flow behaviour and they communicate via message-passing only, i.e. no
shared memory. [...] POOL-X supports explicit allocation of the
dynamically created processes onto processing elements."

A :class:`PoolProcess` lives on one processing element and carries its
own *simulated* clock (``ready_at``): the time at which the process has
finished everything assigned to it so far.  CPU work advances the clock
and is charged to the hosting element; messages between processes are
charged network transfer time by the runtime.  Response times of
parallel computations fall out as the maximum over the involved process
clocks — the critical path.  A process's control flow is the caller's
code: it calls :meth:`charge` for work and :meth:`PoolRuntime.send` for
each message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import MachineError, ProcessCrashed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pool.runtime import PoolRuntime


class PoolProcess:
    """One dynamically created process, allocated to a processing element."""

    def __init__(self, runtime: "PoolRuntime", name: str, node_id: int) -> None:
        self.runtime = runtime
        self.name = name
        self.node_id = node_id
        #: Simulated time at which this process becomes idle.
        self.ready_at = 0.0
        self.alive = True
        #: Set when the process died to a fault (element crash / kill)
        #: rather than orderly termination; volatile state is gone.
        self.failed = False

    # -- simulated-time accounting -----------------------------------------

    def charge(self, seconds: float, tuples: int = 0) -> float:
        """Consume *seconds* of CPU on this process's element.

        Returns the new ``ready_at``.
        """
        if seconds < 0:
            raise MachineError(f"negative work: {seconds}")
        if not self.alive:
            if self.failed:
                raise ProcessCrashed(f"process {self.name!r} crashed")
            raise MachineError(f"process {self.name!r} is terminated")
        self.ready_at += seconds
        self.runtime.machine.node(self.node_id).charge(seconds, tuples)
        return self.ready_at

    def advance_to(self, time: float) -> float:
        """Move the clock forward to *time* (idle wait); never backward."""
        self.ready_at = max(self.ready_at, time)
        return self.ready_at

    @property
    def memory(self) -> Any:
        """The local main-memory account of the hosting element."""
        return self.runtime.machine.node(self.node_id).memory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}@PE{self.node_id}, t={self.ready_at:.6f})"
