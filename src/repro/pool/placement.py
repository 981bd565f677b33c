"""Placement policies: which processing element gets a new process.

POOL-X "supports explicit allocation of the dynamically created processes
onto processing elements.  This allows for a proper balance between
storage, processing, and communication, under the control of the
implementor of the database system" (Section 3.1).  These policies are
that control knob; the data allocation manager and the parallelizer pick
among them.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.errors import AllocationError
from repro.machine.machine import Machine


def _up_nodes(machine: Machine) -> list[int]:
    """Elements that can host a new process (down elements excluded)."""
    nodes = [n for n in range(machine.n_nodes) if machine.node_is_up(n)]
    if not nodes:
        raise AllocationError("every processing element is down")
    return nodes


class PlacementPolicy:
    """Chooses a processing element for each newly spawned process.

    Policies never place onto a failed element: a crashed PE hosts no
    new processes until it is restored.
    """

    def choose(self, machine: Machine) -> int:
        raise NotImplementedError

    def choose_many(self, machine: Machine, count: int) -> list[int]:
        """Choose *count* elements (may repeat when count > n_nodes)."""
        return [self.choose(machine) for _ in range(count)]


class Pinned(PlacementPolicy):
    """Always the given element — fully explicit allocation."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def choose(self, machine: Machine) -> int:
        if not 0 <= self.node_id < machine.n_nodes:
            raise AllocationError(
                f"pinned node {self.node_id} outside machine of {machine.n_nodes}"
            )
        if not machine.node_is_up(self.node_id):
            raise AllocationError(f"pinned node {self.node_id} is down")
        return self.node_id


class RoundRobin(PlacementPolicy):
    """Cycle through elements, optionally restricted to a subset."""

    def __init__(self, nodes: Sequence[int] | None = None, start: int = 0) -> None:
        self._nodes = list(nodes) if nodes is not None else None
        self._counter = itertools.count(start)

    def choose(self, machine: Machine) -> int:
        pool = (
            list(self._nodes) if self._nodes is not None else _up_nodes(machine)
        )
        if not pool:
            raise AllocationError("round-robin placement over an empty node set")
        choice = pool[next(self._counter) % len(pool)]
        if not machine.node_is_up(choice):
            raise AllocationError(f"round-robin node {choice} is down")
        return choice


class LeastLoaded(PlacementPolicy):
    """The element with the least accumulated busy time (ties: lowest id)."""

    def choose(self, machine: Machine) -> int:
        # Called once per spawned query process: one pass, no per-node
        # lookups.  Strict < keeps the lowest id among equals.
        best, best_busy = -1, 0.0
        for pe in machine.nodes:
            if machine.node_is_up(pe.node_id):
                busy = pe.stats.busy_time_s
                if best < 0 or busy < best_busy:
                    best, best_busy = pe.node_id, busy
        if best < 0:
            raise AllocationError("every processing element is down")
        return best


class MostFreeMemory(PlacementPolicy):
    """The element with the most free main memory — for fragment hosting."""

    def choose(self, machine: Machine) -> int:
        return max(
            _up_nodes(machine),
            key=lambda n: (machine.node(n).memory.available, -n),
        )

    def choose_many(self, machine: Machine, count: int) -> list[int]:
        # Spread over distinct elements first, by free memory.
        ranked = sorted(
            _up_nodes(machine),
            key=lambda n: (-machine.node(n).memory.available, n),
        )
        chosen = []
        for i in range(count):
            chosen.append(ranked[i % len(ranked)])
        return chosen


class DiskNodes(PlacementPolicy):
    """Round-robin over the disk-equipped elements (for recovery services)."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def choose(self, machine: Machine) -> int:
        disks = [
            pe.node_id
            for pe in machine.disk_nodes()
            if machine.node_is_up(pe.node_id)
        ]
        if not disks:
            raise AllocationError("machine has no live disk-equipped elements")
        return disks[next(self._counter) % len(disks)]
