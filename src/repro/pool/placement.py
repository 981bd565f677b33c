"""Placement policies: which processing element gets a new process.

POOL-X "supports explicit allocation of the dynamically created processes
onto processing elements.  This allows for a proper balance between
storage, processing, and communication, under the control of the
implementor of the database system" (Section 3.1).  Explicit allocation
is ``PoolRuntime.spawn(node=...)``; otherwise a policy chooses —
round-robin (the runtime's default) or least-loaded (query processes).
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


class RoundRobin(PlacementPolicy):
    """Cycle through elements, optionally restricted to a subset."""

    def __init__(self, nodes: Sequence[int] | None = None) -> None:
        self._nodes = list(nodes) if nodes is not None else None
        self._counter = itertools.count()

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
