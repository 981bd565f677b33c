"""The data allocation manager (paper Section 2.2).

Decides which processing element hosts each fragment *copy* of a
relation.  Primaries spread over distinct elements with the most free
memory — fragments are the unit of parallelism, so spreading them is
what buys intra-query speedup (E4), while memory-awareness keeps
16 MByte elements from overflowing — and replicas park on the emptiest
elements not already holding a copy.  The online rebalancer
(:mod:`repro.core.rebalance`) asks the same manager where split and
migrated fragments should go.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.machine.machine import Machine


class DataAllocationManager:
    """Places fragment copies onto processing elements."""

    def __init__(self, machine: Machine, reserve_node: int | None = 0):
        """*reserve_node* (the GDH's home) is avoided while alternatives
        exist, so coordination work does not contend with fragment
        hosting on small machines."""
        self.machine = machine
        self.reserve_node = reserve_node

    def place_fragments(
        self, n_fragments: int, expected_bytes_per_fragment: int = 0
    ) -> list[int]:
        """Pick a home element for each of *n_fragments* fragments.

        Spreads over distinct elements first, most free memory first;
        wraps around when there are more fragments than elements.
        Raises :class:`AllocationError` if no element can fit the
        expected footprint.
        """
        if n_fragments < 1:
            raise AllocationError(f"cannot place {n_fragments} fragments")
        machine = self.machine
        candidates = list(range(machine.n_nodes))
        if len(candidates) > n_fragments and self.reserve_node in candidates:
            candidates.remove(self.reserve_node)
        if not candidates:
            raise AllocationError("no processing elements available for placement")
        ranked = sorted(
            candidates,
            key=lambda n: (-machine.node(n).memory.available, n),
        )
        placements: list[int] = []
        for i in range(n_fragments):
            node_id = ranked[i % len(ranked)]
            free = machine.node(node_id).memory.available
            if expected_bytes_per_fragment and free < expected_bytes_per_fragment:
                raise AllocationError(
                    f"element {node_id} has {free} bytes free,"
                    f" fragment needs ~{expected_bytes_per_fragment}"
                )
            placements.append(node_id)
        return placements

    def _free_elements(self, used_nodes: set[int]) -> list[int]:
        """Elements not yet hosting a copy of the fragment at hand."""
        candidates = [
            n for n in range(self.machine.n_nodes) if n not in used_nodes
        ]
        if not candidates:
            raise AllocationError(
                "every processing element already hosts a copy of this fragment"
            )
        if len(candidates) > 1 and self.reserve_node in candidates:
            candidates.remove(self.reserve_node)
        return candidates

    def place_replica(self, used_nodes: set[int]) -> int:
        """Element for one more copy of a fragment whose copies already
        occupy *used_nodes*: the one with the fewest processes started,
        then the most free memory."""
        node = self.machine.node
        return min(
            self._free_elements(used_nodes),
            key=lambda n: (node(n).stats.processes_started, -node(n).memory.available, n),
        )

    def migration_target(self, exclude: set[int]) -> int:
        """Where a moved or split-off fragment copy should live: the
        least-busy live element outside *exclude* (the elements already
        hosting a copy — a fragment never keeps two on one element)."""
        machine = self.machine
        candidates = [
            n for n in self._free_elements(exclude) if machine.node_is_up(n)
        ]
        if not candidates:
            raise AllocationError("no live processing element to migrate to")
        node = machine.node
        return min(
            candidates,
            key=lambda n: (
                node(n).stats.busy_time_s,
                node(n).stats.processes_started,
                -node(n).memory.available,
                n,
            ),
        )
