"""The data allocation manager (paper Section 2.2).

Decides which processing element hosts each fragment *copy* of a
relation, and keeps the one table of which process serves it.

*Placement.*  Primaries spread over distinct elements with the most
free memory — fragments are the unit of parallelism, so spreading them
is what buys intra-query speedup (E4), while memory-awareness keeps
16 MByte elements from overflowing — and replicas park on the emptiest
elements not already holding a copy.  The online rebalancer
(:mod:`repro.core.rebalance`) asks the same manager where split and
migrated fragments should go.  Every placement draws its candidates
from the elements that are up: a down element hosts nothing new.

*Registry.*  The dictionary (:mod:`repro.core.catalog`) says *where* a
copy lives — element and OFM name; this manager says *who serves it*:
the name → live OFM table, filled by :meth:`spawn_copy` and emptied by
:meth:`retire` / :meth:`reap` and by nothing else.  Whether a copy is
live is asked in one place, :meth:`copies`.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.errors import AllocationError
from repro.core.catalog import FragmentInfo, TableInfo
from repro.ofm.manager import OFMProfile, OneFragmentManager
from repro.ofm.wal import WriteAheadLog
from repro.pool.runtime import PoolRuntime


class DataAllocationManager:
    """Places fragment copies onto processing elements and tracks the
    OFM serving each."""

    def __init__(
        self,
        runtime: PoolRuntime,
        reserve_node: int | None = 0,
        disk_resident: bool = False,
    ):
        """*reserve_node* (the GDH's home) is avoided while alternatives
        exist, so coordination work does not contend with fragment
        hosting on small machines.  *disk_resident* is handed to every
        OFM spawned."""
        self.runtime = runtime
        self.machine = runtime.machine
        self.reserve_node = reserve_node
        self.disk_resident = disk_resident
        #: OFM name -> the process serving that fragment copy.
        self.ofms: dict[str, OneFragmentManager] = {}

    # -- placement ---------------------------------------------------------------

    def _up_elements(self, wanted: int, exclude: Collection[int] = ()) -> list[int]:
        """Where *wanted* new copies may go: the up elements outside
        *exclude*, sparing the reserved one while enough others remain."""
        machine = self.machine
        candidates = [
            n
            for n in range(machine.n_nodes)
            if machine.node_is_up(n) and n not in exclude
        ]
        if not candidates:
            raise AllocationError(
                f"no processing element is up outside {sorted(exclude)}"
                " (the elements already holding a copy of the fragment)"
            )
        if len(candidates) > wanted and self.reserve_node in candidates:
            candidates.remove(self.reserve_node)
        return candidates

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
        ranked = sorted(
            self._up_elements(n_fragments),
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

    def place_replica(self, used_nodes: Collection[int]) -> int:
        """Element for one more copy of a fragment whose copies already
        occupy *used_nodes*: the one with the fewest processes started,
        then the most free memory."""
        node = self.machine.node
        return min(
            self._up_elements(1, used_nodes),
            key=lambda n: (node(n).stats.processes_started, -node(n).memory.available, n),
        )

    def migration_target(self, exclude: Collection[int]) -> int:
        """Where a moved or split-off fragment copy should live: the
        least-busy element outside *exclude* (the elements already
        hosting a copy — a fragment never keeps two on one element)."""
        node = self.machine.node
        return min(
            self._up_elements(1, exclude),
            key=lambda n: (
                node(n).stats.busy_time_s,
                node(n).stats.processes_started,
                -node(n).memory.available,
                n,
            ),
        )

    # -- the registry of live copies ------------------------------------------------

    def spawn_copy(
        self, info: TableInfo, name: str, node: int, start_at: float
    ) -> OneFragmentManager:
        """Spawn an empty OFM for one fragment copy of *info* on *node*.

        Creates the table's indexes on it and registers it; used by
        CREATE TABLE, by crash recovery (same name => same
        ``wal/<name>/...`` keys to replay) and by the online rebalancer
        (new name, filled by the copy phase).
        """
        if not self.machine.node_is_up(node):
            raise AllocationError(
                f"element {node} is down; restore it before fragment copy"
                f" {name!r} can run there"
            )
        ofm = self.runtime.spawn(
            OneFragmentManager,
            name=name,
            node=node,
            start_at=start_at,
            schema=info.schema,
            profile=OFMProfile.FULL,
            disk_resident=self.disk_resident,
        )
        for index in info.indexes:
            ofm.create_index(index.name, index.columns, index.unique, index.method)
        self.ofms[name] = ofm
        return ofm

    def spawn_fragment(
        self,
        info: TableInfo,
        fragment_id: int,
        node: int,
        n_replicas: int,
        start_at: float,
        avoid: Collection[int] = (),
    ) -> FragmentInfo:
        """Spawn a new fragment of *info*: its primary on *node*, and
        *n_replicas* replicas on distinct elements (availability and
        read load-balancing; Section 2.2 speaks of fragment copies)
        outside *avoid*.  Every copy is placed before the first is
        spawned, so a placement that fails leaves nothing behind.
        Returns the fragment's dictionary entry, not yet listed.
        """
        name = f"{info.name}.{fragment_id}"
        placed = [(node, name)]
        used = {node, *avoid}
        for replica_index in range(1, 1 + n_replicas):
            replica_node = self.place_replica(used)
            used.add(replica_node)
            placed.append((replica_node, f"{name}r{replica_index}"))
        for copy_node, copy_name in placed:
            self.spawn_copy(info, copy_name, copy_node, start_at)
        return FragmentInfo(fragment_id, node, name, tuple(placed[1:]))

    def copies(self, fragment: FragmentInfo) -> list[OneFragmentManager]:
        """The live copies of *fragment*, primary first (a replica leads
        while the primary's element is down)."""
        placed = (self.ofms.get(name) for _node, name in fragment.all_copies())
        return [ofm for ofm in placed if ofm is not None and ofm.alive]

    def retire(self, node: int, name: str) -> None:
        """Forget the copy *name* placed on *node* and wipe its stable
        storage — by its own process when one is alive, from here when
        it died with its element, so no ``wal/<name>/...`` or
        ``snap/<name>`` is left for a later copy of that name to replay.
        """
        ofm = self.ofms.pop(name, None)
        if ofm is not None and ofm.alive:
            ofm.destroy()
            return
        if ofm is not None:
            ofm.halt()
        WriteAheadLog(self.machine, node, name).wipe()

    def reap(self) -> list[str]:
        """Forget the copies whose process died with its element: their
        volatile state is gone for good (stable storage stays, for the
        successor that restart spawns under the same name).  Returns
        their names, sorted."""
        dead = sorted(name for name, ofm in self.ofms.items() if not ofm.alive)
        for name in dead:
            self.ofms.pop(name).halt()
        return dead
