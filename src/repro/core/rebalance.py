"""Online re-fragmentation: split, merge, and migrate fragments live.

The paper fixes a relation's fragmentation at CREATE TABLE; a skewed
workload then hammers whichever OFM owns the hot fragment while its
neighbours idle.  This module adds the missing control loop — a
:class:`Rebalancer` supervised by the GDH that watches the executor's
per-fragment access counters and reshapes placement *online*:

* **migrate** — move one fragment copy to another element,
* **split** — carve the hot half of a fragment's hash buckets into a
  new fragment placed on a fresh element,
* **merge** — fold a cold fragment back into a sibling.

Every action follows the same three-phase protocol:

1. **copy** — new OFM copies are spawned and filled from a live source
   copy while the fragment keeps serving reads and writes (the new
   copies are invisible: nothing in the catalog routes to them yet).
   The copy rides :func:`repro.core.recovery.sync_copy_from`, the same
   WAL-checkpointed path replica catch-up uses.
2. **catch-up + flip** — a short exclusive lock on the fragment drains
   in-flight statements (writers queue in the lock table exactly like
   any conflicting transaction), the delta that arrived during the copy
   is re-synced, and the catalog flips atomically: FragmentInfo entries
   and the OFM registry change together under the lock.
3. **publish** — :meth:`GlobalDataHandler.placement_changed` bumps the
   DDL epoch (invalidating every cached plan, which may have pruned to
   fragments that no longer exist) and forces the dictionary to disk;
   the lock releases; obsolete OFMs are destroyed.

Split/merge change tuple routing, so they need a scheme whose routing
can be edited in place: :class:`RebalancedFragmentation` maps hash
buckets to fragment ids through an explicit table.  Deriving it from a
``HashFragmentation`` with ``n | B`` buckets is row-assignment-identical
(``(h % B) % n == h % n``), so the first rebalance action converts the
scheme without moving a single row.

Determinism: the rebalancer runs on the GDH's simulated clock, places
fragments through the GDH's :class:`~repro.core.allocation
.DataAllocationManager`, and uses no randomness — two same-seed runs
take identical actions (the CI rebalance-determinism job diffs them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RebalanceError
from repro.obs.api import SnapshotMixin
from repro.core.catalog import FragmentInfo, TableInfo
from repro.core.fragmentation import (
    FragmentationScheme,
    HashFragmentation,
    stable_hash,
)
from repro.core.gdh import GlobalDataHandler
from repro.core.locks import LockMode
from repro.core.recovery import sync_copy_from
from repro.core.transactions import TxnState
from repro.ofm.manager import OneFragmentManager

#: Hash buckets per initial fragment when deriving a
#: :class:`RebalancedFragmentation` from plain hash fragmentation.
#: Must keep ``n_fragments | buckets`` so the derivation is a no-op.
BUCKETS_PER_FRAGMENT = 8
#: The rebalancer ignores observation windows with fewer total accesses.
MIN_ACCESSES = 64


class RebalancedFragmentation(FragmentationScheme, kind="rebalanced"):
    """Hash fragmentation with an editable bucket → fragment table.

    ``bucket_map[stable_hash(key) % len(bucket_map)]`` is the fragment
    id.  Splits and merges rewrite the table instead of re-hashing, so
    only the tuples whose buckets actually move ever travel.  Fragment
    ids may be non-contiguous after a merge; :meth:`TableInfo.fragment`
    handles the gaps.
    """

    def __init__(self, column: int, bucket_map: tuple[int, ...]):
        if not bucket_map:
            raise RebalanceError("bucket map cannot be empty")
        self.column = column
        self.bucket_map = tuple(bucket_map)
        self.n_fragments = len(set(self.bucket_map))

    @classmethod
    def from_hash(cls, scheme: HashFragmentation) -> "RebalancedFragmentation":
        """Derive from hash fragmentation without moving any row.

        With ``B = n * BUCKETS_PER_FRAGMENT`` buckets and bucket ``b``
        owned by fragment ``b % n``, every key keeps its fragment:
        ``(h % B) % n == h % n`` because ``n`` divides ``B``.
        """
        n = scheme.n_fragments
        buckets = n * BUCKETS_PER_FRAGMENT
        return cls(scheme.column, tuple(b % n for b in range(buckets)))

    def fragment_of(self, row: tuple) -> int:
        return self.bucket_map[stable_hash(row[self.column]) % len(self.bucket_map)]

    def key_columns(self) -> tuple[int, ...]:
        return (self.column,)

    def prunable_fragments(self, column: int, value) -> list[int] | None:
        if column == self.column and value is not None:
            return [self.bucket_map[stable_hash(value) % len(self.bucket_map)]]
        return None

    def describe(self) -> str:
        return (
            f"rebalanced(col{self.column};"
            f" {len(self.bucket_map)} buckets over {self.n_fragments} fragments)"
        )

    def to_spec(self) -> dict:
        return {
            "kind": "rebalanced",
            "column": self.column,
            "bucket_map": list(self.bucket_map),
        }

    @classmethod
    def _from_spec(cls, spec: dict) -> "RebalancedFragmentation":
        return cls(spec["column"], tuple(spec["bucket_map"]))

    # -- editing ------------------------------------------------------------

    def fragment_buckets(self, fragment_id: int) -> list[int]:
        """The bucket indices currently routed to *fragment_id*."""
        return [
            bucket
            for bucket, owner in enumerate(self.bucket_map)
            if owner == fragment_id
        ]

    def split(self, fragment_id: int, new_fragment_id: int) -> "RebalancedFragmentation":
        """Route the odd half of *fragment_id*'s buckets to a new id."""
        buckets = self.fragment_buckets(fragment_id)
        if len(buckets) < 2:
            raise RebalanceError(
                f"fragment {fragment_id} holds a single bucket; cannot split"
            )
        moved = set(buckets[1::2])
        return RebalancedFragmentation(
            self.column,
            tuple(
                new_fragment_id if bucket in moved else owner
                for bucket, owner in enumerate(self.bucket_map)
            ),
        )

    def merge(self, source_id: int, dest_id: int) -> "RebalancedFragmentation":
        """Route every bucket of *source_id* to *dest_id*."""
        if source_id == dest_id:
            raise RebalanceError("cannot merge a fragment into itself")
        if not self.fragment_buckets(source_id):
            raise RebalanceError(f"fragment {source_id} owns no buckets")
        return RebalancedFragmentation(
            self.column,
            tuple(
                dest_id if owner == source_id else owner
                for owner in self.bucket_map
            ),
        )


@dataclass
class RebalanceReport(SnapshotMixin):
    """What the rebalancer did (Snapshot: ``stats``/``fingerprint``)."""

    #: ("migrate", table, fragment_id, from_node, to_node) /
    #: ("split", table, fragment_id, new_fragment_id, to_node) /
    #: ("merge", table, source_id, dest_id, rows_folded)
    actions: list[tuple] = field(default_factory=list)
    rows_moved: int = 0
    fragments_migrated: int = 0
    fragments_split: int = 0
    fragments_merged: int = 0
    #: Simulated seconds the flip held each exclusive lock (sum).
    lock_hold_s: float = 0.0

    def stats(self) -> dict[str, object]:
        return {
            "actions": [list(action) for action in self.actions],
            "rows_moved": self.rows_moved,
            "fragments_migrated": self.fragments_migrated,
            "fragments_split": self.fragments_split,
            "fragments_merged": self.fragments_merged,
            "lock_hold_s": self.lock_hold_s,
        }


class Rebalancer:
    """Online fragment re-placement, supervised by the GDH.

    Placement questions go to the GDH's allocator — the one CREATE
    TABLE asks — so initial placement and every later move follow the
    same rules.  ``db.rebalancer`` holds one per database.
    """

    def __init__(self, gdh: GlobalDataHandler, hot_ratio: float = 2.0):
        self.gdh = gdh
        #: A fragment is "hot" when its window accesses exceed
        #: ``hot_ratio`` × the per-fragment mean.
        self.hot_ratio = hot_ratio
        self.report = RebalanceReport()
        #: Monotone suffix for migrated-copy names: a fresh OFM name is
        #: a fresh WAL key space, so the new copy's durable state never
        #: collides with the old copy's chunks.
        self._generation = 0

    # -- policy -------------------------------------------------------------

    def step(self, table: str) -> list[tuple]:
        """One control-loop round: split the hottest fragment if skewed.

        Reads the executor's access counts since the last round
        (:meth:`FragmentAccessTracker.delta_since`), splits the hottest
        fragment when it runs at ≥ ``hot_ratio`` × the mean (falling
        back to migrating it off the busiest element when it is down to
        one bucket), then starts a new observation window.  Returns the
        actions taken (possibly empty).
        """
        gdh = self.gdh
        info = gdh.catalog.table(table)
        tracker = gdh.executor.access
        heat = tracker.delta_since(info.name) or tracker.table_counts(info.name)
        # Heat of a fragment since merged away (or of a dropped table of
        # the same name) is history: only listed fragments compete.
        listed = {fragment.fragment_id for fragment in info.fragments}
        heat = {fid: count for fid, count in heat.items() if fid in listed}
        before = len(self.report.actions)
        total = sum(heat.values())
        if total >= MIN_ACCESSES and len(info.fragments) > 0:
            mean = total / len(info.fragments)
            hottest = max(sorted(heat), key=lambda f: heat[f])
            if heat[hottest] >= self.hot_ratio * mean:
                try:
                    self.split_fragment(info.name, hottest)
                except RebalanceError:
                    # Down to one bucket: spreading by routing is out;
                    # move the copy to the least-loaded element instead.
                    self.migrate_fragment(info.name, hottest)
        tracker.mark()
        return self.report.actions[before:]

    # -- actions ------------------------------------------------------------

    def migrate_fragment(
        self,
        table: str,
        fragment_id: int,
        target_node: int | None = None,
        copy_index: int = 0,
    ) -> tuple | None:
        """Move one copy of a fragment to another element, online.

        *copy_index* 0 is the primary, 1.. the replicas.  The source of
        the data is the first *live* copy — so a copy lost to an element
        crash can be migrated away from the dead element, fed by its
        surviving sibling.  Returns the action tuple, or ``None`` when
        the allocator picks the element the copy already occupies.
        """
        gdh = self.gdh
        info = gdh.catalog.table(table)
        fragment = info.fragment(fragment_id)
        copies = fragment.all_copies()
        if not 0 <= copy_index < len(copies):
            raise RebalanceError(
                f"fragment {fragment_id} of {info.name!r} has no copy"
                f" #{copy_index}"
            )
        old_node, old_name = copies[copy_index]
        if target_node is None:
            target_node = gdh.allocator.migration_target(
                {node for node, _name in copies}
            )
        if target_node == old_node:
            return None
        if any(node == target_node for node, _name in copies):
            raise RebalanceError(
                f"element {target_node} already hosts a copy of fragment"
                f" {fragment_id} of {info.name!r}"
            )
        source = self._live_copies(info, fragment, "migrate from")[0]

        self._generation += 1
        new_name = f"{old_name}@g{self._generation}"
        new_ofm = gdh.allocator.spawn_copy(
            info, new_name, target_node, gdh.gdh_process.ready_at
        )
        try:
            # Phase 1: bulk copy while the fragment stays online (the
            # new copy is not in the catalog; no statement routes to it).
            sync_copy_from(gdh, source, new_ofm)

            def flip() -> None:
                # Phase 2, under the X lock: the source may have taken
                # writes during the copy — sync the delta, then swap the
                # catalog entry and the OFM registry together.
                sync_copy_from(gdh, source, new_ofm)
                if copy_index == 0:
                    fragment.node_id = target_node
                    fragment.ofm_name = new_name
                else:
                    replicas = list(fragment.replicas)
                    replicas[copy_index - 1] = (target_node, new_name)
                    fragment.replicas = tuple(replicas)

            self._locked_flip(info, [fragment_id], flip)
        except Exception:
            gdh.allocator.retire(target_node, new_name)
            raise
        gdh.allocator.retire(old_node, old_name)
        self.report.fragments_migrated += 1
        self.report.rows_moved += len(new_ofm.table)
        action = ("migrate", info.name, fragment_id, old_node, target_node)
        self.report.actions.append(action)
        return action

    def split_fragment(
        self, table: str, fragment_id: int, target_node: int | None = None
    ) -> tuple:
        """Carve half of a fragment's hash buckets into a new fragment.

        The new fragment gets the same copy count as its parent and a
        home picked by the allocator (excluding the parent's
        elements, so the split actually sheds load).  Rows whose buckets
        move are bulk-copied online; the exclusive lock then covers the
        delta catch-up, pruning the moved rows out of the parent's
        copies, and the scheme/catalog flip.
        """
        gdh = self.gdh
        info = gdh.catalog.table(table)
        scheme = self._rebalanced_scheme(info)
        fragment = info.fragment(fragment_id)
        source = self._live_copies(info, fragment, "split from")[0]
        new_id = max(f.fragment_id for f in info.fragments) + 1
        new_scheme = scheme.split(fragment_id, new_id)

        # Place the new fragment's copies off the parent's elements.
        parent_nodes = {node for node, _name in fragment.all_copies()}
        if target_node is None:
            target_node = gdh.allocator.migration_target(parent_nodes)
        new_fragment = gdh.allocator.spawn_fragment(
            info,
            new_id,
            target_node,
            len(fragment.replicas),
            gdh.gdh_process.ready_at,
            avoid=parent_nodes,
        )
        new_copies = gdh.allocator.copies(new_fragment)

        moved_rows = 0
        try:
            # Phase 1: bulk-copy the moving rows while traffic continues.
            moving = self._moving_rows(source, new_scheme, new_id)
            for dest in new_copies:
                self._sync_rows(info, source, dest, moving)

            def flip() -> None:
                nonlocal moved_rows
                moving_now = self._moving_rows(source, new_scheme, new_id)
                moved_rows = len(moving_now)
                for dest in new_copies:
                    self._sync_rows(info, source, dest, moving_now)
                # Prune the moved rows out of every parent copy.
                for parent in gdh.allocator.copies(fragment):
                    keep = sorted(  # prismalint: disable=PL101 -- charged in Rebalancer._rewrite
                        (rid, row)
                        for rid, row in parent.table.scan()
                        if new_scheme.fragment_of(row) != new_id
                    )
                    self._rewrite(parent, keep)
                info.fragments.append(new_fragment)
                info.scheme = new_scheme

            self._locked_flip(info, [fragment_id, new_id], flip)
        except Exception:
            for node, name in new_fragment.all_copies():
                gdh.allocator.retire(node, name)
            raise
        gdh.refresh_table_stats(info.name)
        self.report.fragments_split += 1
        self.report.rows_moved += moved_rows
        action = ("split", info.name, fragment_id, new_id, target_node)
        self.report.actions.append(action)
        return action

    def merge_fragments(self, table: str, source_id: int, dest_id: int) -> tuple:
        """Fold fragment *source_id* into *dest_id* and retire it.

        Unlike migrate/split there is no invisible pre-copy target — the
        destination's copies already serve traffic — so the whole fold
        runs under the exclusive locks: destination copies are rewritten
        to the union (source rows re-homed above the destination's row
        ids, identically in every copy), the scheme reroutes the
        source's buckets, the source's catalog entry disappears, and its
        OFMs are destroyed.
        """
        gdh = self.gdh
        info = gdh.catalog.table(table)
        scheme = self._rebalanced_scheme(info)
        source_fragment = info.fragment(source_id)
        dest_fragment = info.fragment(dest_id)
        new_scheme = scheme.merge(source_id, dest_id)
        folded = 0

        def flip() -> None:
            nonlocal folded
            source = self._live_copies(info, source_fragment, "merge from")[0]
            dest_copies = self._live_copies(info, dest_fragment, "merge into")
            dest = dest_copies[0]
            incoming = sorted(source.table.scan())
            folded = len(incoming)
            base = max((rid for rid, _row in dest.table.scan()), default=-1) + 1  # prismalint: disable=PL101 -- charged in Rebalancer._rewrite / _sync_rows
            merged = sorted(dest.table.scan()) + [  # prismalint: disable=PL101 -- charged in Rebalancer._rewrite / _sync_rows
                (base + offset, row)
                for offset, (_rid, row) in enumerate(incoming)
            ]
            for copy in dest_copies:
                self._sync_rows(info, source, copy, merged)
            info.fragments.remove(source_fragment)
            info.scheme = new_scheme

        self._locked_flip(info, [source_id, dest_id], flip)
        for node, name in source_fragment.all_copies():
            gdh.allocator.retire(node, name)
        gdh.refresh_table_stats(info.name)
        self.report.fragments_merged += 1
        self.report.rows_moved += folded
        action = ("merge", info.name, source_id, dest_id, folded)
        self.report.actions.append(action)
        return action

    # -- protocol helpers ---------------------------------------------------

    def _rebalanced_scheme(self, info: TableInfo) -> RebalancedFragmentation:
        """The table's scheme as an editable bucket map.

        Plain hash fragmentation converts in place (row-assignment-
        identical, see :meth:`RebalancedFragmentation.from_hash`); other
        schemes have no bucket structure to edit.
        """
        scheme = info.scheme
        if isinstance(scheme, RebalancedFragmentation):
            return scheme
        if isinstance(scheme, HashFragmentation):
            derived = RebalancedFragmentation.from_hash(scheme)
            info.scheme = derived
            return derived
        raise RebalanceError(
            f"cannot rebalance {info.name!r}: scheme {scheme.describe()!r}"
            " is not hash-based"
        )

    def _live_copies(
        self, info: TableInfo, fragment: FragmentInfo, action: str
    ) -> list[OneFragmentManager]:
        """The live copies an action works on; rows are read from the
        first (the primary while it is up, a surviving replica otherwise)."""
        copies = self.gdh.allocator.copies(fragment)
        if not copies:
            raise RebalanceError(
                f"fragment {fragment.fragment_id} of {info.name!r} has no"
                f" live copy to {action}"
            )
        return copies

    def _locked_flip(self, info: TableInfo, fragment_ids, flip) -> None:
        """Run *flip* with the fragments X-locked, then publish.

        The lock acquisition is the drain: any statement holding these
        fragments forces a wait (``WouldBlock``/deadlock semantics
        identical to DML), and once granted no statement can touch the
        fragments until release.  ``placement_changed`` runs inside the
        lock so the epoch bump and the catalog flip are one atomic step
        from every other session's point of view.
        """
        gdh = self.gdh
        process = gdh.gdh_process
        txn = gdh.txns.begin(process.ready_at, autocommit=True)
        hold_started = process.ready_at
        try:
            for fragment_id in sorted(set(fragment_ids)):
                floor = gdh.txns.lock(
                    txn, (info.name, fragment_id), LockMode.EXCLUSIVE
                )
                process.advance_to(floor)
            flip()
            gdh.placement_changed()
            gdh.txns.finish(txn, TxnState.COMMITTED, process.ready_at)
        finally:
            if txn.state is TxnState.ACTIVE:
                # An administrative action that backed out is not a
                # workload abort.
                gdh.txns.withdraw(txn, process.ready_at)
            self.report.lock_hold_s += process.ready_at - hold_started

    def _moving_rows(
        self,
        source: OneFragmentManager,
        scheme: RebalancedFragmentation,
        new_id: int,
    ) -> list[tuple[int, tuple]]:
        return sorted(  # prismalint: disable=PL101 -- the copy these rows feed is charged in _rewrite
            (rid, row)
            for rid, row in source.table.scan()
            if scheme.fragment_of(row) == new_id
        )

    def _sync_rows(
        self,
        info: TableInfo,
        source: OneFragmentManager,
        dest: OneFragmentManager,
        rows: list[tuple[int, tuple]],
    ) -> bool:
        """Make *dest* hold exactly *rows*, shipped from *source*.

        The partial-copy sibling of :func:`sync_copy_from` (which moves
        a whole table): same network/CPU/WAL-checkpoint cost model,
        sized by the rows that actually travel.  No-op when *dest*
        already matches.
        """
        gdh = self.gdh
        if dict(dest.table.scan()) == dict(rows):
            return False
        self._rewrite(dest, rows)
        payload = max(64, len(rows) * info.schema.average_row_bytes())
        if source is not dest:
            gdh.runtime.send(source, dest, payload)  # prismalint: disable=PL004 -- receiver-side copy work charged in _rewrite
        return True

    def _rewrite(
        self, ofm: OneFragmentManager, rows: list[tuple[int, tuple]]
    ) -> None:
        """Replace an OFM's rows wholesale and checkpoint the result."""
        ofm.table.truncate()
        for rid, row in rows:
            ofm.table.insert_with_rid(rid, row)
        ofm.charge(self.gdh.machine.cpu_time(tuples=len(rows)), tuples=len(rows))
        if ofm.wal is not None:
            ofm.charge(ofm.wal.checkpoint(rows))
