"""Stateful property test: the database equals a dict, always.

A hypothesis rule-based state machine drives a PrismaDB with random
inserts/updates/deletes — some autocommitted, some inside explicit
transactions that may roll back — interleaved with checkpoints,
crash/restart cycles, commits whose coordinator halts at a named crash
point, an element outage during which the table is dropped and
created again, and the online rebalancer splitting, merging and
migrating the table's fragments.  An in-memory dict tracks what *committed*;
after every step the database must agree with it exactly, and the data
dictionary, the registry of live OFMs and the keys on stable storage
must agree with each other (ROADMAP item 6's catalog ↔ OFM-registry
agreement, asserted continuously), and no transaction other than the
session's open one may be alive, hold a lock or wait for one.

This is the durability/atomicity contract of Sections 2.2 and 3.2
exercised as an invariant rather than as hand-picked scenarios.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import MachineConfig, PrismaDB
from repro.core.faults import ONE_PC_POINTS, TWO_PC_POINTS, CrashPoint
from repro.core.locks import WouldBlock
from repro.errors import InjectedCrash, RebalanceError, StorageError

KEYS = st.integers(min_value=0, max_value=19)
VALUES = st.integers(min_value=-100, max_value=100)

CREATE_T = "CREATE TABLE t (k INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(k) INTO 3"
#: Splits stop at this many fragments, so a run stays small.
MAX_FRAGMENTS = 6

#: The crash points after which the durable records say "commit"
#: (DESIGN.md §9, "What a commit forces"); every other point of the
#: 1PC and 2PC paths rolls the transaction back.
COMMITTED_AFTER = {
    CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_AFTER_PREPARE,
    CrashPoint.TWO_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_MID_PHASE_TWO,
}


def assert_placement_agrees(db: PrismaDB) -> None:
    """Dictionary, registry and stable storage tell one story.

    Every copy the dictionary places on an up element is served by
    exactly one live OFM on that element, and every live OFM of the
    registry is such a copy; every ``wal/<name>/...`` and
    ``snap/<name>`` key on every disk names a placed copy (nothing a
    later copy of that name could replay by mistake).
    """
    placed = {
        name: node
        for info in db.catalog.tables()
        for fragment in info.fragments
        for node, name in fragment.all_copies()
    }
    serving = {
        name: ofm.node_id
        for name, ofm in db.gdh.fragment_ofms.items()
        if ofm.alive
    }
    assert serving == {
        name: node for name, node in placed.items() if db.machine.node_is_up(node)
    }
    for name, ofm in db.gdh.fragment_ofms.items():
        assert not ofm.alive or db.runtime.process(name) is ofm
    for element in db.machine.disk_nodes():
        for key in element.disk.keys("wal/") + element.disk.keys("snap/"):
            assert key.split("/")[1] in placed, (element.node_id, key)


class DurabilityMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0, 2)))
        self.db.execute(CREATE_T)
        #: committed state
        self.committed: dict[int, int] = {}
        #: state as seen inside the open transaction (None = autocommit)
        self.session = self.db.session()
        self.pending: dict[int, int] | None = None

    # -- helpers -------------------------------------------------------------

    def _visible(self) -> dict[int, int]:
        return self.pending if self.pending is not None else self.committed

    def _target(self) -> dict[int, int]:
        """The dict the next statement mutates."""
        if self.pending is not None:
            return self.pending
        return self.committed

    # -- autocommit / in-txn DML ------------------------------------------------

    @rule(k=KEYS, v=VALUES)
    def insert(self, k, v):
        visible = self._visible()
        if k in visible:
            with pytest.raises(StorageError):
                self.session.execute(f"INSERT INTO t VALUES ({k}, {v})")
            # Statement-level failure aborts the enclosing transaction
            # (the engine has no savepoints): pending work is gone.
            self.pending = None
            assert not self.session.in_transaction
            return
        self.session.execute(f"INSERT INTO t VALUES ({k}, {v})")
        self._target()[k] = v

    @rule(k=KEYS, v=VALUES)
    def update(self, k, v):
        result = self.session.execute(f"UPDATE t SET v = {v} WHERE k = {k}")
        target = self._target()
        assert result.affected_rows == (1 if k in target else 0)
        if k in target:
            target[k] = v

    @rule(k=KEYS)
    def delete(self, k):
        result = self.session.execute(f"DELETE FROM t WHERE k = {k}")
        target = self._target()
        assert result.affected_rows == (1 if k in target else 0)
        target.pop(k, None)

    @rule(v=VALUES)
    def update_all(self, v):
        self.session.execute(f"UPDATE t SET v = {v}")
        target = self._target()
        for k in target:
            target[k] = v

    # -- transaction control -------------------------------------------------------

    @precondition(lambda self: self.pending is None)
    @rule()
    def begin(self):
        self.session.begin()
        self.pending = dict(self.committed)

    @precondition(lambda self: self.pending is not None)
    @rule()
    def commit(self):
        self.session.commit()
        assert self.pending is not None
        self.committed = self.pending
        self.pending = None

    @precondition(lambda self: self.pending is not None)
    @rule()
    def rollback(self):
        self.session.rollback()
        self.pending = None

    # -- durability events ------------------------------------------------------------

    @rule()
    def checkpoint(self):
        # An open transaction stays open and its writes stay pending: a
        # checkpoint makes only committed state durable.
        self.db.checkpoint()

    @rule()
    def crash_and_restart(self):
        # Whatever was in flight dies with the machine.
        self.db.crash()
        self.db.restart()
        self.pending = None
        self.session = self.db.session()

    @precondition(lambda self: self.pending is None)
    @rule(
        writes=st.dictionaries(KEYS, VALUES, min_size=1, max_size=4),
        resolution=st.sampled_from(["resolve_in_doubt", "restart", "element"]),
        data=st.data(),
    )
    def commit_through_a_crash_point(self, writes, resolution, data):
        """A transaction writes *writes* and its coordinator halts at a
        crash point of the path it takes (1PC on one fragment, 2PC on
        more); then the halted commit is resolved in place, by a machine
        restart, or by crashing and restarting one participant's element
        (one without a disk, so its vote stays readable; in place when
        every participant's element has a disk)."""
        info = self.db.catalog.table("t")
        fragments = sorted({info.scheme.fragment_of((k, 0)) for k in writes})
        points = ONE_PC_POINTS if len(fragments) == 1 else TWO_PC_POINTS
        point = data.draw(st.sampled_from(points), label="point")
        self.session.begin()
        for k, v in writes.items():
            if k in self.committed:
                self.session.execute(f"UPDATE t SET v = {v} WHERE k = {k}")
            else:
                self.session.execute(f"INSERT INTO t VALUES ({k}, {v})")
        self.db.faults.arm(point)
        with pytest.raises(InjectedCrash):
            self.session.commit()
        disks = {element.node_id for element in self.db.machine.disk_nodes()}
        diskless = [
            info.fragment(f).node_id for f in fragments
            if info.fragment(f).node_id not in disks
        ]
        if resolution == "element" and diskless:
            self.db.crash_element(diskless[0])
            self.db.restart_element(diskless[0])
        elif resolution == "restart":
            self.db.crash()
            self.db.restart()
            self.session = self.db.session()
        else:
            self.db.resolve_in_doubt()
        if point in COMMITTED_AFTER:
            self.committed.update(writes)

    @precondition(lambda self: self.pending is None)
    @rule()
    def outage_drop_and_recreate(self):
        """Element 1 is down while the table is dropped and created
        again: nothing of the old table may come back with the element,
        and the new one must not wait for it."""
        self.db.crash_element(1)
        self.session.execute("DROP TABLE t")
        self.session.execute(CREATE_T)
        self.db.restart_element(1)
        self.committed = {}

    # -- online rebalancing ------------------------------------------------------------

    def _fragment_ids(self) -> list[int]:
        return [f.fragment_id for f in self.db.catalog.table("t").fragments]

    def _placement(self) -> tuple:
        info = self.db.catalog.table("t")
        return info.scheme.to_spec(), [
            (f.fragment_id, f.all_copies()) for f in info.fragments
        ]

    def _rebalance(self, action) -> None:
        """Run one rebalancer action; one it refuses (a fragment down to
        one bucket, an element that already holds the copy) or one an
        open transaction's locks block is a no-op step."""
        before = self._placement()
        try:
            action()
        except RebalanceError:
            assert self._placement() == before
        except WouldBlock:
            assert self.pending is not None
            assert self._placement() == before

    @precondition(lambda self: len(self._fragment_ids()) < MAX_FRAGMENTS)
    @rule(data=st.data())
    def split(self, data):
        fragment_id = data.draw(st.sampled_from(self._fragment_ids()), label="fragment")
        self._rebalance(lambda: self.db.rebalancer.split_fragment("t", fragment_id))

    @precondition(lambda self: len(self._fragment_ids()) > 1)
    @rule(data=st.data())
    def merge(self, data):
        source, dest = data.draw(
            st.permutations(self._fragment_ids()), label="source, dest"
        )[:2]
        self._rebalance(lambda: self.db.rebalancer.merge_fragments("t", source, dest))

    @rule(data=st.data(), node=st.sampled_from([None, 0, 1, 2, 3]))
    def migrate(self, data, node):
        """To *node*, or (None) where the allocator places it."""
        fragment_id = data.draw(st.sampled_from(self._fragment_ids()), label="fragment")
        self._rebalance(lambda: self.db.rebalancer.migrate_fragment("t", fragment_id, node))

    # -- the contract -------------------------------------------------------------------

    @invariant()
    def database_equals_model(self):
        rows = dict(self.session.query("SELECT k, v FROM t"))
        assert rows == self._visible()

    @invariant()
    def placement_agrees(self):
        assert_placement_agrees(self.db)

    @invariant()
    def no_leaked_transactions(self):
        """Between steps only the session's open transaction is alive,
        and only live transactions hold or wait for locks."""
        txns = self.db.gdh.txns
        open_txn = self.session._state.txn
        expected = {open_txn.txn_id} if open_txn is not None else set()
        assert set(txns.active) == expected
        for fragment in self.db.catalog.table("t").fragments:
            holders = txns.locks.holders(("t", fragment.fragment_id))
            assert set(holders) <= expected, (fragment.fragment_id, holders)
        assert txns.locks.waiting_transactions() <= expected


TestDurability = DurabilityMachine.TestCase
TestDurability.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
