"""Stateful property test: the database equals a dict, always.

A hypothesis rule-based state machine drives a PrismaDB with random
inserts/updates/deletes — some autocommitted, some inside explicit
transactions that may roll back — interleaved with checkpoints,
crash/restart cycles and an element outage during which the table is
dropped and created again.  An in-memory dict tracks what *committed*;
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
from repro.errors import StorageError

KEYS = st.integers(min_value=0, max_value=19)
VALUES = st.integers(min_value=-100, max_value=100)

CREATE_T = "CREATE TABLE t (k INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(k) INTO 3"


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
        if self.pending is not None:
            self.session.commit()
            self.committed = self.pending
            self.pending = None
        self.db.checkpoint()

    @rule()
    def crash_and_restart(self):
        # Whatever was in flight dies with the machine.
        self.db.crash()
        self.db.restart()
        self.pending = None
        self.session = self.db.session()

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
