"""Tests for One-Fragment Managers: profiles, WAL, undo, recovery."""

import pytest

from repro.errors import InvalidTransactionState
from repro.machine import Machine, MachineConfig
from repro.exec.expressions import Comparison, col, eq, lit
from repro.ofm import (
    CommitRecord,
    InsertRecord,
    OFMProfile,
    OneFragmentManager,
    PrepareRecord,
    WriteAheadLog,
)
from repro.pool import PoolRuntime
from repro.storage import DataType, Schema

SCHEMA = Schema.of(id=DataType.INT, name=DataType.STRING)


@pytest.fixture
def runtime():
    config = MachineConfig(n_nodes=4, disk_nodes=(0,))
    return PoolRuntime(Machine(config))


@pytest.fixture
def ofm(runtime):
    return runtime.spawn(
        OneFragmentManager, name="frag.0", node=1, schema=SCHEMA,
        profile=OFMProfile.FULL,
    )


def always_commit(txn_id: int) -> str:
    return "commit"


def always_abort(txn_id: int) -> str:
    return "abort"


class TestWal:
    def test_records_survive_roundtrip(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.0")
        wal.append(InsertRecord(1, 0, (1, "a")))
        wal.append(PrepareRecord(1))
        wal.append(CommitRecord(1))
        cost = wal.force()
        assert cost > 0
        records, _ = wal.read_records()
        assert records == [
            InsertRecord(1, 0, (1, "a")), PrepareRecord(1), CommitRecord(1),
        ]

    def test_unforced_records_are_volatile(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.1")
        wal.append(InsertRecord(1, 0, (1, "a")))
        records, _ = wal.read_records()
        assert records == []
        # A crash loses the buffer: the next force has nothing to write.
        wal.lose_unforced()
        assert wal.force() == 0.0
        assert wal.read_records()[0] == []

    def test_multiple_chunks_in_order(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.2")
        for i in range(12):
            wal.append(InsertRecord(i, i, (i, "x")))
            wal.force()
        records, _ = wal.read_records()
        assert [record.rid for record in records] == list(range(12))

    def test_checkpoint_truncates(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.3")
        wal.append(InsertRecord(1, 0, (1, "a")))
        wal.force()
        wal.checkpoint([(0, (1, "a"))])
        records, _ = wal.read_records()
        assert records == []
        snapshot, _ = wal.read_snapshot()
        assert snapshot == [(0, (1, "a"))]

    def test_wipe_removes_everything(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.4")
        wal.append(InsertRecord(1, 0, (1, "a")))
        wal.force()
        wal.checkpoint([])
        wal.wipe()
        assert wal.durable_bytes() == 0

    def test_chunk_numbering_resumes_after_restart(self, runtime):
        wal = WriteAheadLog(runtime.machine, 1, "t.5")
        wal.append(InsertRecord(1, 0, (1, "a")))
        wal.force()
        # A new WAL object over the same name continues, not overwrites.
        wal2 = WriteAheadLog(runtime.machine, 1, "t.5")
        wal2.append(InsertRecord(2, 1, (2, "b")))
        wal2.force()
        records, _ = wal2.read_records()
        assert len(records) == 2


class TestTransactionalUpdates:
    def test_insert_visible_and_undoable(self, ofm):
        ofm.txn_insert(1, (1, "a"))
        assert len(ofm.table) == 1
        ofm.abort(1)
        assert len(ofm.table) == 0

    def test_delete_undone_restores_row_and_rid(self, ofm):
        rid = ofm.txn_insert(1, (1, "a"))
        ofm.commit(1)
        ofm.txn_delete_where(2, eq(col(0), lit(1)))
        assert len(ofm.table) == 0
        ofm.abort(2)
        assert ofm.table.get(rid) == (1, "a")

    def test_update_undone(self, ofm):
        ofm.txn_insert(1, (1, "a"))
        ofm.commit(1)
        pairs = ofm.txn_update_where(2, None, lambda row: (row[0], "changed"))
        assert pairs == [((1, "a"), (1, "changed"))]
        ofm.abort(2)
        assert list(ofm.table.rows()) == [(1, "a")]

    def test_abort_order_is_lifo(self, ofm):
        ofm.txn_insert(1, (1, "a"))
        ofm.txn_update_where(1, None, lambda row: (row[0], "b"))
        ofm.txn_delete_where(1, None)
        ofm.abort(1)
        assert len(ofm.table) == 0  # insert was also undone

    def test_commit_clears_undo(self, ofm):
        ofm.txn_insert(1, (1, "a"))
        ofm.commit(1)
        assert not ofm.has_transaction_state(1)
        ofm.abort(1)  # aborting a finished txn is a no-op undo
        assert len(ofm.table) == 1

    def test_prepare_is_idempotent(self, ofm):
        ofm.txn_insert(1, (1, "a"))
        assert ofm.prepare(1)
        assert ofm.prepare(1)
        assert ofm.wal.forces == 1

    def test_charge_advances_clock(self, ofm):
        before = ofm.ready_at
        ofm.txn_insert(1, (1, "a"))
        ofm.prepare(1)  # forces WAL -> disk time
        assert ofm.ready_at > before


class TestQueryProcessing:
    def test_run_subplan_over_fragment(self, ofm):
        ofm.bulk_load([(i, f"n{i}") for i in range(10)])
        from repro.algebra.plan import ScanNode, SelectNode

        plan = SelectNode(
            ScanNode("whatever", SCHEMA), Comparison(">", col(0), lit(6))
        )
        rows = ofm.run_subplan(plan)
        assert sorted(rows) == [(7, "n7"), (8, "n8"), (9, "n9")]

    def test_run_subplan_with_shipped_input(self, ofm):
        from repro.algebra.plan import ScanNode

        rows = ofm.run_subplan(
            ScanNode("__in", SCHEMA), extra_tables={"__in": [(42, "shipped")]}
        )
        assert rows == [(42, "shipped")]

    def test_create_index_both_methods(self, ofm):
        ofm.bulk_load([(i, "x") for i in range(4)])
        ofm.create_index("h", ["id"], unique=True, method="hash")
        ofm.create_index("o", ["name"], unique=False, method="btree")
        assert set(ofm.table.indexes) == {"h", "o"}


class TestCrashRecovery:
    def test_committed_work_survives(self, ofm):
        ofm.bulk_load([(1, "base")])
        ofm.txn_insert(5, (2, "committed"))
        ofm.prepare(5)
        ofm.commit(5)
        ofm.crash()
        assert len(ofm.table) == 0
        rows, cost = ofm.recover(always_commit)
        assert rows == 2
        assert cost > 0
        assert sorted(ofm.table.rows()) == [(1, "base"), (2, "committed")]

    def test_unprepared_transaction_lost(self, ofm):
        ofm.bulk_load([(1, "base")])
        ofm.txn_insert(5, (2, "dirty"))  # never prepared/forced
        ofm.crash()
        ofm.recover(always_commit)
        assert sorted(ofm.table.rows()) == [(1, "base")]

    def test_in_doubt_resolved_by_coordinator(self, ofm):
        ofm.bulk_load([(1, "base")])
        ofm.txn_insert(5, (2, "maybe"))
        ofm.prepare(5)  # durable but undecided locally
        ofm.crash()
        ofm.recover(always_abort)
        assert sorted(ofm.table.rows()) == [(1, "base")]
        ofm.crash()
        ofm.recover(always_commit)
        assert sorted(ofm.table.rows()) == [(1, "base"), (2, "maybe")]

    def test_updates_and_deletes_replayed(self, ofm):
        ofm.bulk_load([(1, "a"), (2, "b"), (3, "c")])
        ofm.txn_update_where(7, eq(col(0), lit(1)), lambda row: (row[0], "A"))
        ofm.txn_delete_where(7, eq(col(0), lit(3)))
        ofm.prepare(7)
        ofm.commit(7)
        ofm.crash()
        ofm.recover(always_commit)
        assert sorted(ofm.table.rows()) == [(1, "A"), (2, "b")]

    def test_recovery_time_scales_with_log(self, ofm, runtime):
        other = runtime.spawn(
            OneFragmentManager, name="frag.big", node=2, schema=SCHEMA,
            profile=OFMProfile.FULL,
        )
        ofm.bulk_load([(1, "x")])
        other.bulk_load([(1, "x")])
        for i in range(100):
            other.txn_insert(i + 10, (i + 10, "bulk"))
            other.prepare(i + 10)
            other.commit(i + 10)
        ofm.txn_insert(5, (2, "one"))
        ofm.prepare(5)
        ofm.commit(5)
        ofm.crash()
        other.crash()
        _, small_cost = ofm.recover(always_commit)
        _, big_cost = other.recover(always_commit)
        assert big_cost > small_cost

    def test_query_profile_has_no_recovery(self, runtime):
        transient = runtime.spawn(
            OneFragmentManager, name="tmp", node=1, schema=SCHEMA,
            profile=OFMProfile.QUERY,
        )
        assert transient.wal is None
        with pytest.raises(InvalidTransactionState):
            transient.recover(always_commit)

    def test_destroy_releases_memory_and_log(self, runtime, ofm):
        ofm.bulk_load([(1, "a")])
        node = runtime.machine.node(ofm.node_id)
        assert node.memory.used > 0
        ofm.destroy()
        assert node.memory.used == 0
        assert not ofm.alive
