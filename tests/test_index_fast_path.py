"""Tests for index-accelerated selection inside the OFM (Section 2.5's
'various storage structures' actually earning their keep)."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import StorageError
from repro.exec.expressions import Comparison, and_, col, eq, lit
from repro.machine import Machine
from repro.ofm import OFMProfile, OneFragmentManager
from repro.pool import PoolRuntime
from repro.storage import DataType, Schema

SCHEMA = Schema.of(id=DataType.INT, grp=DataType.INT, name=DataType.STRING)


@pytest.fixture
def ofm():
    runtime = PoolRuntime(Machine(MachineConfig(n_nodes=2, disk_nodes=(0,))))
    ofm = runtime.spawn(
        OneFragmentManager, node=1, schema=SCHEMA, profile=OFMProfile.QUERY
    )
    ofm.bulk_load([(i, i % 10, f"n{i}") for i in range(500)])
    return ofm


class TestFilteredScan:
    def test_hash_index_point_lookup(self, ofm):
        ofm.create_index("byid", ["id"], unique=True, method="hash")
        rows, used_index = ofm.filtered_scan(eq(col(0), lit(42)))
        assert used_index
        assert rows == [(42, 2, "n42")]

    def test_no_index_falls_back_to_scan(self, ofm):
        rows, used_index = ofm.filtered_scan(eq(col(0), lit(42)))
        assert not used_index
        assert rows == [(42, 2, "n42")]

    def test_ordered_index_range(self, ofm):
        ofm.create_index("byid", ["id"], unique=False, method="btree")
        for op, expected in (
            ("<", list(range(5))),
            ("<=", list(range(6))),
            (">", list(range(495, 500))),
            (">=", list(range(494, 500))),
        ):
            bound = 5 if op.startswith("<") else 494
            rows, used_index = ofm.filtered_scan(Comparison(op, col(0), lit(bound)))
            assert used_index, op
            assert sorted(r[0] for r in rows) == expected, op

    def test_hash_index_cannot_serve_range(self, ofm):
        ofm.create_index("byid", ["id"], unique=True, method="hash")
        rows, used_index = ofm.filtered_scan(Comparison("<", col(0), lit(5)))
        assert not used_index
        assert len(rows) == 5

    def test_residual_conjuncts_applied(self, ofm):
        ofm.create_index("bygrp", ["grp"], unique=False, method="hash")
        predicate = and_(eq(col(1), lit(3)), Comparison(">", col(0), lit(400)))
        rows, used_index = ofm.filtered_scan(predicate)
        assert used_index
        assert all(row[1] == 3 and row[0] > 400 for row in rows)
        assert len(rows) == 10  # 403, 413, ..., 493

    def test_index_scan_cheaper_than_full_scan(self, ofm):
        ofm.create_index("byid", ["id"], unique=True, method="hash")
        before = ofm.ready_at
        ofm.filtered_scan(eq(col(0), lit(1)))
        indexed_cost = ofm.ready_at - before
        before = ofm.ready_at
        ofm.filtered_scan(eq(col(2), lit("n1")))  # no index on name
        scan_cost = ofm.ready_at - before
        assert indexed_cost < scan_cost / 10

    def test_null_literal_not_indexed(self, ofm):
        ofm.create_index("byid", ["id"], unique=True, method="hash")
        rows, used_index = ofm.filtered_scan(eq(col(0), lit(None)))
        assert not used_index
        assert rows == []


class TestThroughTheEngine:
    @pytest.fixture
    def db(self):
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(v) INTO 4"
        )
        db.bulk_load("t", [(i, i % 20) for i in range(2000)])
        db.quiesce()
        return db

    def test_pk_index_used_automatically(self, db):
        result = db.execute("SELECT v FROM t WHERE id = 77")
        assert result.rows == [(77 % 20,)]
        assert result.report.index_scans > 0

    def test_secondary_btree_serves_ranges(self, db):
        db.execute("CREATE INDEX o ON t (id) USING BTREE")
        result = db.execute("SELECT COUNT(*) FROM t WHERE id < 50")
        assert result.scalar() == 50
        assert result.report.index_scans == 4

    def test_index_combines_with_fragment_pruning(self, db):
        db.execute("CREATE INDEX o ON t (id) USING BTREE")
        # ids 1990..1999 have v = 10..19, so v = 0 matches nothing, but
        # the point predicate on v still prunes to a single fragment.
        result = db.execute("SELECT COUNT(*) FROM t WHERE id >= 1990 AND v = 0")
        assert result.scalar() == 0
        assert result.report.fragments_pruned == 3

    def test_answers_identical_with_and_without_index(self, db):
        no_index = db.query("SELECT id FROM t WHERE v = 7 ORDER BY id")
        db.execute("CREATE INDEX byv ON t (v)")
        with_index = db.query("SELECT id FROM t WHERE v = 7 ORDER BY id")
        assert no_index == with_index

    def test_indexed_point_query_faster(self, db):
        slow = db.execute("SELECT COUNT(*) FROM t WHERE id + 0 = 5")  # defeats index
        fast = db.execute("SELECT COUNT(*) FROM t WHERE id = 5")
        assert fast.response_time < slow.response_time


class TestRefusedWrites:
    """A refused write leaves no index entry, and CREATE INDEX is
    all-or-nothing across a table's fragment copies (DESIGN §8)."""

    @pytest.fixture
    def db(self):
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        return db

    def test_refused_insert_leaves_no_primary_key_entry(self, db):
        db.execute("CREATE UNIQUE INDEX u ON t (v)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        with pytest.raises(StorageError):
            db.execute("INSERT INTO t VALUES (2, 10)")
        db.execute("INSERT INTO t VALUES (3, 30)")
        assert db.query("SELECT * FROM t WHERE id = 2") == []
        db.execute("INSERT INTO t VALUES (2, 20)")
        assert db.query("SELECT * FROM t WHERE id = 2") == [(2, 20)]
        assert db.query("SELECT * FROM t WHERE id = 3") == [(3, 30)]

    def test_btree_index_leaves_null_keys_out(self, db):
        db.execute("CREATE INDEX o ON t (v) USING BTREE")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("INSERT INTO t VALUES (2, NULL)")
        db.execute("INSERT INTO t VALUES (3, 30)")
        assert db.query("SELECT * FROM t WHERE id = 2") == [(2, None)]
        assert db.query("SELECT * FROM t WHERE id = 3") == [(3, 30)]
        assert db.query("SELECT id FROM t WHERE v < 100 ORDER BY id") == [(1,), (3,)]
        assert db.query("SELECT id FROM t WHERE v >= 0 ORDER BY id") == [(1,), (3,)]
        db.execute("UPDATE t SET v = NULL WHERE id = 1")
        db.execute("UPDATE t SET v = 20 WHERE id = 2")
        assert db.query("SELECT id FROM t WHERE v > 0 ORDER BY id") == [(2,), (3,)]
        db.execute("DELETE FROM t WHERE v IS NULL")
        assert db.query("SELECT id FROM t ORDER BY id") == [(2,), (3,)]

    def test_create_index_is_all_or_nothing_across_fragments(self):
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 4"
        )
        for i in range(16):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        # Two rows of the last fragment share v, so every copy before it
        # builds a unique index on v and that one refuses it.
        last = db.gdh.fragment_ofms["t.3"]
        a, b = sorted(row[0] for row in last.table.rows())[:2]
        db.execute(f"UPDATE t SET v = {a} WHERE id = {b}")
        with pytest.raises(StorageError):
            db.execute("CREATE UNIQUE INDEX u ON t (v)")
        assert not any("u" in ofm.table.indexes for ofm in db.gdh.fragment_ofms.values())
        db.execute(f"DELETE FROM t WHERE id = {b}")
        db.execute("CREATE UNIQUE INDEX u ON t (v)")
        assert all("u" in ofm.table.indexes for ofm in db.gdh.fragment_ofms.values())
        assert db.query(f"SELECT id FROM t WHERE v = {a}") == [(a,)]
