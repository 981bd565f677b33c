"""Tests for fragment replication (Section 2.2: copies of base fragments)."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import AllocationError, CatalogError, RecoveryError, TransactionAborted
from repro.core.catalog import Catalog
from tests.test_stateful_durability import assert_placement_agrees


def make_db(n_nodes=12):
    return PrismaDB(MachineConfig(n_nodes=n_nodes, disk_nodes=(0, 6)))


@pytest.fixture
def db():
    db = make_db()
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(id) INTO 3 WITH 2 REPLICAS"
    )
    db.bulk_load("t", [(i, i % 5) for i in range(60)])
    return db


def copies_of(db, fragment_id, table="t"):
    info = db.catalog.table(table)
    return db.gdh.fragment_copies(info, fragment_id)


class TestPlacement:
    def test_replicas_on_distinct_elements(self, db):
        info = db.catalog.table("t")
        for fragment in info.fragments:
            nodes = [node for node, _ in fragment.all_copies()]
            assert len(set(nodes)) == len(nodes)

    def test_copy_count(self, db):
        info = db.catalog.table("t")
        assert all(len(f.all_copies()) == 2 for f in info.fragments)
        # 3 fragments x 2 copies = 6 OFMs
        assert sum(1 for name in db.gdh.fragment_ofms if name.startswith("t.")) == 6

    def test_too_many_copies_rejected(self):
        db = PrismaDB(MachineConfig(n_nodes=2, disk_nodes=(0,)))
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE x (a INT) WITH 5 REPLICAS")

    def test_catalog_serialization_roundtrip(self, db):
        rebuilt = Catalog.deserialize(db.catalog.serialize())
        fragment = rebuilt.table("t").fragments[0]
        assert fragment.replicas
        assert fragment.all_copies()[0] == (fragment.node_id, fragment.ofm_name)


class TestWriteConsistency:
    def test_all_copies_receive_bulk_load(self, db):
        for fragment_id in range(3):
            copies = copies_of(db, fragment_id)
            rows = [sorted(c.table.rows()) for c in copies]
            assert rows[0] == rows[1]
            assert len(rows[0]) > 0

    def test_insert_update_delete_hit_every_copy(self, db):
        db.execute("INSERT INTO t VALUES (100, 1)")
        db.execute("UPDATE t SET v = 42 WHERE id = 100")
        info = db.catalog.table("t")
        fragment_id = info.scheme.fragment_of((100, 42))
        for copy in copies_of(db, fragment_id):
            assert (100, 42) in list(copy.table.rows())
        db.execute("DELETE FROM t WHERE id = 100")
        for copy in copies_of(db, fragment_id):
            assert all(row[0] != 100 for row in copy.table.rows())

    def test_affected_rows_not_double_counted(self, db):
        assert db.execute("UPDATE t SET v = 9 WHERE v = 1").affected_rows == 12
        assert db.execute("DELETE FROM t WHERE v = 9").affected_rows == 12
        assert db.table_row_count("t") == 48

    def test_rollback_undoes_every_copy(self, db):
        session = db.session()
        session.begin()
        session.execute("UPDATE t SET v = 77 WHERE id = 3")
        session.rollback()
        info = db.catalog.table("t")
        fragment_id = info.scheme.fragment_of((3, 0))
        for copy in copies_of(db, fragment_id):
            row = next(r for r in copy.table.rows() if r[0] == 3)
            assert row[1] == 3 % 5

    def test_fragmentation_key_update_moves_in_all_copies(self, db):
        db.execute("UPDATE t SET id = 200 WHERE id = 1")
        info = db.catalog.table("t")
        new_home = info.scheme.fragment_of((200, 1))
        old_home = info.scheme.fragment_of((1, 1))
        for copy in copies_of(db, new_home):
            assert any(row[0] == 200 for row in copy.table.rows())
        if new_home != old_home:
            for copy in copies_of(db, old_home):
                assert all(row[0] not in (1, 200) for row in copy.table.rows())
        assert db.table_row_count("t") == 60

    def test_queries_count_each_row_once(self, db):
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 60
        assert db.table_row_count("t") == 60


class TestReadBalancingAndRecovery:
    def test_reads_spread_across_copies(self, db):
        # Run many cheap point queries; both copies of fragment 0 should
        # accumulate work.
        db.quiesce()
        for _ in range(6):
            db.query("SELECT v FROM t WHERE id = 0")
        copies = copies_of(db, db.catalog.table("t").scheme.fragment_of((0, 0)))
        busy = [c.stats.busy_time_s if hasattr(c, "stats") else 0 for c in copies]
        scanned = [c.runtime.machine.node(c.node_id).stats.tuples_processed for c in copies]
        assert all(s > 0 for s in scanned)

    def test_crash_recovers_all_copies(self, db):
        db.execute("INSERT INTO t VALUES (300, 7)")
        db.crash()
        report = db.restart()
        assert report.fragments_recovered == 6  # 3 fragments x 2 copies
        assert db.execute("SELECT v FROM t WHERE id = 300").rows == [(7,)]
        info = db.catalog.table("t")
        for fragment in info.fragments:
            copies = copies_of(db, fragment.fragment_id)
            assert sorted(copies[0].table.rows()) == sorted(copies[1].table.rows())

    def test_drop_table_destroys_replicas(self, db):
        db.execute("DROP TABLE t")
        assert not any(name.startswith("t.") for name in db.gdh.fragment_ofms)


class TestOutage:
    """Placement and retirement while an element is down."""

    def test_drop_with_an_element_down_leaves_nothing_to_replay(self, db):
        victim = db.catalog.table("t").fragments[0].node_id
        db.crash_element(victim)
        db.execute("DROP TABLE t")
        # No process was left on the element to wipe its copies' logs
        # and snapshots; they are gone from every disk all the same.
        assert_placement_agrees(db)
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 3 WITH 2 REPLICAS"
        )
        db.execute("INSERT INTO t VALUES (1000, 1)")
        db.restart_element(victim)
        db.crash()
        db.restart()
        assert_placement_agrees(db)
        assert db.query("SELECT id, v FROM t") == [(1000, 1)]

    def test_create_with_an_element_down_places_nothing_on_it(self):
        db = make_db(n_nodes=8)
        db.crash_element(3)
        db.execute(
            "CREATE TABLE u (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 4 WITH 2 REPLICAS"
        )
        info = db.catalog.table("u")
        for fragment in info.fragments:
            nodes = [node for node, _name in fragment.all_copies()]
            assert 3 not in nodes and len(set(nodes)) == 2
        assert_placement_agrees(db)
        # Usable at once: no statement waits for the element.
        db.execute("INSERT INTO u VALUES " + ", ".join(f"({i}, {i})" for i in range(8)))
        assert db.execute("SELECT COUNT(*) FROM u").scalar() == 8
        assert all(len(copies_of(db, f.fragment_id, "u")) == 2 for f in info.fragments)

    def test_too_few_up_elements_for_the_copies(self):
        db = PrismaDB(MachineConfig(n_nodes=3, disk_nodes=(0,)))
        db.crash_element(2)
        with pytest.raises(AllocationError):
            db.execute("CREATE TABLE x (a INT) WITH 3 REPLICAS")
        assert_placement_agrees(db)
        db.execute("CREATE TABLE x (a INT) WITH 2 REPLICAS")
        assert_placement_agrees(db)


# -- an aborted row is on no copy -------------------------------------------


def _replicated(n_fragments):
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
        f" FRAGMENTED BY HASH(k) INTO {n_fragments} WITH 2 REPLICAS"
    )
    db.execute("INSERT INTO t VALUES (10, 10)")
    return db


def _copies_holding(db, key):
    """The (node, copy name) pairs of *key*'s fragment, primary first."""
    info = db.catalog.table("t")
    return info.fragment(info.scheme.fragment_of((key, key))).all_copies()


def _rows(db, name):
    return sorted(db.gdh.fragment_ofms[name].table.rows())


@pytest.mark.parametrize("n_fragments", [1, 2, 4])
def test_restarting_an_up_element_refuses_and_keeps_open_work(n_fragments):
    db = _replicated(n_fragments)
    (node, primary), (_node, replica) = _copies_holding(db, 200)
    before = (_rows(db, primary), _rows(db, replica))
    session = db.session()
    session.begin()
    session.execute("INSERT INTO t VALUES (200, 200)")
    injections = list(db.faults.injections)
    with pytest.raises(RecoveryError, match="up"):
        db.restart_element(node)
    assert db.faults.injections == injections
    session.rollback()
    assert (_rows(db, primary), _rows(db, replica)) == before


@pytest.mark.parametrize("end", ["ROLLBACK", "COMMIT"])
@pytest.mark.parametrize("n_fragments", [1, 2, 4])
def test_catch_up_copies_no_open_transaction_rows(n_fragments, end):
    db = _replicated(n_fragments)
    (_node, primary), (node, replica) = _copies_holding(db, 100)
    before = _rows(db, primary)
    db.crash_element(node)
    session = db.session()
    session.begin()
    session.execute("INSERT INTO t VALUES (100, 100)")
    db.restart_element(node)
    # The writer held state on the copy catch-up read from, so it was
    # decided (abort: nothing was prepared) before the copy was made.
    with pytest.raises(TransactionAborted):
        session.execute(end)
    assert _rows(db, primary) == _rows(db, replica) == before
    db.execute("INSERT INTO t VALUES (100, 100)")
    assert _rows(db, primary) == _rows(db, replica) == sorted(before + [(100, 100)])


def test_restarting_a_live_copy_refuses_and_keeps_open_work():
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t VALUES (10, 10)")
    ((_node, copy),) = db.catalog.table("t").fragment(0).all_copies()
    session = db.session()
    session.begin()
    session.execute("INSERT INTO t VALUES (300, 300)")
    with pytest.raises(RecoveryError, match="live"):
        db.recovery.restart_fragments([copy])
    session.commit()
    assert _rows(db, copy) == [(10, 10), (300, 300)]
