"""End-to-end integration tests for PrismaDB: SQL, transactions,
fragmentation transparency, recovery, PRISMAlog."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import (
    BindError,
    CatalogError,
    DeadlockError,
    PrismaError,
    TransactionError,
)
from repro.machine.config import paper_prototype


def small_db(**kwargs) -> PrismaDB:
    config = MachineConfig(n_nodes=8, disk_nodes=(0, 4))
    return PrismaDB(config, **kwargs)


@pytest.fixture
def db():
    return small_db()


@pytest.fixture
def loaded(db):
    db.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, name STRING, dept STRING,"
        " sal FLOAT) FRAGMENTED BY HASH(id) INTO 4"
    )
    db.execute("CREATE TABLE dept (dname STRING PRIMARY KEY, city STRING)")
    db.execute(
        "INSERT INTO emp VALUES (1,'ada','eng',120.0),(2,'bob','eng',95.0),"
        "(3,'cy','sales',80.0),(4,'dee','sales',85.0),(5,'eve','hr',70.0)"
    )
    db.execute(
        "INSERT INTO dept VALUES ('eng','ams'),('sales','rtm'),('hr','utr')"
    )
    return db


class TestDdl:
    def test_create_show_drop(self, db):
        db.execute("CREATE TABLE t (a INT)")
        assert db.execute("SHOW TABLES").rows == [("t",)]
        db.execute("DROP TABLE t")
        assert db.execute("SHOW TABLES").rows == []

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")

    def test_fragments_spread_over_elements(self, db):
        db.execute("CREATE TABLE t (a INT) FRAGMENTED BY ROUNDROBIN INTO 4")
        info = db.catalog.table("t")
        assert len({f.node_id for f in info.fragments}) == 4

    def test_create_index(self, loaded):
        loaded.execute("CREATE INDEX bydept ON emp (dept)")
        info = loaded.catalog.table("emp")
        assert any(i.name == "bydept" for i in info.indexes)
        with pytest.raises(CatalogError):
            loaded.execute("CREATE INDEX bydept ON emp (dept)")

    def test_primary_key_unique_within_fragment_home(self, loaded):
        # id=1 hashes to a fixed fragment; a second id=1 must be rejected.
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            loaded.execute("INSERT INTO emp VALUES (1,'dup','eng',1.0)")

    def test_machine_needs_a_disk(self):
        with pytest.raises(PrismaError):
            PrismaDB(MachineConfig(n_nodes=4))


class TestQueries:
    def test_select_across_fragments(self, loaded):
        rows = loaded.query("SELECT name FROM emp WHERE sal >= 85 ORDER BY name")
        assert rows == [("ada",), ("bob",), ("dee",)]

    def test_join_and_aggregate(self, loaded):
        rows = loaded.query(
            "SELECT d.city, COUNT(*) AS n, AVG(e.sal) FROM emp e"
            " JOIN dept d ON e.dept = d.dname GROUP BY d.city ORDER BY city"
        )
        assert rows == [("ams", 2, 107.5), ("rtm", 2, 82.5), ("utr", 1, 70.0)]

    def test_fragmentation_is_transparent(self):
        """Same data, different fragment counts -> same answers."""
        answers = []
        for fragments in (1, 2, 8):
            db = small_db()
            db.execute(
                "CREATE TABLE n (v INT PRIMARY KEY, grp INT)"
                f" FRAGMENTED BY HASH(v) INTO {fragments}"
            )
            db.bulk_load("n", [(i, i % 5) for i in range(100)])
            answers.append(
                (
                    db.query("SELECT grp, SUM(v) FROM n GROUP BY grp ORDER BY grp"),
                    db.query("SELECT COUNT(*) FROM n WHERE v % 2 = 0"),
                    db.query("SELECT v FROM n ORDER BY v DESC LIMIT 3"),
                )
            )
        assert answers[0] == answers[1] == answers[2]

    def test_range_fragmentation(self, db):
        db.execute(
            "CREATE TABLE r (k INT) FRAGMENTED BY RANGE(k) VALUES (100, 200)"
        )
        db.bulk_load("r", [(i,) for i in range(0, 300, 10)])
        assert db.execute("SELECT COUNT(*) FROM r WHERE k = 150").scalar() == 1
        assert db.execute("SELECT COUNT(*) FROM r").scalar() == 30

    def test_closure_through_sql(self, db):
        db.execute("CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 2")
        db.execute("INSERT INTO edge VALUES (1,2),(2,3),(3,4)")
        rows = db.query("SELECT dst FROM CLOSURE(edge) WHERE src = 1 ORDER BY dst")
        assert rows == [(2,), (3,), (4,)]

    def test_union_across_tables(self, loaded):
        rows = loaded.query(
            "SELECT dept FROM emp UNION SELECT dname FROM dept ORDER BY 1"
        )
        assert rows == [("eng",), ("hr",), ("sales",)]

    def test_report_carries_simulated_time(self, loaded):
        result = loaded.execute("SELECT * FROM emp")
        assert result.report is not None
        assert result.report.response_time > 0
        assert result.report.messages > 0

    def test_explain(self, loaded):
        result = loaded.execute(
            "EXPLAIN SELECT name FROM emp WHERE dept = 'eng'"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "Scan(emp)" in text

    def test_bind_errors_propagate(self, loaded):
        with pytest.raises(BindError):
            loaded.execute("SELECT nothing FROM emp")


class TestDml:
    def test_update_and_delete(self, loaded):
        assert loaded.execute(
            "UPDATE emp SET sal = sal * 2 WHERE dept = 'hr'"
        ).affected_rows == 1
        assert loaded.query("SELECT sal FROM emp WHERE id = 5") == [(140.0,)]
        assert loaded.execute("DELETE FROM emp WHERE sal > 130").affected_rows == 1
        assert loaded.table_row_count("emp") == 4

    def test_update_fragmentation_key_moves_row(self, loaded):
        loaded.execute("UPDATE emp SET id = 100 WHERE id = 1")
        assert loaded.query("SELECT name FROM emp WHERE id = 100") == [("ada",)]
        assert loaded.query("SELECT name FROM emp WHERE id = 1") == []
        assert loaded.table_row_count("emp") == 5
        info = loaded.catalog.table("emp")
        home = info.scheme.fragment_of((100, "ada", "eng", 120.0))
        ofm = loaded.gdh.fragment_ofms[info.fragments[home].ofm_name]
        assert any(row[0] == 100 for row in ofm.table.rows())

    def test_stats_refresh_after_dml(self, loaded):
        loaded.execute("DELETE FROM emp")
        assert loaded.catalog.table("emp").row_count == 0

    def test_explicit_transaction_commit(self, loaded):
        session = loaded.session()
        session.begin()
        session.execute("INSERT INTO dept VALUES ('ops','ein')")
        session.execute("UPDATE emp SET dept = 'ops' WHERE id = 5")
        session.commit()
        assert loaded.query("SELECT dept FROM emp WHERE id = 5") == [("ops",)]

    def test_explicit_transaction_rollback(self, loaded):
        session = loaded.session()
        session.begin()
        session.execute("DELETE FROM emp")
        session.execute("INSERT INTO dept VALUES ('ghost','nowhere')")
        session.rollback()
        assert loaded.table_row_count("emp") == 5
        assert loaded.table_row_count("dept") == 3

    def test_nested_begin_rejected(self, loaded):
        session = loaded.session()
        session.begin()
        with pytest.raises(TransactionError):
            session.begin()

    def test_commit_without_begin_rejected(self, loaded):
        with pytest.raises(TransactionError):
            loaded.session().commit()


class TestConcurrency:
    def test_writers_on_same_fragment_block(self, loaded):
        from repro.core.locks import WouldBlock

        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s1.execute("UPDATE emp SET sal = 1.0 WHERE id = 1")
        s2.begin()
        with pytest.raises(WouldBlock):
            s2.execute("UPDATE emp SET sal = 2.0 WHERE id = 1")
        s1.commit()
        s2.execute("UPDATE emp SET sal = 2.0 WHERE id = 1")
        s2.commit()
        assert loaded.query("SELECT sal FROM emp WHERE id = 1") == [(2.0,)]

    def test_waiter_clock_advances_past_holder_commit(self, loaded):
        from repro.core.locks import WouldBlock

        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s1.execute("UPDATE emp SET sal = 1.0 WHERE id = 1")
        s2.begin()
        with pytest.raises(WouldBlock):
            s2.execute("UPDATE emp SET sal = 2.0 WHERE id = 1")
        s1.commit()
        holder_finish = s1.clock
        s2.execute("UPDATE emp SET sal = 2.0 WHERE id = 1")
        s2.commit()
        assert s2.clock >= holder_finish

    def test_readers_share(self, loaded):
        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s2.begin()
        assert s1.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        assert s2.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        s1.commit()
        s2.commit()

    def test_reader_blocks_writer(self, loaded):
        from repro.core.locks import WouldBlock

        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s1.execute("SELECT COUNT(*) FROM emp")
        s2.begin()
        with pytest.raises(WouldBlock):
            s2.execute("DELETE FROM emp")
        s1.commit()

    def test_deadlock_detected_and_victim_aborted(self, loaded):
        from repro.core.locks import WouldBlock

        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s2.begin()
        s1.execute("UPDATE emp SET sal = 1.0 WHERE id = 1")
        s2.execute("UPDATE emp SET sal = 1.0 WHERE id = 2")
        with pytest.raises(WouldBlock):
            s1.execute("UPDATE emp SET sal = 2.0 WHERE id = 2")
        with pytest.raises(DeadlockError):
            s2.execute("UPDATE emp SET sal = 2.0 WHERE id = 1")
        # The victim's transaction is gone; s1 can proceed after retry.
        assert not s2.in_transaction
        s1.execute("UPDATE emp SET sal = 2.0 WHERE id = 2")
        s1.commit()

    def test_disjoint_fragments_do_not_conflict(self, loaded):
        s1, s2 = loaded.session(), loaded.session()
        s1.begin()
        s2.begin()
        s1.execute("UPDATE emp SET sal = 1.0 WHERE id = 1")
        s2.execute("UPDATE emp SET sal = 1.0 WHERE id = 2")  # other fragment
        s1.commit()
        s2.commit()


class TestRecovery:
    def test_committed_survives_crash(self, loaded):
        loaded.execute("INSERT INTO dept VALUES ('ops','ein')")
        loaded.crash()
        report = loaded.restart()
        assert report.fragments_recovered == 5
        assert loaded.query("SELECT city FROM dept WHERE dname = 'ops'") == [("ein",)]
        assert loaded.table_row_count("emp") == 5

    def test_uncommitted_lost_on_crash(self, loaded):
        session = loaded.session()
        session.begin()
        session.execute("INSERT INTO dept VALUES ('ghost','x')")
        loaded.crash()
        loaded.restart()
        assert loaded.table_row_count("dept") == 3

    def test_queries_work_after_restart(self, loaded):
        loaded.crash()
        loaded.restart()
        rows = loaded.query("SELECT COUNT(*) FROM emp WHERE dept = 'eng'")
        assert rows == [(2,)]

    def test_checkpoint_bounds_recovery_work(self, loaded):
        for i in range(20, 40):
            loaded.execute(f"INSERT INTO emp VALUES ({i},'p{i}','eng',10.0)")
        loaded.crash()
        long_recovery = loaded.restart()
        loaded.checkpoint()
        loaded.crash()
        short_recovery = loaded.restart()
        assert short_recovery.duration_s <= long_recovery.duration_s
        assert loaded.table_row_count("emp") == 25

    @pytest.mark.parametrize("how", ["api", "sql"])
    @pytest.mark.parametrize(
        "layout",
        [
            "",
            " FRAGMENTED BY HASH(a) INTO 2",
            " FRAGMENTED BY HASH(a) INTO 4",
            " FRAGMENTED BY HASH(a) INTO 2 WITH 2 REPLICAS",
        ],
        ids=["1-fragment", "2-fragments", "4-fragments", "2-fragments-2-replicas"],
    )
    def test_checkpoint_leaves_an_open_transaction_undoable(self, db, layout, how):
        db.execute(f"CREATE TABLE t (a INT, b INT){layout}")
        db.execute("INSERT INTO t VALUES (10, 10)")
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (1, 1)")
        if how == "api":
            db.checkpoint()
        else:
            db.execute("CHECKPOINT")
        session.rollback()
        db.crash()
        db.restart()
        assert db.query("SELECT a, b FROM t ORDER BY a") == [(10, 10)]

    def test_checkpoint_keeps_the_log_an_open_commit_replays(self, db):
        db.execute("CREATE TABLE t (a INT, b INT) FRAGMENTED BY HASH(a) INTO 2")
        db.execute("INSERT INTO t VALUES (10, 10)")
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (1, 1)")
        db.checkpoint()
        session.commit()
        db.crash()
        db.restart()
        assert db.query("SELECT a, b FROM t ORDER BY a") == [(1, 1), (10, 10)]
        # With the transaction over, the next checkpoint snapshots again.
        assert db.checkpoint() > 0

    def test_bulk_load_refuses_a_copy_with_an_open_transaction(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (1, 1)")
        with pytest.raises(TransactionError, match="open transaction"):
            db.bulk_load("t", [(2, 2)])
        session.rollback()
        assert db.query("SELECT a, b FROM t") == []

    def test_repeated_crash_restart_stable(self, loaded):
        for _ in range(3):
            loaded.crash()
            loaded.restart()
        assert loaded.table_row_count("emp") == 5

    def test_transaction_across_fragments_is_atomic(self, loaded):
        session = loaded.session()
        session.begin()
        session.execute("UPDATE emp SET sal = 0.0 WHERE id = 1")
        session.execute("UPDATE emp SET sal = 0.0 WHERE id = 2")
        session.commit()
        loaded.crash()
        loaded.restart()
        rows = loaded.query("SELECT sal FROM emp WHERE id IN (1, 2) ORDER BY id")
        assert rows == [(0.0,), (0.0,)]


class TestPrismalogIntegration:
    def test_program_over_sql_tables(self, db):
        db.execute("CREATE TABLE parent (p STRING, c STRING) FRAGMENTED BY HASH(p) INTO 2")
        db.execute(
            "INSERT INTO parent VALUES ('jan','piet'),('piet','kees'),('kees','anna')"
        )
        results = db.execute_prismalog(
            """
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
            ? ancestor(jan, X).
            ? ancestor(X, anna).
            """
        )
        assert [r[0] for r in results[0].rows] == ["anna", "kees", "piet"]
        assert results[0].prismalog_stats["closure_operator_hits"] == ["ancestor"]

    def test_program_facts_combine_with_edb(self, db):
        db.execute("CREATE TABLE lives (person STRING, city STRING)")
        db.execute("INSERT INTO lives VALUES ('ada','ams'),('bob','rtm')")
        (result,) = db.execute_prismalog(
            """
            nice(ams).
            happy(X) :- lives(X, C), nice(C).
            ? happy(X).
            """
        )
        assert result.rows == [("ada",)]
