"""Tests for the serving layer (ISSUE 8): DBAPI surface, plan cache,
admission control, and the session-lifecycle bugfixes that ride along
(post-crash commit/rollback, quiesce over all sessions, execute_script
routed through the one statement entry point)."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import (
    BindError,
    InterfaceError,
    ParseError,
    TransactionAborted,
    TransactionError,
)
from repro.core.workload import (
    ConcurrentSessionDriver,
    ServingWorkloadSpec,
    ZipfSampler,
)
from repro.serve import (
    AdmissionQueue,
    PlanCache,
    bind_parameters,
    install_serving,
    statement_key,
)
from repro.sql import parse_statement


def small_db():
    return PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))


def loaded_db(n_rows: int = 64):
    db = small_db()
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(id) INTO 4"
    )
    db.bulk_load("kv", [(i, i * 10) for i in range(n_rows)])
    return db


# ---------------------------------------------------------------------------
# Parameter binding.
# ---------------------------------------------------------------------------


class TestParams:
    def test_every_scalar_type_binds(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("INSERT INTO kv VALUES (?, ?)", (900, None))
        assert conn.execute(
            "SELECT id FROM kv WHERE v IS NULL"
        ).fetchall() == [(900,)]
        assert conn.execute(
            "SELECT COUNT(*) FROM kv WHERE v = ?", (100,)
        ).fetchone() == (1,)
        assert conn.execute(
            "SELECT COUNT(*) FROM kv WHERE v > ?", (0.5,)
        ).fetchone() == (63,)

    def test_string_param_is_injection_proof(self):
        db = small_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        conn = db.connect()
        hostile = "x'; DROP TABLE t; --"
        conn.execute("INSERT INTO t VALUES (?, ?)", (1, hostile))
        assert conn.execute(
            "SELECT name FROM t WHERE id = ?", (1,)
        ).fetchone() == (hostile,)

    def test_param_count_mismatch_raises(self):
        statement = parse_statement("SELECT v FROM kv WHERE id = ?")
        with pytest.raises(ParseError, match="placeholder"):
            bind_parameters(statement, ())
        with pytest.raises(ParseError, match="placeholder"):
            bind_parameters(statement, (1, 2))
        with pytest.raises(ParseError, match="cannot bind"):
            bind_parameters(statement, ([1],))
        assert bind_parameters(statement, [7]) == (7,)

    def test_unbound_placeholder_outside_a_cursor_raises(self):
        db = loaded_db()
        with pytest.raises(ParseError, match="placeholder"):
            db.execute("SELECT v FROM kv WHERE id = ?")
        with pytest.raises(ParseError, match="placeholder"):
            db.execute_script("DELETE FROM kv WHERE id = ?")

    def test_statement_key_is_text_and_types_not_values(self):
        sql = "SELECT v FROM kv WHERE id = ?"
        assert statement_key(sql, (1,)) == statement_key(sql, (2,))
        assert statement_key(sql, (1,)) != statement_key(sql, (1.0,))
        assert statement_key(sql, (1,)) != statement_key(sql, (True,))
        assert statement_key(sql, (None,)) != statement_key(sql, ("x",))
        assert statement_key(sql, (1,)) != statement_key(sql + " ", (1,))
        # A by-value placeholder (LIMIT ?) joins the key with its value.
        limited = parse_statement("SELECT v FROM kv WHERE id > ? LIMIT ?")
        assert limited.by_value == (1,)
        sql = "SELECT v FROM kv WHERE id > ? LIMIT ?"
        assert statement_key(sql, (1, 5), limited.by_value) == statement_key(
            sql, (9, 5), limited.by_value
        )
        assert statement_key(sql, (1, 5), limited.by_value) != statement_key(
            sql, (1, 6), limited.by_value
        )

    @pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1)])
    def test_int_and_float_parameters_do_not_share_a_plan(self, first, second):
        # Regression: the old literal-token key compared values with ==,
        # so 1 and 1.0 hit the same entry and the second execution came
        # back with the first one's column type.
        db = loaded_db()
        cursor = db.connect().cursor()
        sql = "SELECT v + ? FROM kv WHERE id = 1"
        for value in (first, second):
            (result,) = cursor.execute(sql, (value,)).fetchone()
            assert result == 11 and type(result) is type(value)

    def test_parameter_types_key_the_plan(self):
        db = small_db()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, ok BOOL)")
        cursor = db.connect().cursor()
        cursor.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(1, "a", True), (2, None, False), (3, "c", None)],
        )
        # Same template; None, bool and str each get their own entry —
        # and bool stays distinct from int.
        cache = db.gdh.plan_cache
        entries = len(cache)
        select = "SELECT id FROM t WHERE name = ? ORDER BY id"
        assert cursor.execute(select, ("a",)).fetchall() == [(1,)]
        assert cursor.execute(select, (None,)).fetchall() == []
        assert len(cache) == entries + 2
        select = "SELECT id FROM t WHERE ok = ? ORDER BY id"
        assert cursor.execute(select, (True,)).fetchall() == [(1,)]
        assert cursor.execute(select, (False,)).fetchall() == [(2,)]
        assert len(cache) == entries + 3
        select = "SELECT id FROM t WHERE id = ? ORDER BY id"
        assert cursor.execute(select, (1,)).fetchall() == [(1,)]
        hits = cache.hits
        cursor.execute(select, (True,))
        assert cache.hits == hits and len(cache) == entries + 5


# ---------------------------------------------------------------------------
# DBAPI surface.
# ---------------------------------------------------------------------------


class TestCursor:
    def test_fetch_interface(self):
        db = loaded_db(8)
        cursor = db.connect().cursor()
        cursor.execute("SELECT id, v FROM kv ORDER BY id")
        assert [column[0] for column in cursor.description] == ["id", "v"]
        assert cursor.rowcount == 8
        assert cursor.fetchone() == (0, 0)
        assert cursor.fetchmany(3) == [(1, 10), (2, 20), (3, 30)]
        rest = cursor.fetchall()
        assert len(rest) == 4
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []

    def test_iteration_and_arraysize(self):
        db = loaded_db(5)
        cursor = db.connect().cursor()
        cursor.execute("SELECT id FROM kv ORDER BY id")
        assert list(cursor) == [(0,), (1,), (2,), (3,), (4,)]
        cursor.execute("SELECT id FROM kv ORDER BY id")
        assert cursor.fetchmany() == [(0,)]  # arraysize defaults to 1

    def test_dml_rowcount_and_executemany(self):
        db = loaded_db()
        cursor = db.connect().cursor()
        cursor.execute("INSERT INTO kv VALUES (?, ?)", (200, 1))
        assert cursor.rowcount == 1
        assert cursor.description is None
        cursor.executemany(
            "INSERT INTO kv VALUES (?, ?)", [(201, 1), (202, 2), (203, 3)]
        )
        assert cursor.rowcount == 3
        assert db.query("SELECT COUNT(*) FROM kv WHERE id >= 200") == [(4,)]

    def test_insert_cells_over_parameters_compile_once(self, monkeypatch):
        from repro.core import dispatch

        db = small_db()
        db.execute("CREATE TABLE t (a INT, b INT)")
        cursor = db.connect().cursor()
        compile_scalar, compiled = dispatch.compile_scalar, []

        def counting(expr):
            compiled.append(expr)
            return compile_scalar(expr)

        monkeypatch.setattr(dispatch, "compile_scalar", counting)
        sql = "INSERT INTO t VALUES (? + 1, -?)"
        cursor.execute(sql, (1, 2))
        assert len(compiled) == 2  # one routine per cell, at prepare time
        hits = db.gdh.plan_cache.hits
        compilations = db.observe().stats()["expressions"]["compilations"]
        cursor.executemany(sql, [(5, 6), (7, 8)])
        assert cursor.rowcount == 2
        assert len(compiled) == 2
        assert db.gdh.plan_cache.hits == hits + 2
        assert db.observe().stats()["expressions"]["compilations"] == compilations
        # A None parameter is another template type: NULL propagates.
        cursor.executemany(sql, [(None, 3), (9, None)])
        assert sorted(db.query("SELECT a, b FROM t"), key=repr) == sorted(
            [(2, -2), (6, -6), (8, -8), (None, -3), (10, None)], key=repr
        )
        with pytest.raises(BindError, match="division by zero"):
            cursor.execute("INSERT INTO t VALUES (1 / ?, 0)", (0,))
        assert not db.gdh.txns.active
        assert db.table_row_count("t") == 5

    def test_insert_cells_with_in_list_and_like_parameters(self):
        db = small_db()
        db.execute("CREATE TABLE t (a INT, b BOOL)")
        cursor = db.connect().cursor()
        sql = "INSERT INTO t VALUES (?, 1 IN (?, 2)), (?, 'ab' LIKE ?)"
        cursor.executemany(sql, [(1, 1, 2, "a%"), (3, 5, 4, "b%")])
        assert sorted(db.query("SELECT a, b FROM t")) == [
            (1, True), (2, True), (3, False), (4, False)
        ]

    def test_closed_surfaces_raise(self):
        db = loaded_db()
        conn = db.connect()
        cursor = conn.cursor()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.execute("SELECT 1 FROM kv")
        conn.close()
        with pytest.raises(InterfaceError):
            conn.cursor()
        conn.close()  # idempotent

    def test_multi_statement_text_rejected(self):
        db = loaded_db()
        with pytest.raises(ParseError):
            db.connect().execute("SELECT v FROM kv; SELECT id FROM kv")


class TestConnection:
    def test_autocommit_default(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("INSERT INTO kv VALUES (?, ?)", (300, 0))
        assert not conn.in_transaction
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 300") == [(1,)]

    def test_manual_mode_rolls_back(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (400, 0))
        assert conn.in_transaction
        conn.rollback()
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 400") == [(0,)]
        conn.execute("INSERT INTO kv VALUES (?, ?)", (401, 0))
        conn.commit()
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 401") == [(1,)]

    def test_close_aborts_open_transaction(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (500, 0))
        session_id = conn.session.session_id
        conn.close()
        assert session_id not in db.gdh.sessions
        assert db.query("SELECT COUNT(*) FROM kv WHERE id = 500") == [(0,)]

    def test_prepared_statement_reuse(self):
        db = loaded_db()
        conn = db.connect()
        prepared = conn.prepare("SELECT v FROM kv WHERE id = ?")
        assert prepared.execute((3,)).fetchone() == (30,)
        assert prepared.execute((4,)).fetchone() == (40,)
        assert prepared.execute((3,)).fetchone() == (30,)
        # One template, one entry: every execute after the first hits,
        # whatever the key.
        stats = db.gdh.plan_cache.stats()
        assert (stats["lookups"], stats["hits"], stats["entries"]) == (3, 2, 1)
        with pytest.raises(ParseError):
            conn.prepare("SELECT v FROM kv WHERE")  # parsed at prepare


# ---------------------------------------------------------------------------
# Plan cache.
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_repeat_statement_hits(self):
        db = loaded_db()
        conn = db.connect()
        for _ in range(5):
            conn.execute("SELECT v FROM kv WHERE id = ?", (7,))
        stats = db.gdh.plan_cache.stats()
        assert stats["lookups"] == 5
        assert stats["hits"] == 4
        assert stats["hit_rate"] == pytest.approx(0.8)

    def test_one_entry_serves_every_value_of_a_template(self):
        db = loaded_db()
        cursor = db.connect().cursor()
        for key in range(20):
            cursor.execute("UPDATE kv SET v = v + ? WHERE id = ?", (1, key))
            cursor.execute("SELECT v FROM kv WHERE id = ?", (key,))
            assert cursor.fetchone() == (key * 10 + 1,)
        stats = db.gdh.plan_cache.stats()
        assert (stats["lookups"], stats["hits"], stats["entries"]) == (40, 38, 2)
        assert stats["evictions"] == 0
        assert len(db.gdh.parse_memo) >= 2

    def test_hit_charges_less_than_miss(self):
        db = loaded_db()
        conn = db.connect()
        session = conn.session
        before = session.clock
        conn.execute("SELECT v FROM kv WHERE id = ?", (7,))
        miss_cost = session.clock - before
        before = session.clock
        conn.execute("SELECT v FROM kv WHERE id = ?", (8,))
        hit_cost = session.clock - before
        assert hit_cost < miss_cost

    @pytest.mark.parametrize(
        "sql, params, other",
        [
            ("SELECT v FROM kv WHERE id = ?", (7,), (8,)),
            ("UPDATE kv SET v = v + ? WHERE id = ?", (1, 7), (2, 8)),
            ("DELETE FROM kv WHERE id = ?", (7,), (8,)),
            ("INSERT INTO kv VALUES (?, ?)", (900, 0), (901, 1)),
        ],
    )
    def test_hit_charges_one_lookup_whatever_the_kind(self, sql, params, other):
        from repro.core.gdh import (
            OPTIMIZE_COST_PER_NODE_S,
            PARSE_COST_PER_TOKEN_S,
            PLAN_CACHE_HIT_COST_S,
        )

        db = loaded_db()
        gdh = db.gdh
        charged = []
        charge_frontend = gdh._charge_frontend

        def spy(process, tokens, plan_nodes, cached=False):
            before = process.ready_at
            charge_frontend(process, tokens, plan_nodes, cached)
            charged.append((cached, process.ready_at - before))

        gdh._charge_frontend = spy
        cursor = db.connect().cursor()
        cursor.execute(sql, params)
        cursor.execute(sql, other)
        (miss_cached, miss), (hit_cached, hit) = charged
        assert (miss_cached, hit_cached) == (False, True)
        assert hit == pytest.approx(PLAN_CACHE_HIT_COST_S)
        tokens = gdh.parse(sql).n_tokens
        nodes = 3 if sql.startswith("SELECT") else 0
        assert miss == pytest.approx(
            tokens * PARSE_COST_PER_TOKEN_S + nodes * OPTIMIZE_COST_PER_NODE_S
        )

    def test_ddl_invalidates(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        assert len(db.gdh.plan_cache) > 0
        conn.execute("DROP TABLE kv")
        assert len(db.gdh.plan_cache) == 0
        assert db.gdh.plan_cache.invalidations >= 1
        # The same template against a *new* table (other column order,
        # other fragmentation) must re-prepare against the new catalog,
        # not replay the dropped table's plan.
        conn.execute(
            "CREATE TABLE kv (v INT, id INT PRIMARY KEY)"
            " FRAGMENTED BY HASH(id) INTO 2"
        )
        conn.execute("INSERT INTO kv VALUES (?, ?)", (111, 1))
        assert conn.execute(
            "SELECT v FROM kv WHERE id = ?", (1,)
        ).fetchone() == (111,)

    def test_stale_prepared_statement_is_refused(self):
        db = loaded_db()
        gdh = db.gdh
        prepared = gdh.prepare(gdh.parse("SELECT v FROM kv WHERE id = ?"), (1,))
        state = db._default_session._state
        assert gdh.execute_statement(prepared, state, (1,)).rows == [(10,)]
        db.execute("CREATE INDEX kv_v ON kv (v)")
        with pytest.raises(TransactionError, match="stale"):
            gdh.execute_statement(prepared, state, (1,))

    def test_create_index_invalidates(self):
        db = loaded_db()
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        epoch = db.gdh.ddl_epoch
        conn.execute("CREATE INDEX kv_v ON kv (v)")
        assert db.gdh.ddl_epoch == epoch + 1
        assert len(db.gdh.plan_cache) == 0

    def test_capacity_bound_evicts_fifo(self):
        # Keys are opaque to the cache (in service: template keys).
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert cache.evictions == 1
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == 2
        assert cache.get(("c",)) == 3

    def test_caches_stay_bounded_under_distinct_literal_statements(self):
        # 10 000 ad-hoc statements, each its own text: neither the plan
        # cache nor the parse memo may outgrow the shared bound.
        from repro.core.gdh import STATEMENT_CACHE_CAPACITY
        from repro.serve.plancache import DEFAULT_CAPACITY

        assert DEFAULT_CAPACITY == STATEMENT_CACHE_CAPACITY == 256
        db = loaded_db()
        cursor = db.connect().cursor()
        cache, memo = db.gdh.plan_cache, db.gdh.parse_memo
        for i in range(10_000):
            cursor.execute(f"SELECT {i}")
            assert len(cache) <= DEFAULT_CAPACITY
            assert len(memo) <= STATEMENT_CACHE_CAPACITY
        assert cursor.fetchone() == (9_999,)
        assert len(cache) == len(memo) == DEFAULT_CAPACITY
        assert cache.evictions >= 10_000 - DEFAULT_CAPACITY

    def test_snapshot_protocol(self):
        cache = PlanCache()
        cache.put(("a",), 1)
        cache.get(("a",))
        fingerprint = cache.fingerprint()
        assert cache.stats()["hits"] == 1
        cache.get(("b",))
        assert cache.stats()["lookups"] == 2
        assert cache.fingerprint() != fingerprint


# ---------------------------------------------------------------------------
# Admission control.
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_saturation_queues_fifo(self):
        class FakeSession:
            def __init__(self, clock):
                self.clock = clock

        queue = AdmissionQueue(slots=2)
        first = FakeSession(0.0)
        slot_a = queue.admit(first)
        queue.release(slot_a, 10.0)
        second = FakeSession(0.0)
        slot_b = queue.admit(second)
        queue.release(slot_b, 12.0)
        # Both slots busy until 10.0/12.0: the third arrival waits for
        # the earliest release.
        third = FakeSession(1.0)
        queue.admit(third)
        assert third.clock == 10.0
        assert queue.delayed == 1
        assert queue.total_wait_s == pytest.approx(9.0)

    def test_statements_funnel_through_admission(self):
        db = loaded_db()
        install_serving(db, admission_slots=4)
        conn = db.connect()
        conn.execute("SELECT v FROM kv WHERE id = ?", (1,))
        db.execute("SELECT COUNT(*) FROM kv")
        db.execute_script("INSERT INTO kv VALUES (700, 0); DELETE FROM kv WHERE id = 700")
        assert db.gdh.admission.admitted == 4

    def test_observatory_sources_registered(self):
        db = loaded_db()
        install_serving(db, admission_slots=4)
        observatory = db.observe()
        assert "plan_cache" in observatory.sources()
        assert "admission" in observatory.sources()
        assert observatory.source("admission").stats()["slots"] == 4
        install_serving(db, admission_slots=4)  # idempotent

    def test_two_same_seed_runs_fingerprint_identical(self):
        def run(seed):
            db = loaded_db(n_rows=32)
            install_serving(db, admission_slots=4)
            db.quiesce()
            spec = ServingWorkloadSpec(
                n_sessions=12, ops_per_session=4, seed=seed, n_keys=32
            )
            outcome = ConcurrentSessionDriver(db, spec).run()
            return outcome.fingerprint(), db.gdh.admission.fingerprint()

        assert run(5) == run(5)
        assert run(5) != run(6)


# ---------------------------------------------------------------------------
# Session-lifecycle bugfixes.
# ---------------------------------------------------------------------------


class TestCrashLifecycle:
    def test_post_crash_commit_raises_transaction_aborted(self):
        db = loaded_db()
        session = db.session()
        session.begin()
        session.execute("INSERT INTO kv VALUES (600, 0)")
        db.crash()
        with pytest.raises(TransactionAborted):
            session.commit()
        # The stale pointer is gone: a second commit is "no transaction".
        with pytest.raises(TransactionError, match="no transaction"):
            session.commit()

    def test_post_crash_rollback_raises_transaction_aborted(self):
        db = loaded_db()
        session = db.session()
        session.begin()
        session.execute("INSERT INTO kv VALUES (601, 0)")
        db.crash()
        with pytest.raises(TransactionAborted):
            session.rollback()

    def test_post_crash_statement_raises_then_session_recovers(self):
        db = loaded_db()
        db.checkpoint()
        first = db.session()
        second = db.session()
        first.begin()
        first.execute("UPDATE kv SET v = v + 1 WHERE id = 1")
        second.begin()
        second.execute("UPDATE kv SET v = v + 1 WHERE id = 2")
        db.crash()
        db.restart()
        with pytest.raises(TransactionAborted):
            first.execute("SELECT COUNT(*) FROM kv")
        with pytest.raises(TransactionAborted):
            second.commit()
        # Both sessions are clean again: the uncommitted updates are
        # gone and new work proceeds.
        assert first.query("SELECT v FROM kv WHERE id = 1") == [(10,)]
        second.begin()
        second.execute("UPDATE kv SET v = v + 5 WHERE id = 2")
        second.commit()
        assert second.query("SELECT v FROM kv WHERE id = 2") == [(25,)]

    def test_crash_aborts_connection_transaction(self):
        db = loaded_db()
        conn = db.connect(autocommit=False)
        conn.execute("INSERT INTO kv VALUES (?, ?)", (602, 0))
        db.crash()
        db.restart()
        with pytest.raises(TransactionAborted):
            conn.commit()
        assert not conn.in_transaction


class TestQuiesce:
    def test_quiesce_advances_every_open_session(self):
        db = loaded_db()
        lagging = db.session()
        db.execute("SELECT COUNT(*) FROM kv")  # default session advances
        horizon = db.quiesce()
        assert lagging.clock == horizon
        assert db.session().clock >= horizon  # new sessions start current

    def test_closed_sessions_are_forgotten(self):
        db = loaded_db()
        session = db.session()
        session_id = session.session_id
        assert session_id in db.gdh.sessions
        session.close()
        assert session_id not in db.gdh.sessions


class TestExecuteScriptRouting:
    def test_script_statements_are_accounted(self):
        db = loaded_db()
        state = db._default_session._state
        before = state.statements
        db.execute_script(
            "INSERT INTO kv VALUES (800, 0);"
            " UPDATE kv SET v = 1 WHERE id = 800;"
            " SELECT v FROM kv WHERE id = 800"
        )
        assert state.statements == before + 3


# ---------------------------------------------------------------------------
# Workload pieces.
# ---------------------------------------------------------------------------


class TestServingWorkload:
    def test_zipf_sampler_is_skewed_and_deterministic(self):
        import random

        sampler = ZipfSampler(100, 1.3)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(2000)]
        assert draws == [
            sampler.sample(random.Random(1)) for _ in range(1)
        ] + draws[1:]  # same seed, same first draw
        assert all(0 <= draw < 100 for draw in draws)
        hot = sum(1 for draw in draws if draw < 10)
        assert hot > len(draws) * 0.5  # top-10 ranks dominate

    def test_driver_report_percentiles(self):
        from repro.core.workload import ServingReport

        outcome = ServingReport()
        for latency in (0.1, 0.2, 0.3, 0.4):
            outcome.record("read", latency)
        assert outcome.percentile("read", 50.0) == 0.2
        assert outcome.percentile("read", 99.0) == 0.4
        assert outcome.percentile("missing", 50.0) == 0.0

    def test_driver_runs_all_operations(self):
        db = loaded_db(n_rows=32)
        install_serving(db)
        db.quiesce()
        spec = ServingWorkloadSpec(
            n_sessions=6, ops_per_session=3, seed=11, n_keys=32
        )
        outcome = ConcurrentSessionDriver(db, spec).run()
        assert outcome.operations == 18
        assert outcome.statements == 18
        assert outcome.finished_at > outcome.started_at
        assert outcome.throughput_ops > 0
        # All driver connections were closed again.
        assert len(db.gdh.sessions) == 1  # just the facade's default
