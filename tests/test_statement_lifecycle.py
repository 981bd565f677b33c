"""Every statement kind leaves the GDH clean, however it ends (ISSUE 17).

One life-cycle serves SELECT, the three DML kinds and PRISMAlog programs
of both recursion shapes, so one matrix checks it: statement kind x
{autocommit, inside BEGIN} x {success, a run-time error from a crashed
element, WouldBlock, DeadlockError}.  Afterwards only the explicit transactions that should
survive are active, no finished transaction holds a lock or a wait-for
edge, no query process is left alive and the session's clock did not
go backwards.
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.core.locks import WouldBlock
from repro.errors import DeadlockError, PrismaError
from repro.serve import install_serving

#: Linear recursion: compiles to the closure operator, runs distributed.
COMPILED = "path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z). ? path(1, X)."
#: Mutual recursion: a recursive component, run as a distributed
#: semi-naive loop (the ``engine`` ids name this general route).
ENGINE = (
    "a(X,Y) :- e(X,Y). a(X,Z) :- b(X,Y), e(Y,Z). b(X,Y) :- a(X,Y). ? a(1, X)."
)

#: kind -> (table it touches, the statement); each reads or writes
#: *every* fragment of its table.  ``r`` is replicated and ``update_key``
#: assigns its fragmentation key, so rows change homes.
KINDS = {
    "select": ("e", lambda s: s.execute("SELECT COUNT(*) FROM e")),
    "insert": (
        "e",
        lambda s: s.execute(
            "INSERT INTO e VALUES " + ", ".join(f"({k}, 0)" for k in range(100, 108))
        ),
    ),
    "update": ("e", lambda s: s.execute("UPDATE e SET dst = dst + 1")),
    "update_key": ("r", lambda s: s.execute("UPDATE r SET k = k + 100")),
    "delete": ("e", lambda s: s.execute("DELETE FROM e")),
    "prismalog_compiled": ("e", lambda s: s.execute_prismalog(COMPILED)),
    "prismalog_engine": ("e", lambda s: s.execute_prismalog(ENGINE)),
}
READS = {"select", "prismalog_compiled", "prismalog_engine"}


def make_db() -> PrismaDB:
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute(
        "CREATE TABLE e (src INT PRIMARY KEY, dst INT) FRAGMENTED BY HASH(src) INTO 4"
    )
    db.bulk_load("e", [(i, i + 1) for i in range(20)])
    db.execute(
        "CREATE TABLE r (k INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(k) INTO 2 WITH 2 REPLICAS"
    )
    db.bulk_load("r", [(i, i) for i in range(20)])
    return db


def key_in_fragment(db: PrismaDB, table: str, fragment_id: int) -> int:
    scheme = db.catalog.table(table).scheme
    return next(k for k in range(20) if scheme.fragment_of((k, 0)) == fragment_id)


def touch(session, table: str, key: int) -> None:
    """X-lock the fragment holding *key* (inside the session's txn)."""
    column, other = ("src", "dst") if table == "e" else ("k", "v")
    session.execute(f"UPDATE {table} SET {other} = {other} WHERE {column} = {key}")


def assert_clean(db: PrismaDB, surviving: list) -> None:
    """The four invariants; *surviving* are the sessions whose explicit
    transactions must still be active (and nothing else may be)."""
    gdh = db.gdh
    assert all(s.in_transaction for s in surviving)
    assert sorted(gdh.txns.active) == sorted(s._state.txn.txn_id for s in surviving)
    locks = gdh.locks
    for txn_id in range(1, gdh.txns._next_txn_id):
        if txn_id in gdh.txns.active:
            continue
        assert locks.locks_of(txn_id) == []
        assert txn_id not in locks._wait_for
        assert all(txn_id not in blockers for blockers in locks._wait_for.values())
        assert all(
            txn_id != waiting
            for state in locks._locks.values()
            for waiting, _mode in state.waiters
        )
    assert [
        p.name for p in db.runtime.live_processes() if p.name.startswith("query-")
    ] == []


@pytest.mark.parametrize("explicit", [False, True], ids=["autocommit", "in_begin"])
@pytest.mark.parametrize("kind", KINDS)
class TestLifecycle:
    def run(self, session, kind, raises=None):
        before = session.clock
        if raises is None:
            KINDS[kind][1](session)
        else:
            with pytest.raises(raises):
                KINDS[kind][1](session)
        assert session.clock >= before

    def test_success(self, kind, explicit):
        db = make_db()
        session = db.session()
        if explicit:
            session.begin()
        self.run(session, kind)
        assert_clean(db, [session] if explicit else [])
        if explicit:
            session.commit()
            assert_clean(db, [])

    def test_crashed_element(self, kind, explicit):
        """The last fragment's every copy is down: a read fails when it
        reaches it, a write after taking effect at the fragments before."""
        db = make_db()
        table = KINDS[kind][0]
        last = db.catalog.table(table).fragments[-1]
        session = db.session()
        if explicit:
            session.begin()
        nodes = [node for node, _name in last.all_copies()]
        for node in nodes:
            db.crash_element(node)
        self.run(session, kind, raises=PrismaError)
        # A failed write takes its transaction with it (no savepoints);
        # a failed read leaves an explicit transaction to carry on.
        survives = explicit and kind in READS
        assert session.in_transaction == survives
        assert_clean(db, [session] if survives else [])
        if survives:
            session.rollback()
        # The one-fault wedge: nothing may still hold the table's locks.
        for node in nodes:
            db.restart_element(node)
        other = "dst" if table == "e" else "v"
        db.execute(f"UPDATE {table} SET {other} = {other}")
        assert_clean(db, [])

    def test_would_block(self, kind, explicit):
        db = make_db()
        table = KINDS[kind][0]
        blocker, session = db.session(), db.session()
        blocker.begin()
        touch(blocker, table, key_in_fragment(db, table, 1))
        if explicit:
            session.begin()
        self.run(session, kind, raises=WouldBlock)
        # A wait is not an abort: the explicit transaction keeps waiting,
        # a statement-scoped one is withdrawn uncounted.
        assert db.gdh.txns.aborted == 0
        assert_clean(db, [blocker, session] if explicit else [blocker])
        blocker.commit()
        self.run(session, kind)
        if explicit:
            session.commit()
        assert_clean(db, [])


@pytest.mark.parametrize("kind", KINDS)
def test_deadlock_victim(kind):
    """Inside BEGIN only: a statement-scoped transaction is new when it
    starts to lock and withdrawn at its first wait, so nothing can ever
    wait *for* it and no cycle can close on it."""
    db = make_db()
    table = KINDS[kind][0]
    blocker, session = db.session(), db.session()
    session.begin()
    blocker.begin()
    touch(session, table, key_in_fragment(db, table, 0))
    touch(blocker, table, key_in_fragment(db, table, 1))
    with pytest.raises(WouldBlock):
        touch(blocker, table, key_in_fragment(db, table, 0))
    before = session.clock
    with pytest.raises(DeadlockError):
        KINDS[kind][1](session)
    assert session.clock >= before
    assert not session.in_transaction
    assert_clean(db, [blocker])
    touch(blocker, table, key_in_fragment(db, table, 0))
    blocker.commit()
    assert_clean(db, [])


def test_general_recursion_reads_a_replica_when_the_primary_is_down():
    db = make_db()
    db.execute(
        "CREATE TABLE e2 (src INT PRIMARY KEY, dst INT)"
        " FRAGMENTED BY HASH(src) INTO 2 WITH 2 REPLICAS"
    )
    db.bulk_load("e2", [(i, i + 1) for i in range(20)])
    program = ENGINE.replace("e(", "e2(")
    expected = db.execute_prismalog(program)[0].rows
    db.crash_element(db.catalog.table("e2").fragments[0].node_id)
    result = db.execute_prismalog(program)[0]
    assert result.prismalog_stats["fixpoint_iterations"]
    assert result.rows == expected
    assert_clean(db, [])


@pytest.mark.parametrize("program", [COMPILED, ENGINE], ids=["compiled", "engine"])
def test_prismalog_is_admitted_and_counted_like_any_statement(program):
    db = make_db()
    _cache, admission = install_serving(db, admission_slots=1)
    session = db.session()
    session.execute("SELECT COUNT(*) FROM e")
    statements, admitted = session._state.statements, admission.admitted
    session.execute_prismalog(program)
    assert session._state.statements == statements + 1
    assert admission.admitted == admitted + 1
    # The one slot is taken until the program's query process ends: the
    # next statement of another session starts no earlier.
    late = db.session()
    late.execute("SELECT COUNT(*) FROM e")
    assert admission.delayed >= 1
    assert late.clock >= session.clock
