"""DBAPI-shaped ``Connection``/``Cursor`` over a :class:`PrismaDB` session.

The shape follows PEP 249 where it makes sense for a simulated engine —
``execute``/``executemany`` with ``?`` (qmark) parameters, ``fetchone``/
``fetchmany``/``fetchall``, ``description``/``rowcount`` — without
pretending to be a driver: there is no network, rows are already
materialized tuples, and simulated time lives on the underlying session.

Every statement takes the same three steps: the GDH's memoized parse of
the text, a lookup in the plan cache installed on the GDH
(:func:`install_serving`) under the statement's *template* key — text
and parameter types, never values — and execution of the
:class:`~repro.core.gdh.Prepared` statement with the parameter values
beside it.  A hit charges one cache lookup instead of parse + optimize;
a miss prepares (binds, optimizes) and populates the cache.  So one
entry serves ``SELECT v FROM kv WHERE id = ?`` for every key.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import InterfaceError
from repro.serve.admission import AdmissionQueue
from repro.serve.params import bind_parameters, statement_key
from repro.serve.plancache import PlanCache
from repro.sql import ast as sql_ast

# The repo benchmark's host tracer patches the serving front end *here*,
# by name; these two are off the statement path now but stay importable
# from this module for it (tests/test_bench_patch_points.py).
from repro.serve.params import template_tokens  # noqa: F401
from repro.sql.parser import parse_tokens  # noqa: F401

__all__ = ["Connection", "Cursor", "PreparedStatement", "connect", "install_serving"]

#: Statements that manage the transaction themselves; the manual-commit
#: mode must not open an implicit transaction around these.
_TXN_CONTROL = (sql_ast.BeginStmt, sql_ast.CommitStmt, sql_ast.RollbackStmt)


def install_serving(
    db, admission_slots: int | None = None
) -> tuple[PlanCache, AdmissionQueue | None]:
    """Install the serving hooks on *db*'s GDH (idempotent).

    Creates the plan cache on first call and, when *admission_slots* is
    given, the admission queue; both register as Observatory sources so
    ``db.observe()`` reports hit rates and queue waits alongside every
    other surface.  The hooks stay ``None`` until this runs, so a
    database that never serves keeps its exact pre-serving behavior
    (and fingerprints).
    """
    gdh = db.gdh
    if gdh.plan_cache is None:
        gdh.plan_cache = PlanCache()
    if admission_slots is not None and (
        gdh.admission is None or gdh.admission.slots != admission_slots
    ):
        gdh.admission = AdmissionQueue(admission_slots)
    observatory = db.observe()
    if "plan_cache" not in observatory.sources():
        observatory.register("plan_cache", lambda: db.gdh.plan_cache)
    if gdh.admission is not None and "admission" not in observatory.sources():
        observatory.register("admission", lambda: db.gdh.admission)
    return gdh.plan_cache, gdh.admission


def connect(db, autocommit: bool = True) -> "Connection":
    """Open a :class:`Connection` over a fresh session of *db*."""
    return Connection(db, autocommit=autocommit)


class Connection:
    """One client connection: a session plus DBAPI transaction style.

    With ``autocommit=True`` (the default) each statement commits by
    itself, as :meth:`PrismaDB.execute` always has.  With
    ``autocommit=False`` the first statement opens a transaction that
    stays open until :meth:`commit`/:meth:`rollback` — PEP 249's
    implicit-transaction style.
    """

    def __init__(self, db, autocommit: bool = True):
        install_serving(db)
        self._db = db
        self._session = db.session()
        self.autocommit = autocommit
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def session(self):
        """The underlying :class:`~repro.core.database.Session`."""
        return self._session

    @property
    def in_transaction(self) -> bool:
        return self._session.in_transaction

    def close(self) -> None:
        """Close the connection (rolls back any open transaction)."""
        if not self._closed:
            self._session.close()
            self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- transactions ------------------------------------------------------

    def commit(self) -> None:
        """Commit the open transaction (no-op when none is open)."""
        self._check_open()
        if self._session.in_transaction:
            self._session.commit()

    def rollback(self) -> None:
        """Roll back the open transaction (no-op when none is open)."""
        self._check_open()
        if self._session.in_transaction:
            self._session.rollback()

    # -- statements --------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence | None = None) -> "Cursor":
        """Shorthand: a fresh cursor with *sql* already executed."""
        return self.cursor().execute(sql, params)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse *sql* now (syntax errors surface here) for repeated
        parameterized execution."""
        self._check_open()
        self._db.gdh.parse(sql)
        return PreparedStatement(self, sql)

    def _run(self, sql: str, params: Sequence | None):
        """The one execution path: parse memo → plan cache → GDH."""
        self._check_open()
        gdh = self._db.gdh
        statement = gdh.parse(sql)
        values = bind_parameters(statement, params)
        key = statement_key(sql, values, statement.by_value)
        prepared = gdh.plan_cache.get(key)
        cached = prepared is not None
        if (
            not self.autocommit
            and not self._session.in_transaction
            and not isinstance(statement, _TXN_CONTROL)
        ):
            self._session.begin()
        if not cached:
            prepared = gdh.prepare(statement, values)
            gdh.plan_cache.put(key, prepared)
        return self._session.execute_statement(prepared, values, cached)


class PreparedStatement:
    """A statement template parsed up front; run it with ``execute``."""

    def __init__(self, connection: Connection, sql: str):
        self._connection = connection
        self.sql = sql

    def execute(self, params: Sequence | None = None) -> "Cursor":
        return self._connection.cursor().execute(self.sql, params)


class Cursor:
    """DBAPI-shaped statement execution and row fetching."""

    def __init__(self, connection: Connection):
        self._connection = connection
        self.arraysize = 1
        self._closed = False
        self._reset_result()

    def _reset_result(self) -> None:
        self.description = None
        self.rowcount = -1
        self._rows: list[tuple] = []
        self._position = 0
        self.result = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")

    # -- execution ---------------------------------------------------------

    def execute(self, sql: str, params: Sequence | None = None) -> "Cursor":
        """Run one statement; ``?`` placeholders bind from *params*."""
        self._check_open()
        result = self._connection._run(sql, params)
        self._reset_result()
        self.result = result
        if result.columns:
            self.description = [
                (name, None, None, None, None, None, None)
                for name in result.columns
            ]
            self.rowcount = len(result.rows)
        else:
            self.rowcount = result.affected_rows
        self._rows = result.rows or []
        return self

    def executemany(
        self, sql: str, seq_of_params: Iterable[Sequence]
    ) -> "Cursor":
        """Run *sql* once per parameter tuple.

        ``rowcount`` totals the affected rows; any result rows are
        discarded, per PEP 249.
        """
        self._check_open()
        affected = 0
        for params in seq_of_params:
            result = self._connection._run(sql, params)
            affected += max(result.affected_rows, 0)
        self._reset_result()
        self.rowcount = affected
        return self

    # -- fetching ----------------------------------------------------------

    def fetchone(self) -> tuple | None:
        self._check_open()
        if self._position >= len(self._rows):
            return None
        row = self._rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        self._check_open()
        count = self.arraysize if size is None else size
        chunk = self._rows[self._position : self._position + count]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        self._check_open()
        remaining = self._rows[self._position :]
        self._position = len(self._rows)
        return remaining

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._reset_result()
        self._closed = True
