"""The public facade: :class:`PrismaDB` and :class:`Session`.

A ``PrismaDB`` is one PRISMA database machine: a simulated
multi-computer, a POOL-X runtime, a Global Data Handler, and the OFMs it
supervises.  Sessions provide the two query interfaces of Section 2.1 —
SQL and PRISMAlog — plus transaction control, crash/restart, and access
to the simulated-machine accounting.

    >>> db = PrismaDB()
    >>> db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"
    ...            " FRAGMENTED BY HASH(id) INTO 4").message
    'table t created: ...'
"""

from __future__ import annotations

from repro.errors import PrismaError
from repro.machine.config import MachineConfig, paper_prototype
from repro.machine.machine import Machine, MachineNodesView
from repro.obs.api import Observatory
from repro.obs.tracer import Tracer
from repro.algebra.optimizer import OptimizerOptions
from repro.core.faults import FaultInjector
from repro.core.gdh import GlobalDataHandler, SessionState
from repro.core.recovery import (
    CrashReport,
    InDoubtResolution,
    RecoveryManager,
    RecoveryReport,
)
from repro.core.result import QueryResult
from repro.pool.runtime import PoolRuntime
from repro.sql.parser import parse_script


class Session:
    """One client connection with its own transaction context."""

    def __init__(self, db: "PrismaDB", state: SessionState):
        self._db = db
        self._state = state

    @property
    def session_id(self) -> int:
        return self._state.session_id

    @property
    def clock(self) -> float:
        """This session's simulated time."""
        return self._state.clock

    @property
    def in_transaction(self) -> bool:
        return self._state.txn is not None

    def advance_clock(self, seconds: float) -> None:
        """Model client-side think time: push this session forward."""
        if seconds > 0.0:
            self._state.clock += seconds

    def execute(self, sql: str) -> QueryResult:
        """Run one SQL statement in this session."""
        return self._db.gdh.execute_sql(sql, self._state)

    def execute_statement(
        self, statement, params=(), cached: bool = False
    ) -> QueryResult:
        """Run one already-parsed (or already-prepared) statement
        through the GDH entry point, *params* filling its placeholders.

        Scripts and the serving layer use this instead of calling the
        GDH directly, so per-statement accounting and admission control
        see every statement regardless of how it arrived.  ``cached``
        marks a plan-cache hit: the simulated front-end charge collapses
        to one cache lookup.
        """
        return self._db.gdh.execute_statement(
            statement, self._state, params, cached
        )

    def query(self, sql: str) -> list[tuple]:
        """Run a SELECT and return just its rows."""
        return self.execute(sql).rows

    def begin(self) -> None:
        self._db.gdh.begin(self._state)

    def commit(self) -> None:
        self._db.gdh.commit(self._state)

    def rollback(self) -> None:
        self._db.gdh.rollback(self._state)

    def execute_prismalog(self, program: str) -> list[QueryResult]:
        """Run a PRISMAlog program; one result per ``? query.``.

        Database relations serve as extensional predicates.  Programs
        whose recursion is expressible by the closure operator compile
        to ordinary algebra plans and run through the *distributed*
        executor; general recursion falls back to the semi-naive engine
        at the query process, with the referenced base tables gathered
        there first.  Either way it is one statement to the GDH: counted,
        admitted, and its fragments S-locked like a query's.
        """
        return self._db.gdh.execute_prismalog(program, self._state)

    def close(self) -> None:
        """End the session, rolling back any open transaction."""
        self._db.gdh.close_session(self._state)


class PrismaDB:
    """A PRISMA database machine instance.

    Parameters
    ----------
    config:
        Multi-computer hardware description; defaults to the 64-element
        prototype of Section 3.2 (with disks on every 8th element).
    compiled_expressions:
        Use the generative expression compiler (True, the paper's
        design) or the interpreter baseline (False; E5 ablation).
    optimizer_options:
        Ablation switches for the knowledge-based optimizer (E10).
    allow_one_phase:
        Use the single-participant commit fast path (E9 ablation).
    faults:
        A :class:`~repro.core.faults.FaultInjector` for deterministic
        crash/failure experiments; a default (never-armed) injector is
        created when omitted.
    tracer:
        A :class:`~repro.obs.Tracer` recording structured spans across
        the runtime, executor, and commit/recovery paths.  ``None`` (the
        default) or a disabled tracer costs one ``is not None`` test per
        instrumented event.
    """

    def __init__(
        self,
        config: MachineConfig | None = None,
        compiled_expressions: bool = True,
        optimizer_options: OptimizerOptions | None = None,
        allow_one_phase: bool = True,
        disk_resident: bool = False,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ):
        self.machine = Machine(config or paper_prototype())
        if not self.machine.disk_nodes():
            raise PrismaError(
                "PRISMA needs at least one disk-equipped processing element"
                " for stable storage (set MachineConfig.disk_nodes)"
            )
        self.tracer = tracer
        self.runtime = PoolRuntime(self.machine, tracer=tracer)
        self.gdh = GlobalDataHandler(
            self.runtime,
            compiled_expressions=compiled_expressions,
            optimizer_options=optimizer_options,
            allow_one_phase=allow_one_phase,
            disk_resident=disk_resident,
            faults=faults,
        )
        self.recovery = RecoveryManager(self.gdh)
        self._observatory: Observatory | None = None
        self._rebalancer = None
        self._default_session = self.session()

    # -- sessions --------------------------------------------------------------

    def session(self) -> Session:
        """Open a new client session."""
        return Session(self, self.gdh.new_session())

    def connect(self, autocommit: bool = True):
        """Open a DBAPI-shaped :class:`repro.serve.Connection`.

        Installs the serving layer's plan cache on the GDH as a side
        effect (first call only).  Imported lazily: ``repro.core`` never
        depends on ``repro.serve`` unless a connection is asked for.
        """
        from repro.serve import connect

        return connect(self, autocommit=autocommit)

    # -- statement execution -------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Run one statement in the default session."""
        return self._default_session.execute(sql)

    def query(self, sql: str) -> list[tuple]:
        return self._default_session.query(sql)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Run a ``;``-separated script in the default session."""
        return [
            self._default_session.execute_statement(statement)
            for statement in parse_script(sql)
        ]

    def execute_prismalog(self, program: str) -> list[QueryResult]:
        return self._default_session.execute_prismalog(program)

    # -- bulk loading ------------------------------------------------------------------

    def bulk_load(self, table: str, rows: list[tuple]) -> int:
        """Fast non-transactional initial population (snapshots after).

        Quiesces afterwards, so the next query is measured against an
        idle machine instead of waiting behind the load's checkpoint.
        """
        count = self.gdh.bulk_load(table, rows)
        self.quiesce()
        return count

    def quiesce(self) -> float:
        """Advance every open session and the GDH to the machine-wide
        horizon — i.e. let all in-flight background work finish before
        the next measured statement starts.  (All sessions, not just the
        default one: a multi-session benchmark quiescing after setup
        must not start measured statements in the past.)"""
        horizon = self.runtime.horizon()
        self.gdh.gdh_process.advance_to(horizon)
        for state in self.gdh.sessions.values():
            state.clock = max(state.clock, horizon)
        return horizon

    # -- durability --------------------------------------------------------------------

    def checkpoint(self) -> float:
        """Snapshot all durable fragments; returns simulated cost."""
        return self.gdh.checkpoint()

    def crash(self) -> CrashReport:
        """Simulate a machine-wide failure (volatile state lost)."""
        report = self.recovery.crash()
        # Open sessions lose their transactions.
        return report

    def restart(self) -> RecoveryReport:
        """Recover committed state from stable storage."""
        return self.recovery.restart()

    # -- faults ------------------------------------------------------------------------

    @property
    def faults(self) -> FaultInjector:
        return self.gdh.faults

    def crash_element(self, node_id: int) -> CrashReport:
        """Fail one processing element; the surviving system carries on."""
        return self.recovery.crash_element(node_id)

    def restart_element(self, node_id: int) -> RecoveryReport:
        """Bring a failed element back and replay its fragment copies."""
        self.gdh.faults.restore_element(node_id)
        return self.recovery.restart_fragments(
            [
                name
                for _info, _fragment, node, name in self.gdh.catalog.placed_copies()
                if node == node_id
            ]
        )

    def resolve_in_doubt(self) -> InDoubtResolution:
        """Resolve transactions left hanging by a halted coordinator."""
        return self.recovery.resolve_in_doubt()

    # -- online rebalancing ------------------------------------------------------------

    @property
    def rebalancer(self):
        """The online re-fragmentation supervisor (created on first use).

        Imported lazily like :meth:`connect`: ``repro.core.database``
        never pays for the rebalancer unless it is asked for.  Accessing
        it also registers the ``rebalanced`` fragmentation kind, which
        the dictionary needs to deserialize a catalog that was
        rebalanced before a restart.
        """
        if self._rebalancer is None:
            from repro.core.rebalance import Rebalancer

            self._rebalancer = Rebalancer(self.gdh)
        return self._rebalancer

    # -- introspection ---------------------------------------------------------------------

    def observe(self) -> Observatory:
        """One facade over every stats surface of this database.

        Sources (all :class:`~repro.obs.api.Snapshot`):

        ========== ====================================================
        ``runtime``      :class:`~repro.pool.runtime.RuntimeStats`
        ``nodes``        per-PE busy/tuple/message counters (machine)
        ``faults``       :class:`~repro.core.faults.FaultInjector`
        ``shuffle``      the executor's splitter cache
        ``expressions``  the expression-compiler cache
        ``metrics``      the executor's cold-path metric registry
        ``tracer``       the tracer, when one was passed at construction
        ========== ====================================================

        This replaces reaching into per-subsystem attributes
        (``db.runtime.stats``, ``db.gdh.executor.evaluator.cache`` …);
        the old paths still work but new code should go through here.
        """
        if self._observatory is None:
            observatory = Observatory()
            observatory.register("runtime", lambda: self.runtime.stats)
            observatory.register("nodes", MachineNodesView(self.machine))
            observatory.register("faults", self.gdh.faults)
            observatory.register("shuffle", lambda: self.gdh.executor.splitters)
            observatory.register(
                "expressions", lambda: self.gdh.executor.evaluator.cache
            )
            observatory.register("metrics", self.gdh.executor.metrics)
            if self.tracer is not None:
                observatory.register("tracer", self.tracer)
            self._observatory = observatory
        return self._observatory

    @property
    def catalog(self):
        return self.gdh.catalog

    def table_row_count(self, name: str) -> int:
        return sum(
            len(ofm.table)
            for fragment in self.gdh.catalog.table(name).fragments
            for ofm in self.gdh.allocator.copies(fragment)[:1]
        )

    def simulated_time(self) -> float:
        """The machine-wide simulated clock horizon."""
        return self.runtime.horizon()
