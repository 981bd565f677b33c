"""The Global Data Handler (paper Section 2.2).

"The PRISMA DBMS consists of centralized database systems, called
One-Fragment Managers (OFM), running under the supervision of a Global
Data Handler (GDH).  The GDH contains the data dictionary, the query
optimizer, the transaction manager, the concurrency control unit, and
the parsers for SQL and PRISMAlog [...] Besides these components, there
is a recovery component and a data allocation manager."

This module wires all of those together and executes statements.
Following the paper's intra-DBMS parallelism ("for each query a new
instance is created, possibly running at its own processor"), every
statement gets a fresh *query process* placed on a lightly loaded
element; its timeline carries parsing, optimization, coordination, and
the final result assembly for that query.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    BindError,
    CatalogError,
    DeadlockError,
    PrismaError,
    TransactionAborted,
    TransactionError,
)
from repro.exec.expressions import ColumnRef, Comparison, Literal, conjuncts
from repro.algebra.optimizer import OptimizedPlan, Optimizer, OptimizerOptions
from repro.algebra.plan import PlanNode, ScanNode
from repro.core.allocation import DataAllocationManager, FragmentPlacement
from repro.core.catalog import Catalog, FragmentInfo, IndexInfo, TableInfo
from repro.core.executor import DistributedExecutor
from repro.core.faults import FaultInjector
from repro.core.fragmentation import SingleFragment, build_scheme
from repro.core.locks import LockManager, LockMode
from repro.core.result import QueryResult
from repro.core.transactions import Transaction, TransactionManager, TxnState
from repro.core.twophase import CommitLog, TwoPhaseCommit
from repro.ofm.manager import OFMProfile, OneFragmentManager
from repro.pool.placement import LeastLoaded
from repro.pool.process import PoolProcess
from repro.pool.runtime import PoolRuntime
from repro.sql import ast as sql_ast
from repro.sql.binder import Binder, BoundDelete, BoundInsert, BoundUpdate
from repro.sql.parser import parse_statement
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

#: Simulated parsing cost per token and optimization cost per plan node.
PARSE_COST_PER_TOKEN_S = 5e-6
OPTIMIZE_COST_PER_NODE_S = 2e-4
#: Simulated cost of a plan-cache hit: one structural hash + lookup at
#: the GDH, replacing the parse + optimize charges above (the E5/E8
#: compiler caches showed the same shape at expression granularity).
PLAN_CACHE_HIT_COST_S = 2e-5
#: Entry bound of each of a GDH's statement caches: the parse memo and,
#: once the serving layer installs it, the plan cache.  Both are keyed
#: on statement *templates*, so a workload's working set is its handful
#: of statement shapes, not those times the literals it binds.
STATEMENT_CACHE_CAPACITY = 256
#: Wire size of a shipped DML statement / row batch header.
STATEMENT_BYTES = 256

GDH_NODE = 0


@dataclass
class SessionState:
    """Per-client state the GDH tracks (the facade owns Session objects)."""

    session_id: int
    clock: float = 0.0
    txn: Transaction | None = None
    statements: int = 0
    deadlocks: int = 0
    waits: int = 0


@dataclass
class Prepared:
    """A statement carried past the front end, reusable across executions.

    Produced by :meth:`GlobalDataHandler.prepare`: a query is bound and
    optimized, DML is bound, anything else is just its AST.  ``?``
    placeholders stay in ``bound`` as ``Param`` leaves and are filled
    in per execution, so one of these serves every execution whose
    parameters have the types it was prepared with (and agree on the
    statement's ``by_value`` ones).  Nothing in it depends on a
    parameter's value: fragment pruning reads the literal out of the
    instantiated predicate at run time (:meth:`_target_fragments`, the
    executor's scan pruning) and the optimizer's estimates only ask
    whether an operand is a constant.  Valid only while ``ddl_epoch``
    matches the GDH's — DDL changes fragment placement and schemas
    under the plan.
    """

    statement: sql_ast.Statement
    #: The optimizer's output for a query, the binder's for DML, None
    #: for everything else.
    bound: OptimizedPlan | BoundInsert | BoundUpdate | BoundDelete | None = None
    #: Output column names of a query (the *logical* plan's schema).
    columns: Sequence[str] = ()
    #: Node count of a query's bound logical plan (the optimize charge
    #: basis).
    frontend_nodes: int | None = None
    #: The GDH's DDL epoch when this was prepared.
    ddl_epoch: int = 0


class GlobalDataHandler:
    """Supervisor of the One-Fragment Managers."""

    def __init__(
        self,
        runtime: PoolRuntime,
        compiled_expressions: bool = True,
        optimizer_options: OptimizerOptions | None = None,
        allow_one_phase: bool = True,
        default_fragments: int | None = None,
        disk_resident: bool = False,
        faults: FaultInjector | None = None,
        placement: FragmentPlacement | None = None,
    ):
        self.runtime = runtime
        #: E3 baseline switch: conventional disk-resident storage.
        self.disk_resident = disk_resident
        self.machine = runtime.machine
        self.catalog = Catalog()
        self.locks = LockManager()
        self.txns = TransactionManager(self.locks)
        self.commit_log = CommitLog(self.machine, GDH_NODE)
        #: Deterministic fault injector; a default (never-armed) one is
        #: created so the crash-point hooks cost only a None check.
        self.faults = faults or FaultInjector()
        self.faults.bind(runtime)
        self.two_phase = TwoPhaseCommit(
            runtime, self.commit_log, allow_one_phase, faults=self.faults
        )
        #: Where fragment copies live is a policy decision
        #: (:class:`~repro.core.allocation.FragmentPlacement`); the
        #: default reproduces the historical most-free-memory spread.
        self.allocator = DataAllocationManager(
            self.machine, reserve_node=GDH_NODE, policy=placement
        )
        self.fragment_ofms: dict[str, OneFragmentManager] = {}
        self.compiled_expressions = compiled_expressions
        self.optimizer_options = optimizer_options or OptimizerOptions()
        self.executor = DistributedExecutor(
            runtime, self.catalog, self.fragment_ofms, compiled_expressions
        )
        self.default_fragments = default_fragments
        self.gdh_process = runtime.spawn(PoolProcess, name="gdh", node=GDH_NODE)
        self._query_counter = 0
        self._session_counter = 0
        #: Open sessions, by id — so quiesce/crash handling can reach
        #: every client's clock and transaction pointer, not just the
        #: facade's default session.
        self.sessions: dict[int, SessionState] = {}
        #: Statement text -> parsed statement, oldest evicted first.  A
        #: parse is a pure function of the text, so this is never stale
        #: and touches no simulated charge: it only saves host time
        #: (lock-wait retries re-submit the same text again and again).
        self.parse_memo: dict[str, sql_ast.Statement] = {}
        #: id(statement) -> the bound form of a DML statement without
        #: placeholders, oldest evicted first: a transaction parked on
        #: ``WouldBlock`` re-submits its statement every round, and the
        #: parse memo hands back the same object each time.  An entry
        #: keeps its statement alive, so an id cannot come to mean
        #: another statement while the entry exists.
        self.bound_memo: dict[int, Prepared] = {}
        #: Bumped on every DDL statement; prepared plans pin the epoch
        #: they were built under and the serving layer's plan cache
        #: invalidates on mismatch.
        self.ddl_epoch = 0
        #: Serving-layer hooks, installed by :mod:`repro.serve` — both
        #: default to None so the single-shot facade path costs one
        #: attribute test and fingerprints stay byte-identical.
        self.admission = None
        self.plan_cache = None

    # -- sessions ------------------------------------------------------------------

    def new_session(self) -> SessionState:
        self._session_counter += 1
        state = SessionState(self._session_counter, clock=self.gdh_process.ready_at)
        self.sessions[state.session_id] = state
        return state

    def close_session(self, session: SessionState) -> None:
        """Forget a client session (aborting any open transaction)."""
        if session.txn is not None:
            txn = session.txn
            session.txn = None
            if self.txns.active.get(txn.txn_id) is txn:
                self._abort_txn(txn, session)
        self.sessions.pop(session.session_id, None)

    def _new_query_process(self, session: SessionState, label: str) -> PoolProcess:
        """The per-query component instance of Section 2.2."""
        self._query_counter += 1
        return self.runtime.spawn(
            PoolProcess,
            name=f"query-{self._query_counter}-{label}",
            placement=LeastLoaded(),
            start_at=session.clock,
        )

    def _finish_query(self, session: SessionState, process: PoolProcess) -> None:
        session.clock = max(session.clock, process.ready_at)
        self.runtime.terminate(process)

    # -- statement entry point ---------------------------------------------------------

    def parse(self, text: str) -> sql_ast.Statement:
        """:func:`parse_statement` through the parse memo."""
        statement = self.parse_memo.get(text)
        if statement is None:
            statement = parse_statement(text)
            if len(self.parse_memo) >= STATEMENT_CACHE_CAPACITY:
                del self.parse_memo[next(iter(self.parse_memo))]
            self.parse_memo[text] = statement
        return statement

    def prepare(
        self, statement: sql_ast.Statement, params: Sequence[Any] = ()
    ) -> Prepared:
        """Bind (and, for a query, optimize) without executing.

        Host-side work only — no simulated charges, no locks, no query
        process.  The simulated parse/optimize cost is charged at
        execution time (or replaced by the cache-hit charge when this
        came out of the serving layer's cache), so prepare-then-execute
        is byte-identical to executing the statement directly.  *params*
        give the placeholders their types (see :class:`Prepared`).
        """
        if isinstance(statement, sql_ast.SelectStmt | sql_ast.SetOpStmt):
            plan = self._binder(params).bind_query(statement)
            # Optimize before locking: pushdown exposes which fragments
            # the query can actually touch, shrinking the lock set.
            return Prepared(
                statement,
                self._optimizer().optimize(plan),
                plan.schema.names(),
                sum(1 for _ in plan.walk()),
                self.ddl_epoch,
            )
        if not isinstance(
            statement, sql_ast.InsertStmt | sql_ast.UpdateStmt | sql_ast.DeleteStmt
        ):
            return Prepared(statement, ddl_epoch=self.ddl_epoch)
        # Without placeholders the bound form depends on nothing but the
        # catalog: good until the next DDL, the plan cache's own rule.
        literal = not params and not statement.n_params
        if literal:
            memo = self.bound_memo.get(id(statement))
            if (
                memo is not None
                and memo.statement is statement
                and memo.ddl_epoch == self.ddl_epoch
            ):
                return memo
        binder = self._binder(params)
        if isinstance(statement, sql_ast.InsertStmt):
            bound = binder.bind_insert(statement)
        elif isinstance(statement, sql_ast.UpdateStmt):
            bound = binder.bind_update(statement)
        else:
            bound = binder.bind_delete(statement)
        prepared = Prepared(statement, bound, ddl_epoch=self.ddl_epoch)
        if literal:
            if len(self.bound_memo) >= STATEMENT_CACHE_CAPACITY:
                del self.bound_memo[next(iter(self.bound_memo))]
            self.bound_memo[id(statement)] = prepared
        return prepared

    def execute_sql(self, text: str, session: SessionState) -> QueryResult:
        return self.execute_statement(self.parse(text), session)

    def execute_statement(
        self,
        statement: sql_ast.Statement | Prepared,
        session: SessionState,
        params: Sequence[Any] = (),
        cached: bool = False,
    ) -> QueryResult:
        """The single statement entry point.

        Everything that executes a statement — ``Session.execute``,
        ``execute_script``, the serving layer's cursors (which pass an
        already :class:`Prepared` statement and the values of its
        placeholders) — funnels through here, so per-statement
        accounting and the admission queue can't be skipped.  Admission
        (when installed) bounds how many query processes overlap in
        simulated time: a statement arriving while all slots are busy
        starts at the earliest slot-release time, FIFO, and the wait is
        charged to the session's clock.  ``cached`` marks a plan-cache
        hit: the simulated front-end charge collapses to one lookup.
        """
        session.statements += 1
        ticket = None
        if self.admission is not None:
            ticket = self.admission.admit(session)
        try:
            if not isinstance(statement, Prepared):
                statement = self.prepare(statement, params)
            return self.execute_prepared(statement, session, params, cached)
        finally:
            if ticket is not None:
                self.admission.release(ticket, session.clock)

    def execute_prepared(
        self,
        prepared: Prepared,
        session: SessionState,
        params: Sequence[Any] = (),
        cached: bool = False,
    ) -> QueryResult:
        """Instantiate *prepared* with *params* and run it."""
        bound = prepared.bound
        if bound is None:
            return self._run_unplanned(prepared.statement, session, params)
        if prepared.ddl_epoch != self.ddl_epoch:
            raise TransactionError(
                "prepared statement is stale (DDL since prepare); prepare again"
            )
        if params:
            bound = bound.with_params(params)
        if isinstance(bound, OptimizedPlan):
            return self._run_select(prepared, bound, session, cached)
        if isinstance(bound, BoundInsert):
            return self._run_insert(prepared, bound, session, cached)
        if isinstance(bound, BoundUpdate):
            return self._run_update(prepared, bound, session, cached)
        return self._run_delete(prepared, bound, session, cached)

    def _run_unplanned(
        self,
        statement: sql_ast.Statement,
        session: SessionState,
        params: Sequence[Any],
    ) -> QueryResult:
        """DDL, transaction control and the utility statements."""
        if isinstance(statement, sql_ast.CreateTableStmt):
            return self._create_table(statement, session)
        if isinstance(statement, sql_ast.CreateIndexStmt):
            return self._create_index(statement, session)
        if isinstance(statement, sql_ast.DropTableStmt):
            return self._drop_table(statement, session)
        if isinstance(statement, sql_ast.BeginStmt):
            return self.begin(session)
        if isinstance(statement, sql_ast.CommitStmt):
            return self.commit(session)
        if isinstance(statement, sql_ast.RollbackStmt):
            return self.rollback(session)
        if isinstance(statement, sql_ast.ExplainStmt):
            return self._explain(statement, params)
        if isinstance(statement, sql_ast.ShowTablesStmt):
            rows = [(name,) for name in self.catalog.table_names()]
            return QueryResult("select", columns=["table_name"], rows=rows)
        if isinstance(statement, sql_ast.AnalyzeStmt):
            tables = (
                [statement.table] if statement.table else self.catalog.table_names()
            )
            for name in tables:
                self.refresh_table_stats(name, sample_distinct=True)
            return QueryResult(
                "ddl", message=f"analyzed {len(tables)} table(s)"
            )
        if isinstance(statement, sql_ast.ShowFragmentsStmt):
            info = self.catalog.table(statement.table)
            rows = []
            for fragment in info.fragments:
                for copy_index, (node, ofm_name) in enumerate(fragment.all_copies()):
                    ofm = self.fragment_ofms.get(ofm_name)
                    rows.append(
                        (
                            fragment.fragment_id,
                            "primary" if copy_index == 0 else f"replica{copy_index}",
                            node,
                            ofm_name,
                            len(ofm.table) if ofm else 0,
                        )
                    )
            return QueryResult(
                "select",
                columns=["fragment", "copy", "element", "ofm", "rows"],
                rows=rows,
            )
        if isinstance(statement, sql_ast.CheckpointStmt):
            cost = self.checkpoint()
            return QueryResult(
                "ddl", message=f"checkpoint complete ({cost:.4f}s simulated)"
            )
        raise TransactionError(
            f"unsupported statement {type(statement).__name__}"
        )

    # -- DDL -----------------------------------------------------------------------------

    def _create_table(
        self, statement: sql_ast.CreateTableStmt, session: SessionState
    ) -> QueryResult:
        columns = []
        primary_key = []
        for definition in statement.columns:
            data_type = DataType.from_name(definition.type_name)
            columns.append(
                Column(definition.name.lower(), data_type, nullable=not definition.not_null)
            )
            if definition.primary_key:
                primary_key.append(definition.name.lower())
        schema = Schema(columns)
        clause = statement.fragmentation
        if clause is not None:
            scheme = build_scheme(
                clause.kind, schema, clause.column, clause.count, clause.boundaries
            )
        elif self.default_fragments and self.default_fragments > 1 and primary_key:
            scheme = build_scheme(
                "hash", schema, primary_key[0], self.default_fragments
            )
        else:
            scheme = SingleFragment()
        name = statement.name.lower()
        if self.catalog.has_table(name):
            raise CatalogError(f"table {name!r} already exists")

        nodes = self.allocator.place_fragments(scheme.n_fragments)
        n_copies = max(1, statement.replicas)
        if n_copies > self.machine.n_nodes:
            raise CatalogError(
                f"cannot place {n_copies} copies on {self.machine.n_nodes} elements"
            )
        fragments: list[FragmentInfo] = []

        def spawn_copy(ofm_name: str, node_id: int) -> OneFragmentManager:
            ofm = self.runtime.spawn(
                OneFragmentManager,
                name=ofm_name,
                node=node_id,
                start_at=session.clock,
                schema=schema,
                profile=OFMProfile.FULL,
                compiled_expressions=self.compiled_expressions,
                disk_resident=self.disk_resident,
            )
            self.fragment_ofms[ofm_name] = ofm
            return ofm

        for fragment_id, node_id in enumerate(nodes):
            ofm_name = f"{name}.{fragment_id}"
            spawn_copy(ofm_name, node_id)
            # Replica copies live on distinct elements (availability and
            # read load-balancing; Section 2.2 speaks of fragment copies);
            # which element each copy gets is the placement policy's call.
            replica_entries = []
            used_nodes = {node_id}
            for replica_index in range(1, n_copies):
                replica_node = self.allocator.place_replica(node_id, used_nodes)
                used_nodes.add(replica_node)
                replica_name = f"{name}.{fragment_id}r{replica_index}"
                spawn_copy(replica_name, replica_node)
                replica_entries.append((replica_node, replica_name))
            fragments.append(
                FragmentInfo(fragment_id, node_id, ofm_name, tuple(replica_entries))
            )

        info = TableInfo(
            name=name,
            schema=schema,
            scheme=scheme,
            fragments=fragments,
            primary_key=tuple(primary_key),
        )
        self.catalog.create_table(info)
        if primary_key:
            self._build_index_everywhere(
                info, IndexInfo("pk_" + name, tuple(primary_key), True, "hash")
            )
        self._ddl_changed()
        self._persist_catalog()
        return QueryResult(
            "ddl",
            message=(
                f"table {name} created: {scheme.describe()},"
                f" fragments on elements {nodes}"
            ),
        )

    def fragment_copies(self, info: TableInfo, fragment_id: int):
        """All live copies (primary first) of one fragment.

        Raises rather than returning an empty list: a write routed to a
        fragment with no live copy must fail loudly, not silently skip
        the fragment and diverge from the durable state.
        """
        fragment = info.fragment(fragment_id)
        copies = [
            self.fragment_ofms[ofm_name]
            for _node, ofm_name in fragment.all_copies()
            if ofm_name in self.fragment_ofms
            and self.fragment_ofms[ofm_name].alive
        ]
        if not copies:
            raise TransactionError(
                f"fragment {fragment_id} of table {info.name!r} has no live"
                " copy (element down?); restart it before touching this data"
            )
        return copies

    def locate_fragment_copy(self, ofm_name: str):
        """(TableInfo, FragmentInfo, node_id) for a fragment-copy name."""
        for info in self.catalog.tables():
            for fragment in info.fragments:
                for copy_node, copy_name in fragment.all_copies():
                    if copy_name == ofm_name:
                        return info, fragment, copy_node
        raise CatalogError(f"no catalog entry places fragment copy {ofm_name!r}")

    def spawn_fragment_copy(
        self, info: TableInfo, ofm_name: str, node_id: int, start_at: float
    ) -> OneFragmentManager:
        """Spawn an empty OFM for one fragment copy of *info*.

        Recreates the table's secondary indexes and registers the OFM;
        used by crash recovery (same name => same ``wal/<name>/...``
        keys to replay) and by the online rebalancer (new name, filled
        by the copy phase).
        """
        ofm = self.runtime.spawn(
            OneFragmentManager,
            name=ofm_name,
            node=node_id,
            start_at=start_at,
            schema=info.schema,
            profile=OFMProfile.FULL,
            compiled_expressions=self.compiled_expressions,
            disk_resident=self.disk_resident,
        )
        for index in info.indexes:
            ofm.create_index(index.name, index.columns, index.unique, index.method)
        self.fragment_ofms[ofm_name] = ofm
        return ofm

    def respawn_fragment_ofm(
        self, info: TableInfo, ofm_name: str, node_id: int
    ) -> OneFragmentManager:
        """Spawn a fresh OFM process for a fragment copy lost to a crash.

        The new process starts empty; the caller replays its durable WAL
        (same name => same `wal/<name>/...` keys) via
        :meth:`RecoveryManager.restart_fragments`.
        """
        return self.spawn_fragment_copy(
            info, ofm_name, node_id, self.gdh_process.ready_at
        )

    def _build_index_everywhere(self, info: TableInfo, index: IndexInfo) -> None:
        for fragment in info.fragments:
            for ofm in self.fragment_copies(info, fragment.fragment_id):
                ofm.create_index(index.name, index.columns, index.unique, index.method)
        info.indexes.append(index)

    def _create_index(
        self, statement: sql_ast.CreateIndexStmt, session: SessionState
    ) -> QueryResult:
        info = self.catalog.table(statement.table)
        if any(existing.name == statement.name for existing in info.indexes):
            raise CatalogError(f"index {statement.name!r} already exists")
        for column in statement.columns:
            info.schema.index_of(column)  # validates
        self._build_index_everywhere(
            info,
            IndexInfo(
                statement.name,
                tuple(c.lower() for c in statement.columns),
                statement.unique,
                statement.method,
            ),
        )
        self._ddl_changed()
        self._persist_catalog()
        return QueryResult("ddl", message=f"index {statement.name} created")

    def _drop_table(
        self, statement: sql_ast.DropTableStmt, session: SessionState
    ) -> QueryResult:
        info = self.catalog.table(statement.name)
        held = {
            resource
            for txn in self.txns.active.values()
            for resource in txn.touched
            if resource[0] == info.name
        }
        if held:
            raise TransactionError(
                f"cannot drop {info.name!r}: fragments in use by active transactions"
            )
        for fragment in info.fragments:
            for _node, ofm_name in fragment.all_copies():
                ofm = self.fragment_ofms.pop(ofm_name, None)
                if ofm is not None:
                    ofm.destroy()
        self.catalog.drop_table(info.name)
        self._ddl_changed()
        self._persist_catalog()
        return QueryResult("ddl", message=f"table {info.name} dropped")

    def _ddl_changed(self) -> None:
        """DDL moved schemas or fragment placement: every prepared plan
        (and the serving layer's cache of them) is now invalid."""
        self.ddl_epoch += 1
        if self.plan_cache is not None:
            self.plan_cache.invalidate(self.ddl_epoch)

    def placement_changed(self) -> None:
        """A fragment moved, split, or merged without a DDL statement.

        The plan cache's contract is that no cached plan ever routes to
        a moved fragment, but historically only DDL *statements* bumped
        the epoch — an online placement change left stale plans live.
        Every rebalance flip funnels through here: bump the epoch (which
        invalidates the cache) and force the dictionary to disk, exactly
        as DDL does.
        """
        self._ddl_changed()
        self._persist_catalog()

    def _persist_catalog(self) -> None:
        """The data dictionary is durable state: force it on DDL."""
        disk_node = self.machine.nearest_disk_node(GDH_NODE)
        disk = self.machine.nodes[disk_node].disk
        assert disk is not None
        payload = self.catalog.serialize()
        cost = self.machine.transfer_time(GDH_NODE, disk_node, len(payload))
        cost += disk.write("catalog", payload, sequential=True)
        self.gdh_process.charge(cost)

    def load_catalog_from_disk(self) -> Catalog:
        disk_node = self.machine.nearest_disk_node(GDH_NODE)
        disk = self.machine.nodes[disk_node].disk
        assert disk is not None
        payload, cost = disk.read("catalog", sequential=True)
        self.gdh_process.charge(cost)
        return Catalog.deserialize(payload)

    # -- transactions ----------------------------------------------------------------------

    def begin(self, session: SessionState) -> QueryResult:
        if session.txn is not None:
            raise TransactionError("transaction already in progress")
        session.txn = self.txns.begin(session.clock)
        return QueryResult("txn", message=f"BEGIN (txn {session.txn.txn_id})")

    def _check_live_txn(self, session: SessionState) -> None:
        """Detect a stale session→transaction pointer and fail cleanly.

        A machine crash clears ``txns.active`` wholesale and an element
        crash can abort a transaction underneath its session, but the
        ``SessionState`` still points at the dead ``Transaction``.  The
        identity check catches every flavor (crash, resolve_in_doubt,
        external abort): if the manager no longer tracks *this* object
        as active, the transaction is gone — drop the pointer and raise
        ``TransactionAborted`` instead of operating on an untracked txn.
        """
        txn = session.txn
        if txn is None:
            return
        if self.txns.active.get(txn.txn_id) is txn and txn.state is TxnState.ACTIVE:
            return
        session.txn = None
        raise TransactionAborted(
            f"transaction {txn.txn_id} was aborted by a crash; start a new one"
        )

    def _ensure_txn(self, session: SessionState) -> tuple[Transaction, bool]:
        self._check_live_txn(session)
        if session.txn is not None:
            return session.txn, False
        return self.txns.begin(session.clock, autocommit=True), True

    def commit(self, session: SessionState) -> QueryResult:
        self._check_live_txn(session)
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        txn = session.txn
        session.txn = None
        outcome = self._commit_txn(txn, session)
        return QueryResult(
            "txn",
            message=(
                f"COMMIT (txn {txn.txn_id}, {outcome.participants} participant(s),"
                f" {'1PC' if outcome.one_phase else '2PC'})"
            ),
        )

    def _commit_txn(self, txn: Transaction, session: SessionState):
        coordinator = self._new_query_process(session, "commit")
        try:
            try:
                outcome = self.two_phase.commit(txn, coordinator)
            except TransactionAborted:
                # A participant died during phase one: the protocol
                # already rolled back the survivors; close the books.
                self.txns.finish(txn, TxnState.ABORTED, coordinator.ready_at)
                self._refresh_stats(txn)
                raise
            # (An InjectedCrash propagates past this handler entirely:
            # the coordinator halted, so the transaction stays ACTIVE
            # with its locks held until resolve_in_doubt or restart.)
            self.txns.finish(txn, TxnState.COMMITTED, coordinator.ready_at)
            self._refresh_stats(txn)
        finally:
            self._finish_query(session, coordinator)
        return outcome

    def rollback(self, session: SessionState) -> QueryResult:
        self._check_live_txn(session)
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        txn = session.txn
        session.txn = None
        self._abort_txn(txn, session)
        return QueryResult("txn", message=f"ROLLBACK (txn {txn.txn_id})")

    def _abort_txn(self, txn: Transaction, session: SessionState) -> None:
        coordinator = self._new_query_process(session, "abort")
        try:
            self.two_phase.abort(txn, coordinator)
            self.txns.finish(txn, TxnState.ABORTED, coordinator.ready_at)
            self._refresh_stats(txn)
        finally:
            self._finish_query(session, coordinator)

    def abort_session_txn(self, session: SessionState) -> None:
        """External abort (deadlock victim handling by the driver)."""
        if session.txn is not None:
            txn = session.txn
            session.txn = None
            self._abort_txn(txn, session)

    def _statement_failed(self, txn: Transaction, session: SessionState) -> None:
        """A statement failed after taking effect somewhere: abort the
        transaction so partial effects are undone and locks released.

        (Statement-level atomicity via transaction abort — the engine
        has no savepoints, matching its 1988 contemporaries.)
        """
        if txn is session.txn:
            session.txn = None
        if txn.state is TxnState.ACTIVE:
            self._abort_txn(txn, session)

    def _lock(
        self,
        txn: Transaction,
        session: SessionState,
        process: PoolProcess,
        resources: list[tuple[str, int]],
        mode: LockMode,
    ) -> None:
        """Acquire locks for a statement (all before any effect).

        DeadlockError aborts the transaction (victim = requester);
        WouldBlock propagates with the transaction intact so the driver
        can retry the statement.
        """
        try:
            for resource in sorted(set(resources)):
                floor = self.txns.lock(txn, resource, mode)
                process.advance_to(floor)
        except DeadlockError:
            session.deadlocks += 1
            if txn is session.txn:
                session.txn = None
            self._abort_txn(txn, session)
            raise
        except TransactionError as exc:
            from repro.core.locks import WouldBlock

            if isinstance(exc, WouldBlock):
                session.waits += 1
                if txn.autocommit:
                    # A statement-scoped txn holds no other work; drop it
                    # so the retry starts clean.
                    self.txns.finish(txn, TxnState.ABORTED, process.ready_at)
                    self.txns.aborted -= 1  # waiting is not a real abort
            raise

    # -- SELECT ----------------------------------------------------------------------------

    def _binder(self, params: Sequence[Any]) -> Binder:
        return Binder(self.catalog.schemas(), params)

    def _optimizer(self) -> Optimizer:
        return Optimizer(self.catalog.statistics(), self.optimizer_options)

    def _charge_frontend(
        self,
        process: PoolProcess,
        tokens: int,
        plan_nodes: int | None,
        cached: bool = False,
    ) -> None:
        """Charge parsing (per token; a statement that never was text
        counts 8) and optimization (per plan node) — or, on a plan-cache
        hit, the one lookup that stands in for both."""
        if cached:
            process.charge(PLAN_CACHE_HIT_COST_S)
            return
        process.charge((tokens or 8) * PARSE_COST_PER_TOKEN_S)
        if plan_nodes is not None:
            process.charge(plan_nodes * OPTIMIZE_COST_PER_NODE_S)

    def _scan_resources(self, plan: PlanNode) -> list[tuple[str, int]]:
        """Fragments a plan reads — pruned for point predicates.

        After predicate pushdown, selections sit directly above scans;
        a point predicate on the fragmentation column narrows the lock
        set to the fragments the executor will actually visit.
        """
        from repro.algebra.plan import SelectNode

        resources: list[tuple[str, int]] = []

        def add_scan(scan: ScanNode, predicate) -> None:
            if not self.catalog.has_table(scan.table_name):
                return
            info = self.catalog.table(scan.table_name)
            fragment_ids = self._target_fragments(info, predicate)
            resources.extend((info.name, fid) for fid in fragment_ids)

        def walk(node: PlanNode) -> None:
            if isinstance(node, SelectNode) and isinstance(node.child, ScanNode):
                add_scan(node.child, node.predicate)
                return
            if isinstance(node, ScanNode):
                add_scan(node, None)
                return
            for child in node.children:
                walk(child)

        walk(plan)
        return resources

    def _run_select(
        self,
        prepared: Prepared,
        optimized: OptimizedPlan,
        session: SessionState,
        cached: bool,
    ) -> QueryResult:
        txn, autocommit = self._ensure_txn(session)
        process = self._new_query_process(session, "select")
        try:
            resources = self._scan_resources(optimized.plan)
            for shared in optimized.shared:
                resources.extend(self._scan_resources(shared.plan))
            self._lock(txn, session, process, resources, LockMode.SHARED)
            self._charge_frontend(
                process, prepared.statement.n_tokens, prepared.frontend_nodes, cached
            )
            try:
                rows, report = self.executor.execute(optimized, process)
            except PrismaError:
                if autocommit:
                    self.txns.finish(txn, TxnState.ABORTED, process.ready_at)
                raise
            if autocommit:
                self.txns.finish(txn, TxnState.COMMITTED, process.ready_at)
            return QueryResult(
                "select",
                columns=list(prepared.columns),
                rows=rows,
                report=report,
            )
        finally:
            self._finish_query(session, process)

    def _explain(
        self, statement: sql_ast.ExplainStmt, params: Sequence[Any]
    ) -> QueryResult:
        target = statement.target
        if not isinstance(target, sql_ast.SelectStmt | sql_ast.SetOpStmt):
            raise BindError("EXPLAIN supports queries only")
        optimized = self.prepare(target, params).bound.with_params(params)
        text = optimized.explain()
        lines = text.splitlines()
        lines.append(f"-- estimated rows: {optimized.estimated_rows:.0f}")
        resources = self._scan_resources(optimized.plan)
        lines.append(
            f"-- fragments to lock/scan: {len(resources)}"
        )
        return QueryResult(
            "explain",
            columns=["plan"],
            rows=[(line,) for line in lines],
        )

    # -- DML -------------------------------------------------------------------------------------

    def _run_insert(
        self,
        prepared: Prepared,
        bound: BoundInsert,
        session: SessionState,
        cached: bool,
    ) -> QueryResult:
        info = self.catalog.table(bound.table)
        routed: dict[int, list[tuple]] = {}
        for row in bound.rows:
            routed.setdefault(info.scheme.fragment_of(row), []).append(row)
        txn, autocommit = self._ensure_txn(session)
        process = self._new_query_process(session, "insert")
        try:
            resources = [(info.name, fid) for fid in routed]
            self._lock(txn, session, process, resources, LockMode.EXCLUSIVE)
            self._charge_frontend(process, prepared.statement.n_tokens, None, cached)
        except PrismaError:
            self._finish_query(session, process)
            raise
        try:
            for fragment_id, rows in sorted(routed.items()):
                self.executor.access.record(info.name, fragment_id)
                for ofm in self.fragment_copies(info, fragment_id):
                    # Participant first: if a later row fails, the abort
                    # must undo the earlier rows on this fragment.
                    txn.add_participant(ofm)
                    self.runtime.send(
                        process, ofm, STATEMENT_BYTES + _rows_bytes(rows)
                    )
                    for row in rows:
                        ofm.txn_insert(txn.txn_id, row)
                    process.advance_to(
                        self.runtime.send(ofm, process, 32)
                    )
            if autocommit:
                session.clock = max(session.clock, process.ready_at)
                session.txn = txn
                try:
                    self.commit(session)
                finally:
                    session.txn = None
                process.advance_to(session.clock)
            return QueryResult("insert", affected_rows=len(bound.rows))
        except PrismaError:
            self._statement_failed(txn, session)
            raise
        finally:
            self._finish_query(session, process)

    def _target_fragments(self, info: TableInfo, predicate) -> list[int]:
        """Fragments a predicate can touch (point-prunes when possible)."""
        if predicate is not None:
            for conjunct in conjuncts(predicate):
                if (
                    isinstance(conjunct, Comparison)
                    and conjunct.op == "="
                    and isinstance(conjunct.left, ColumnRef)
                    and isinstance(conjunct.right, Literal)
                ):
                    pruned = info.scheme.prunable_fragments(
                        conjunct.left.index, conjunct.right.value
                    )
                    if pruned is not None:
                        return pruned
        return [fragment.fragment_id for fragment in info.fragments]

    def _run_update(
        self,
        prepared: Prepared,
        bound: BoundUpdate,
        session: SessionState,
        cached: bool,
    ) -> QueryResult:
        info = self.catalog.table(bound.table)
        assigned = {index for index, _ in bound.assignments}
        moves_rows = bool(assigned & set(info.scheme.key_columns()))
        txn, autocommit = self._ensure_txn(session)
        process = self._new_query_process(session, "update")
        try:
            if moves_rows:
                # Updating the fragmentation key can change tuple homes:
                # every fragment may send or receive, lock them all.
                fragment_ids = [f.fragment_id for f in info.fragments]
            else:
                fragment_ids = self._target_fragments(info, bound.predicate)
            resources = [(info.name, fid) for fid in fragment_ids]
            self._lock(txn, session, process, resources, LockMode.EXCLUSIVE)
            self._charge_frontend(process, prepared.statement.n_tokens, None, cached)
        except PrismaError:
            self._finish_query(session, process)
            raise
        try:
            new_row_fn = self._assignment_fn(info.schema, bound.assignments)
            affected = 0
            moved_rows: list[tuple] = []
            for fragment_id in fragment_ids:
                self.executor.access.record(info.name, fragment_id)
                for copy_index, ofm in enumerate(
                    self.fragment_copies(info, fragment_id)
                ):
                    is_primary = copy_index == 0
                    txn.add_participant(ofm)
                    self.runtime.send(process, ofm, STATEMENT_BYTES)
                    pairs = ofm.txn_update_where(
                        txn.txn_id, bound.predicate, new_row_fn
                    )
                    if moves_rows:
                        move = [
                            (old, new)
                            for old, new in pairs
                            if info.scheme.fragment_of(new) != fragment_id
                        ]
                        # Undo the in-place update for movers: delete them.
                        for old, new in move:
                            ofm.txn_delete_where(
                                txn.txn_id, _row_equality(info.schema, new)
                            )
                            if is_primary:
                                moved_rows.append(new)
                    if is_primary:
                        affected += len(pairs)
                    process.advance_to(self.runtime.send(ofm, process, 32))
            for row in moved_rows:
                fragment_id = info.scheme.fragment_of(row)
                for ofm in self.fragment_copies(info, fragment_id):
                    txn.add_participant(ofm)
                    self.runtime.send(
                        process, ofm, STATEMENT_BYTES + _rows_bytes([row])
                    )
                    ofm.txn_insert(txn.txn_id, row)
                    process.advance_to(self.runtime.send(ofm, process, 32))
            if autocommit:
                session.clock = max(session.clock, process.ready_at)
                session.txn = txn
                try:
                    self.commit(session)
                finally:
                    session.txn = None
                process.advance_to(session.clock)
            return QueryResult("update", affected_rows=affected)
        except PrismaError:
            self._statement_failed(txn, session)
            raise
        finally:
            self._finish_query(session, process)

    def _run_delete(
        self,
        prepared: Prepared,
        bound: BoundDelete,
        session: SessionState,
        cached: bool,
    ) -> QueryResult:
        info = self.catalog.table(bound.table)
        txn, autocommit = self._ensure_txn(session)
        process = self._new_query_process(session, "delete")
        try:
            fragment_ids = self._target_fragments(info, bound.predicate)
            resources = [(info.name, fid) for fid in fragment_ids]
            self._lock(txn, session, process, resources, LockMode.EXCLUSIVE)
            self._charge_frontend(process, prepared.statement.n_tokens, None, cached)
        except PrismaError:
            self._finish_query(session, process)
            raise
        try:
            affected = 0
            for fragment_id in fragment_ids:
                self.executor.access.record(info.name, fragment_id)
                for copy_index, ofm in enumerate(
                    self.fragment_copies(info, fragment_id)
                ):
                    txn.add_participant(ofm)
                    self.runtime.send(process, ofm, STATEMENT_BYTES)
                    count = ofm.txn_delete_where(txn.txn_id, bound.predicate)
                    if copy_index == 0:
                        affected += count
                    process.advance_to(self.runtime.send(ofm, process, 32))
            if autocommit:
                session.clock = max(session.clock, process.ready_at)
                session.txn = txn
                try:
                    self.commit(session)
                finally:
                    session.txn = None
                process.advance_to(session.clock)
            return QueryResult("delete", affected_rows=affected)
        except PrismaError:
            self._statement_failed(txn, session)
            raise
        finally:
            self._finish_query(session, process)

    def _assignment_fn(self, schema: Schema, assignments: list[tuple[int, object]]):
        """row -> new row applying SET clauses (compiled)."""
        from repro.exec.expressions import ColumnRef as Ref

        exprs = []
        assigned = dict(assignments)
        for index in range(len(schema)):
            exprs.append(assigned.get(index, Ref(index)))
        evaluator = self.executor.evaluator
        projector, _ = evaluator.projector(tuple(exprs))
        return projector

    # -- statistics maintenance -------------------------------------------------------------------

    def _refresh_stats(self, txn: Transaction) -> None:
        """Recompute row counts for tables a transaction touched."""
        tables = {resource[0] for resource in txn.touched}
        for name in sorted(tables):
            if not self.catalog.has_table(name):
                continue
            self.refresh_table_stats(name)

    def _live_copy(self, fragment: FragmentInfo) -> OneFragmentManager | None:
        """First live copy of a fragment (primary preferred), if any."""
        for _node, copy_name in fragment.all_copies():
            ofm = self.fragment_ofms.get(copy_name)
            if ofm is not None and ofm.alive:
                return ofm
        return None

    def refresh_table_stats(self, name: str, sample_distinct: bool = False) -> None:
        info = self.catalog.table(name)
        row_count = 0
        total_bytes = 0
        for fragment in info.fragments:
            ofm = self._live_copy(fragment)
            if ofm is None:
                continue
            row_count += len(ofm.table)
            total_bytes += ofm.table.data_bytes
        info.row_count = row_count
        info.total_bytes = total_bytes
        if sample_distinct and row_count:
            distinct: dict[str, set] = {c.name: set() for c in info.schema.columns}
            for fragment in info.fragments:
                ofm = self._live_copy(fragment)
                if ofm is None:
                    continue
                for row in ofm.table.rows():
                    for column, value in zip(info.schema.columns, row):
                        distinct[column.name].add(value)
            info.distinct_estimates = {
                name: len(values) for name, values in distinct.items()
            }

    # -- bulk loading -------------------------------------------------------------------------------

    def bulk_load(self, table: str, rows: list[tuple]) -> int:
        """Fast initial population: routes rows, loads fragments, updates
        statistics, snapshots durable fragments.  Not transactional —
        meant for benchmark/workload setup, like a bulk loader utility.
        """
        info = self.catalog.table(table)
        routed: dict[int, list[tuple]] = {}
        for row in rows:
            validated = info.schema.validate_row(row)
            routed.setdefault(info.scheme.fragment_of(validated), []).append(validated)
        for fragment_id, fragment_rows in routed.items():
            for ofm in self.fragment_copies(info, fragment_id):
                # Loader CPU is charged inside ofm.bulk_load (per-tuple
                # meter + WAL checkpoint cost).
                self.runtime.send(  # prismalint: disable=PL004 -- charged in ofm.bulk_load
                    self.gdh_process, ofm, _rows_bytes(fragment_rows)
                )
                ofm.bulk_load(fragment_rows)
        self.refresh_table_stats(table, sample_distinct=True)
        self._persist_catalog()
        return len(rows)

    # -- checkpoint -----------------------------------------------------------------------------------

    def checkpoint(self) -> float:
        """Snapshot every durable fragment; returns total simulated cost."""
        total = 0.0
        for ofm in self.fragment_ofms.values():
            if ofm.profile is OFMProfile.FULL:
                total += ofm.checkpoint()
        self._persist_catalog()
        return total


def _rows_bytes(rows: list[tuple]) -> int:
    from repro.core.executor import _value_bytes

    return sum(_value_bytes(row) for row in rows) + 16  # prismalint: disable=PL101 -- message sizing only; the send this feeds charges the network


def _row_equality(schema: Schema, row: tuple):
    """Predicate expr matching exactly *row* (used when relocating a
    tuple whose fragmentation key changed)."""
    from repro.exec.expressions import (
        ColumnRef,
        Comparison,
        IsNull,
        and_,
    )

    parts = []
    for index, value in enumerate(row):
        if value is None:
            parts.append(IsNull(ColumnRef(index)))
        else:
            parts.append(Comparison("=", ColumnRef(index), Literal(value)))
    return and_(*parts)
