"""Dispatch plans: a statement compiled once, at prepare time.

The OFMs *generate* the routines a query needs instead of interpreting a
generic plan (Section 2.5); a dispatch plan does the same for a whole
statement.  ``GlobalDataHandler.prepare`` compiles every planned
statement once into one of the plans below, held on its ``Prepared``:
its *accesses* (each base table it reads, with the ``column = constant``
/ ``column = ?`` conjuncts that may prune it), its lock mode and body,
for a query the executor's plan walk flattened into *steps* (closures
over the executor's primitives, every operator's chain op, join keys,
aggregate decomposition and gather target worked out) and each
PRISMAlog recursive component it reads as a loop over such steps, for
DML the rows,
the victim predicate and the assignment list (its ``?`` read from the
row's tail, :func:`~repro.exec.expressions.params_to_columns`).

An execution is bind → route → lock → choose copies → the k sends →
reply: ``route`` evaluates each access's pruning keys on the values
once, for the GDH's lock set and the executor's scan set alike; which
copy serves a fragment is still read when the step runs.  A one-shot
statement takes the same path; a point read is the degenerate plan.  A
scan or victim predicate ships as its template with the values beside
it: the OFM's index fast path reads a ``?`` there, and only what must
compile (conjuncts an index leaves, a chain op holding a ``?``) is
instantiated, as the literal statement would have it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache
from typing import Any

from repro.errors import ExecutionError
from repro.exec.closure import MAX_ITERATIONS, ordered
from repro.exec.compiler import compile_scalar
from repro.exec.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    Literal,
    Param,
    and_,
    has_params,
    params_to_columns,
    substitute_params,
)
from repro.exec.shuffle import hashed_edge_table
from repro.algebra.local_exec import op_of, two_phase_ops
from repro.algebra.optimizer import OptimizedPlan
from repro.algebra.plan import (
    AggregateNode,
    DeltaScanNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SharedScanNode,
)
from repro.core.catalog import Catalog, TableInfo, pruning_keys
from repro.core.executor import BROADCAST_ROWS, DistRelation, DistributedExecutor, Part, rows_bytes
from repro.core.locks import LockMode, Resource
from repro.core.result import QueryResult
from repro.ofm.manager import OneFragmentManager
from repro.prismalog.compile import CompiledProgram, RecursiveComponent
from repro.prismalog.translate import predicate_schema
from repro.sql.binder import BoundDelete, BoundInsert, BoundUpdate, insert_value
from repro.storage.schema import Schema

#: Wire size of a shipped DML statement / row batch header.
STATEMENT_BYTES = 256

#: A compiled plan node: the executor in, the node's relation out (its
#: topmost fragment-local operators may still be pending on the parts).
#: A step reaches the executor only through its public step API.
Step = Callable[[DistributedExecutor], DistRelation]
#: Per access: the table (None once the dictionary lost it) and the
#: fragments it reads (None: all of them).
Route = tuple[TableInfo | None, list[int] | None]
#: What ``route`` hands the GDH: the lock set, and the body's arguments.
Routed = tuple[list[Resource], tuple]


# -- queries ----------------------------------------------------------------------


class QueryPlan:
    """A query's accesses and the executor's walk over it, as steps
    (recursive components first, then shared subexpressions, in the
    order they materialize).

    *closures* names the PRISMAlog predicates each closure computes,
    keyed by the closure's plan key: their rounds are reported.
    """

    label, mode = "select", LockMode.SHARED

    def __init__(
        self,
        optimized: OptimizedPlan,
        columns: Sequence[str] = (),
        components: Sequence[RecursiveComponent] = (),
        closures: dict[tuple, list[str]] | None = None,
    ):
        self.optimized = optimized
        self.columns = columns
        compiler = _StepCompiler(closures or {})
        self.fixpoints = tuple(compiler.fixpoint(component) for component in components)
        self.shared = tuple((s.token, compiler.node(s.plan)) for s in optimized.shared)
        self.root = compiler.node(optimized.plan)
        #: ``(table, pruning keys)`` of every base-table scan.
        self.accesses = tuple(compiler.accesses)

    def routed(self, catalog: Catalog, params: Sequence[Any] = ()) -> RoutedQuery:
        """One execution: each access's fragments, evaluated on *params*."""
        routes: list[Route] = []
        for table, keys in self.accesses:
            if catalog.has_table(table):
                info = catalog.table(table)
                routes.append((info, info.pruned_fragments(keys, params)))
            else:  # the scan step names the missing table when it runs
                routes.append((None, None))
        return RoutedQuery(self, params, routes)

    def route(self, catalog: Catalog, params: Sequence[Any]) -> Routed:
        routed = self.routed(catalog, params)
        return routed.resources(), (routed,)

    def run(self, gdh, txn, process, routed: RoutedQuery) -> QueryResult:
        ((rows, report),) = gdh.executor.execute([routed], process)
        return QueryResult("select", columns=list(self.columns), rows=rows, report=report)


class RoutedQuery:
    """What the executor runs: a query plan, one execution's parameter
    values and the route of every access."""

    __slots__ = ("plan", "params", "routes")

    def __init__(self, plan: QueryPlan, params: Sequence[Any], routes: list[Route]):
        self.plan, self.params, self.routes = plan, params, routes

    def resources(self) -> list[Resource]:
        """The fragments the execution reads (one entry per access)."""
        return [
            (info.name, fragment_id)
            for info, pruned in self.routes
            if info is not None
            for fragment_id in (
                pruned if pruned is not None else [f.fragment_id for f in info.fragments]
            )
        ]


class ProgramPlan:
    """A PRISMAlog program: each query runs through the distributed
    executor like any SELECT, after the recursive components it reads
    (Section 2.3's semantics-via-algebra made literal).  The queries run
    as one execution, so a recursion several of them read runs once."""

    label, mode = "prismalog", LockMode.SHARED

    def __init__(self, plans: Sequence[OptimizedPlan], compiled: CompiledProgram):
        closures: dict[tuple, list[str]] = {}
        for name in compiled.closure_predicates:
            closures.setdefault(compiled.predicate_plans[name].key(), []).append(name)
        self.queries = [
            QueryPlan(plan, (), compiled.components_for(logical), closures)
            for plan, (_query, logical) in zip(plans, compiled.query_plans)
        ]
        self.closure_predicates = compiled.closure_predicates

    def route(self, catalog: Catalog, params: Sequence[Any]) -> Routed:
        routed = [query.routed(catalog, params) for query in self.queries]
        return [resource for each in routed for resource in each.resources()], (routed,)

    def run(self, gdh, txn, process, routed: list[RoutedQuery]) -> list[QueryResult]:
        results = []
        for each, (answers, report) in zip(routed, gdh.executor.execute(routed, process)):
            results.append(
                QueryResult(
                    "prismalog",
                    columns=each.plan.optimized.plan.schema.names(),
                    rows=sorted(answers, key=repr),
                    report=report,
                    prismalog_stats={
                        "compiled_to_algebra": True,
                        "closure_operator_hits": list(self.closure_predicates),
                        "fixpoint_iterations": dict(report.rounds),
                    },
                )
            )
        return results


# -- DML ---------------------------------------------------------------------------


class InsertPlan:
    label, mode = "insert", LockMode.EXCLUSIVE

    def __init__(self, bound: BoundInsert):
        #: Validated rows, except that a cell waiting for a parameter is
        #: still open (its row is validated once filled in): a plain ``?``
        #: as its ``Param``, an expression over ``?`` as its routine.
        self.table, self.schema = bound.table, bound.schema
        self.rows = [tuple(map(_open_cell, row)) for row in bound.rows]  # prismalint: disable=PL101 -- prepare time; each row is charged where it is inserted (OneFragmentManager.txn_insert)

    def route(self, catalog: Catalog, params: Sequence[Any]) -> Routed:
        rows = [self._fill(row, params) for row in self.rows] if params else self.rows  # prismalint: disable=PL101 -- the statement's VALUES; each row is charged where it is inserted (OneFragmentManager.txn_insert)
        info = catalog.table(self.table)
        routed: dict[int, list[tuple]] = {}
        for row in rows:  # prismalint: disable=PL101 -- as above
            routed.setdefault(info.scheme.fragment_of(row), []).append(row)
        return [(info.name, fragment_id) for fragment_id in routed], (info, routed)

    def _fill(self, row: tuple, params: Sequence[Any]) -> tuple:
        if not any(type(cell) is Param or callable(cell) for cell in row):  # prismalint: disable=PL101 -- one VALUES row's cells, as above
            return row
        return self.schema.validate_row(tuple(_filled(cell, params) for cell in row))  # prismalint: disable=PL101 -- as above

    def run(self, gdh, txn, process, info: TableInfo, routed: dict[int, list[tuple]]):
        for fragment_id, rows in sorted(routed.items()):  # prismalint: disable=PL101 -- each row is charged where it is inserted (OneFragmentManager.txn_insert)
            gdh.executor.access.record(info.name, fragment_id)
            n_bytes = STATEMENT_BYTES + rows_bytes(rows)
            gdh.at_copies(txn, process, info, fragment_id, n_bytes, _insert_rows, rows)
        return QueryResult("insert", affected_rows=sum(map(len, routed.values())))


def _open_cell(cell):
    """An INSERT cell as prepared: an expression over ``?`` compiled into
    a ``params -> value`` routine (each ``?`` read from the parameter
    tuple as its row, :func:`params_to_columns`); anything else as is."""
    if type(cell) is Param or not isinstance(cell, Expr):
        return cell
    reading = params_to_columns(cell, 0)
    if has_params(reading):  # an IN list or LIKE pattern holds the ``?``
        return lambda params: compile_scalar(substitute_params(cell, params))(())
    return compile_scalar(reading)


def _filled(cell, params: Sequence[Any]):
    """An INSERT cell's value in one execution."""
    if type(cell) is Param:
        return params[cell.index]
    if callable(cell):
        return insert_value(cell, params)
    return cell


class _WherePlan:
    """A DML statement with a WHERE clause: it routes to the fragments
    its victim predicate can touch, and ships that predicate."""

    mode = LockMode.EXCLUSIVE

    def __init__(self, bound: BoundDelete | BoundUpdate):
        self.table, self.predicate = bound.table, bound.predicate
        self.keys = pruning_keys(bound.predicate)

    def route(self, catalog: Catalog, params: Sequence[Any]) -> Routed:
        info = catalog.table(self.table)
        fragment_ids = info.target_fragments(self.keys, params)
        resources = [(info.name, fragment_id) for fragment_id in fragment_ids]
        return resources, (info, fragment_ids, params)


class DeletePlan(_WherePlan):
    label = "delete"

    def run(self, gdh, txn, process, info: TableInfo, fragment_ids: list[int], params):
        affected = 0
        for fragment_id in fragment_ids:
            gdh.executor.access.record(info.name, fragment_id)
            affected += gdh.at_copies(
                txn, process, info, fragment_id, STATEMENT_BYTES,
                OneFragmentManager.txn_delete_where, self.predicate, params
            )
        return QueryResult("delete", affected_rows=affected)


class UpdatePlan(_WherePlan):
    label = "update"

    def __init__(self, bound: BoundUpdate, schema: Schema):
        super().__init__(bound)
        self.assigned = frozenset(index for index, _ in bound.assignments)
        width, assigned = len(schema), dict(bound.assignments)
        #: The new row, each ``?`` read from column ``width + index``;
        #: IN lists and LIKE patterns keep theirs until execution.
        self.exprs = tuple(
            params_to_columns(assigned.get(index, ColumnRef(index)), width)
            for index in range(width)
        )
        self.instantiate = any(has_params(expr) for expr in self.exprs)

    def route(self, catalog: Catalog, params: Sequence[Any]) -> Routed:
        info = catalog.table(self.table)
        # Updating the fragmentation key can change tuple homes: every
        # fragment may send or receive, lock them all.
        moves_rows = not self.assigned.isdisjoint(info.scheme.key_columns())
        fragment_ids = info.target_fragments(() if moves_rows else self.keys, params)
        args = (info, fragment_ids, params, moves_rows)
        return [(info.name, fragment_id) for fragment_id in fragment_ids], args

    def row_function(self, evaluator, params: Sequence[Any] = ()):
        """row -> updated row, through the compiled assignment list."""
        exprs = self.exprs
        if self.instantiate:
            exprs = tuple(substitute_params(expr, params) for expr in exprs)
        projector, _ = evaluator.projector(exprs)
        if not params:
            return projector
        tail = tuple(params)
        return lambda row: projector(row + tail)

    def run(self, gdh, txn, process, info, fragment_ids, params, moves_rows):
        new_row_fn = self.row_function(gdh.executor.evaluator, params)
        # Given only when the fragmentation key is assigned: the rows
        # whose new key routes elsewhere then leave their fragment.
        rehome = info if moves_rows else None
        affected = 0
        moved_rows: list[tuple] = []
        for fragment_id in fragment_ids:
            gdh.executor.access.record(info.name, fragment_id)
            count, movers = gdh.at_copies(
                txn, process, info, fragment_id, STATEMENT_BYTES,
                _update_rows, self.predicate, params, new_row_fn, rehome, fragment_id
            )
            affected += count
            moved_rows += movers
        for row in moved_rows:  # prismalint: disable=PL101 -- each moved row is charged where it is re-inserted (OneFragmentManager.txn_insert)
            home = info.scheme.fragment_of(row)
            n_bytes = STATEMENT_BYTES + rows_bytes([row])
            gdh.at_copies(txn, process, info, home, n_bytes, _insert_rows, [row])
        return QueryResult("update", affected_rows=affected)


def _insert_rows(ofm: OneFragmentManager, txn_id: int, rows: list[tuple]) -> None:
    for row in rows:  # prismalint: disable=PL101 -- charged in OneFragmentManager.txn_insert
        ofm.txn_insert(txn_id, row)


def _update_rows(
    ofm: OneFragmentManager,
    txn_id: int,
    predicate,
    params: Sequence[Any],
    new_row_fn,
    rehome: TableInfo | None,
    fragment_id: int,
) -> tuple[int, list[tuple]]:
    """Update in place at one copy; returns (rows updated, rows that no
    longer belong to *fragment_id*).  With *rehome* — the table, given
    when the fragmentation key is assigned — the rows whose new key
    routes elsewhere are deleted here again and handed back for
    insertion at their new home."""
    pairs = ofm.txn_update_where(txn_id, predicate, new_row_fn, params)
    movers: list[tuple] = []
    if rehome is not None:
        for _old, new in pairs:
            if rehome.scheme.fragment_of(new) != fragment_id:
                movers.append(new)
        for new in movers:
            ofm.txn_delete_where(txn_id, _row_equality(rehome.schema, new))
    return len(pairs), movers


def _row_equality(schema: Schema, row: tuple):
    """Predicate expr matching exactly *row* (used when relocating a
    tuple whose fragmentation key changed)."""
    parts = []
    for index, value in enumerate(row):
        if value is None:
            parts.append(IsNull(ColumnRef(index)))
        else:
            parts.append(Comparison("=", ColumnRef(index), Literal(value)))
    return and_(*parts)


# -- the step compiler -----------------------------------------------------------


def _holds_params(value) -> bool:
    if isinstance(value, Expr):
        return has_params(value)
    return isinstance(value, tuple) and any(map(_holds_params, value))


def _instantiated(value, params: Sequence[Any]):
    if isinstance(value, Expr):
        return substitute_params(value, params)
    if isinstance(value, tuple):
        return tuple(_instantiated(item, params) for item in value)
    return value


def _binding(template) -> Callable[[Sequence[Any]], Any]:
    """params -> *template* (an expression, op or tuple of ops, or None)
    with its ``?`` filled in; the template itself when it has none."""
    if not _holds_params(template):
        return lambda _params: template
    return lambda params: _instantiated(template, params)


class _StepCompiler:
    """Flattens a plan tree into steps, once, and collects its accesses.

    Each ``_<Node>`` method works out here what only the template
    decides and returns the step that issues, per execution, the node's
    primitives — every charge, message and span, in the order the
    simulated machine must see them.
    """

    def __init__(self, closures: dict[tuple, list[str]]) -> None:
        self.closures = closures
        self.accesses: list[tuple[str, tuple]] = []

    def node(self, plan: PlanNode) -> Step:
        build = getattr(self, f"_{type(plan).__name__}", None)
        if build is None:
            raise ExecutionError(f"no distributed strategy for {type(plan).__name__}")
        return build(plan)

    # -- leaves ------------------------------------------------------------------

    def _ValuesNode(self, plan) -> Step:
        return lambda ex: DistRelation([Part(ex.query_process, list(plan.rows))], None)

    def _SharedScanNode(self, plan) -> Step:
        def step(ex) -> DistRelation:
            relation = ex.shared.get(plan.token)
            if relation is None:
                raise ExecutionError(f"shared subexpression {plan.token!r} not materialized")
            return DistRelation(
                [Part(part.process, part.rows) for part in relation.parts],
                relation.partition_cols,
            )

        return step

    def _ScanNode(self, plan: ScanNode, predicate: Expr | None = None) -> Step:
        """A base table read at its fragment OFMs — with *predicate* (a
        selection directly above it) pruned by the route and filtered at
        each OFM, through a local index when one fits."""
        index, table = len(self.accesses), plan.table_name
        self.accesses.append((table, pruning_keys(predicate)))

        def step(ex) -> DistRelation:
            info, pruned = ex.routes[index]
            if info is None:
                info = ex.catalog.table(table)  # raises: the table is gone
            return ex.scan(info, pruned, predicate)

        return step

    # -- fragment-local unary operators --------------------------------------------

    def _pending(self, plan: PlanNode, partition) -> Step:
        """*plan*'s op pending on its child's parts, the partitioning
        columns mapped through *partition*."""
        child, name, op = self.node(plan.children[0]), type(plan).__name__, _binding(op_of(plan))

        def step(ex) -> DistRelation:
            relation = child(ex)
            return ex.then(relation, partition(relation.partition_cols), name, op(ex.params))

        return step

    def _SelectNode(self, plan) -> Step:
        if isinstance(plan.child, ScanNode):
            return self._ScanNode(plan.child, plan.predicate)
        return self._pending(plan, lambda cols: cols)

    def _ProjectNode(self, plan) -> Step:
        return self._pending(plan, _partition_through(plan))

    # -- operators that gather at the query process --------------------------------

    def _LimitNode(self, plan) -> Step:
        child, op = self.node(plan.child), op_of(plan)
        take = None if plan.limit is None else plan.limit + plan.offset

        def step(ex) -> DistRelation:
            relation = ex.flush(child(ex))
            if take is not None and len(relation.parts) > 1:
                # Each part can cap locally before shipping; the cap touches
                # min(len(rows), take) tuples of simulated CPU at the part.
                capped: list[Part] = []
                for part in relation.parts:
                    part.process.charge(ex.machine.cpu_time(tuples=min(len(part.rows), take)))
                    capped.append(Part(part.process, part.rows[:take]))
                relation = DistRelation(capped, relation.partition_cols)
            return ex.then(ex.gather(relation, ex.query_process), None, "LimitNode", op)

        return step

    def _SortNode(self, plan) -> Step:
        child, op = self.node(plan.child), op_of(plan)
        return lambda ex: ex.then(ex.gather(child(ex), ex.query_process), None, "SortNode", op)

    def _TopNNode(self, plan) -> Step:
        child, op = self.node(plan.child), op_of(plan)
        # Every site heap-cuts to its best `keep` rows *before* shipping —
        # the network saving the sort+limit fusion exists for.  Stability
        # survives the cut: per-site output keeps equal-key rows in
        # original order, sites gather in part order, and the final
        # heap's index tie-break reproduces the global stable sort.
        cut = ("topn", plan.keys, plan.limit + plan.offset, 0)

        def step(ex) -> DistRelation:
            relation = child(ex)
            if len(relation.parts) > 1:
                relation = ex.then(relation, relation.partition_cols, "TopNNode", cut)
            return ex.then(ex.gather(relation, ex.query_process), None, "TopNNode", op)

        return step

    def _DistinctNode(self, plan) -> Step:
        child, op, every = self.node(plan.child), op_of(plan), tuple(range(len(plan.schema)))

        def step(ex) -> DistRelation:
            relation = child(ex)
            if len(relation.parts) == 1:
                return ex.then(relation, relation.partition_cols, "DistinctNode", op)
            # Repartition by whole row so duplicates meet, then local dedup.
            return ex.then(ex.repartition(relation, every), every, "DistinctNode", op)

        return step

    def _AggregateNode(self, plan: AggregateNode) -> Step:
        child, op = self.node(plan.child), _binding(op_of(plan))
        if any(aggregate.distinct for aggregate in plan.aggregates):
            # DISTINCT aggregates cannot be merged from partials: gather.
            def gathered(ex) -> DistRelation:
                relation = child(ex)
                parts = relation.parts
                target = parts[0].process if len(parts) == 1 else ex.query_process
                relation = ex.gather(relation, target)
                return ex.then(relation, None, "AggregateNode", op(ex.params))

            return gathered
        # Two-phase aggregation: local partials, shuffle, merge.  The
        # merge's aggregation and the projection assembling the original
        # outputs are one charge, traced as the projection.
        partial, merge = map(_binding, two_phase_ops(plan))
        groups = tuple(range(len(plan.group_cols)))

        def step(ex) -> DistRelation:
            relation, params = child(ex), ex.params
            if len(relation.parts) == 1:
                # Single-site: the aggregation extends the part's chain.
                return ex.then(relation, None, "AggregateNode", op(params))
            partials = ex.then(relation, None, "AggregateNode", partial(params))
            if not groups:
                merged = ex.gather(partials, ex.query_process)
                return ex.then(merged, None, "ProjectNode", *merge(params))
            # Shuffle partials by group key so each group merges at one site.
            shuffled = ex.repartition(partials, groups)
            return ex.then(shuffled, groups, "ProjectNode", *merge(params))

        return step

    # -- binary operators and recursion ----------------------------------------------

    def _JoinNode(self, plan: JoinNode) -> Step:
        left, right = self.node(plan.left), self.node(plan.right)
        left_keys, right_keys, _ = plan.equi_keys()
        condition, instantiate = _binding(plan.condition), _holds_params(plan.condition)

        def step(ex) -> DistRelation:
            lrel, rrel = ex.flush(left(ex)), ex.flush(right(ex))
            local = plan
            if instantiate:
                local = JoinNode(plan.left, plan.right, condition(ex.params), plan.kind)
            # Strategy 1: broadcast a small right side (valid for all kinds
            # here because SEMI/ANTI/LEFT_OUTER keep the left partitioned
            # and need the *whole* right everywhere).
            if not left_keys or rrel.total_rows <= BROADCAST_ROWS:
                copies = ex.broadcast(rrel, [part.process for part in lrel.parts])
                parts = [
                    Part(part.process, ex.run_local(part.process, local, part.rows, copy))
                    for part, copy in zip(lrel.parts, copies)
                ]
                # Left columns keep their positions, whatever the join kind.
                return DistRelation(parts, lrel.partition_cols)
            # Strategy 2: already co-partitioned on the join keys.
            if not (
                lrel.partition_cols == left_keys
                and rrel.partition_cols == right_keys
                and len(lrel.parts) == len(rrel.parts)
            ):
                lrel = ex.repartition(lrel, left_keys)
                targets = [part.process for part in lrel.parts]
                rrel = ex.repartition(rrel, right_keys, targets=targets)
            pairs = list(zip(lrel.parts, rrel.parts))
            # Co-partitioned but on different elements: ship the right
            # stream to the left one's element, every pair at once.
            ex.ship_all(
                [
                    (right_part.process, left_part.process, right_part.rows)
                    for left_part, right_part in pairs
                    if right_part.process is not left_part.process
                ]
            )
            parts = [
                Part(
                    left_part.process,
                    ex.run_local(left_part.process, local, left_part.rows, right_part.rows),
                )
                for left_part, right_part in pairs
            ]
            return DistRelation(parts, left_keys or None)

        return step

    def _SetOpNode(self, plan) -> Step:
        left, right = self.node(plan.left), self.node(plan.right)
        every = tuple(range(len(plan.schema)))

        def step(ex) -> DistRelation:
            lrel, rrel = ex.flush(left(ex)), ex.flush(right(ex))
            if plan.op == "union_all":
                return DistRelation(lrel.parts + rrel.parts, None)
            if plan.op == "union":
                combined = ex.repartition(DistRelation(lrel.parts + rrel.parts, None), every)
                return ex.then(combined, every, "DistinctNode", ("distinct",))
            # intersect / except: co-partition both sides by whole row.
            lrel = ex.repartition(lrel, every)
            rrel = ex.repartition(rrel, every, targets=[part.process for part in lrel.parts])
            parts = []
            for left_part, right_part in zip(lrel.parts, rrel.parts):
                rows = ex.run_local(left_part.process, plan, left_part.rows, right_part.rows)
                parts.append(Part(left_part.process, rows))
            return DistRelation(parts, every)

        return step

    def _ClosureNode(self, plan) -> Step:
        """A fragmented, non-empty input runs the loop's one-predicate
        instance; a one-part or empty input the OFM's closure operator at
        one site.  Its rounds are reported under the PRISMAlog predicates
        it computes, or under :data:`CLOSURE` when none does (SQL's
        ``CLOSURE``)."""
        child, key = self.node(plan.child), plan.key()
        names = self.closures.get(key) or (CLOSURE,)
        loop = closure_loop()

        def step(ex) -> DistRelation:
            if key not in ex.memo:
                relation = ex.flush(child(ex))
                if len(relation.parts) > 1 and relation.total_rows:
                    ex.shared[CLOSURE] = relation
                    (relation,), rounds = loop(ex)
                    # Ordered per site, as the closure operator's result is.
                    parts = [Part(p.process, ordered(p.rows)) for p in relation.parts]
                    ex.memo[key] = DistRelation(parts, relation.partition_cols), rounds
                else:
                    ex.memo[key] = ex.closure(relation)
            relation, rounds = ex.memo[key]
            ex.rounds.update(dict.fromkeys(names, rounds))
            return relation

        return step

    def _DeltaScanNode(self, plan) -> Step:
        return lambda ex: ex.deltas[plan.token]

    def _TotalScanNode(self, plan) -> Step:
        return lambda ex: ex.totals[plan.token]

    def fixpoint(self, component: RecursiveComponent) -> Callable[[DistributedExecutor], None]:
        """*component*'s loop, run once per execution: its predicates'
        relations under their tokens, their rounds reported."""
        loop, key = self.loop(component), tuple(component.tokens)

        def run(ex) -> None:
            if key not in ex.memo:
                ex.memo[key] = loop(ex)
            relations, rounds = ex.memo[key]
            ex.shared.update(zip(component.tokens, relations))
            ex.rounds.update(dict.fromkeys(component.names, rounds))

        return run

    def loop(self, component: RecursiveComponent) -> Callable[[DistributedExecutor], tuple]:
        """*component*'s semi-naive loop across the machine; it returns
        each predicate's relation and the rounds taken.

        The relations it reads are materialized once, and the sites
        holding them own the rows: each row lives at the owner its
        whole-row hash names, and the seeds, split so, are the first
        deltas.  Each round runs every predicate's delta variants through
        the ordinary join and repartition steps, or :func:`_closure_round`
        when its one variant is the closure step, and each owner keeps
        the rows it has not seen: the next delta.  A round in which
        every delta is empty ends the loop.
        """
        inputs = [(token, self.node(plan)) for token, plan in component.inputs]
        seeds = [self.node(plan) for plan in component.seeds]
        names, reads = component.names, component.reads
        shapes = [_closure_step(plans) for plans in component.variants]
        variants = [
            [] if shape else list(map(self.node, plans))
            for plans, shape in zip(component.variants, shapes)
        ]
        # Each predicate's rows split on all their columns.
        keys = [tuple(range(len(plan.schema))) for plan in component.seeds]

        def run(ex) -> tuple[list[DistRelation], int]:
            for token, step in inputs:
                if token not in ex.shared:
                    ex.shared[token] = ex.flush(step(ex))
            parts = [part for token in reads for part in ex.shared[token].parts]
            sites = list({id(p.process): p.process for p in parts}.values()) or [ex.query_process]
            # The closure steps' loop-invariant sides, before any seed.
            closures = [shape and _closure_round(ex, sites, *shape) for shape in shapes]
            # Per predicate and owner: the rows held, as a set and in order.
            seen: list[list[set]] = [[set() for _ in sites] for _ in names]
            held: list[list[list]] = [[[] for _ in sites] for _ in names]
            derived = [ex.repartition(seed(ex), key, sites) for seed, key in zip(seeds, keys)]
            rounds = 0
            while True:
                for index, name in enumerate(names):
                    delta = ex.dedup_at_owners(derived[index], seen[index])
                    for total, part in zip(held[index], delta.parts):
                        total.extend(part.rows)
                    ex.deltas[name] = delta
                    totals = [Part(p.process, total) for p, total in zip(delta.parts, held[index])]
                    ex.totals[name] = DistRelation(totals, delta.partition_cols)
                del derived  # the raw derivations need not outlive the dedup
                if not any(ex.deltas[name].total_rows for name in names):
                    break
                rounds += 1
                if rounds > MAX_ITERATIONS:
                    raise ExecutionError(f"recursion over {names} did not converge")
                produced = [
                    DistRelation([p for step in steps for p in ex.flush(step(ex)).parts], None)
                    for steps in variants
                ]
                derived = [
                    closure(ex) if closure else ex.repartition(relation, key, sites)
                    for relation, closure, key in zip(produced, closures, keys)
                ]
            return [ex.totals[name] for name in names], rounds

        return run


#: A closure's input token and predicate name in its loop.
CLOSURE = "<closure>"


@cache
def closure_loop() -> Callable[[DistributedExecutor], tuple]:
    """The closure's loop, compiled once: a one-predicate component whose
    seed is the input (read as :data:`CLOSURE`) and whose one variant is
    the closure step."""
    schema = predicate_schema(CLOSURE, 2)
    delta, edges = DeltaScanNode(CLOSURE, schema), SharedScanNode(CLOSURE, schema)
    join = JoinNode(delta, edges, Comparison("=", ColumnRef(1), ColumnRef(2)))
    step = ProjectNode(join, [ColumnRef(0), ColumnRef(3)], schema.names())
    component = RecursiveComponent([CLOSURE], [CLOSURE], [CLOSURE], [], [edges], [[step]])
    return _StepCompiler({}).loop(component)


def _closure_step(plans: list[PlanNode]) -> tuple | None:
    """``(delta, edges, projection)`` when *plans* is one closure step:
    ``π(Δ.0, E.1)(Δ ⋈_{Δ.1 = E.0} E)``, Δ a binary delta and E a
    binary relation the loop reads (a variant's shared scans are)."""
    join = plans[0].child if len(plans) == 1 and isinstance(plans[0], ProjectNode) else None
    if not (
        isinstance(join, JoinNode)
        and isinstance(join.left, DeltaScanNode)
        and isinstance(join.right, SharedScanNode)
        and len(join.left.schema) == len(join.right.schema) == 2
        and join.equi_keys() == ((1,), (0,), None)
        and [e.index if type(e) is ColumnRef else None for e in plans[0].exprs] == [0, 3]
    ):
        return None
    return join.left.token, join.right.token, plans[0].exprs


def _closure_round(ex, sites: list, delta: str, edges: str, exprs) -> Step:
    """The closure step's fused round body: the edges meet on their
    source over *sites* and each site builds its table once; each round
    the delta meets them on its destination, and each site derives its
    pairs straight into the owners' buckets."""
    by_source = ex.repartition(ex.shared[edges], (0,), sites)
    tables = [hashed_edge_table(part.rows) for part in by_source.parts]
    _, weight = ex.evaluator.projector(exprs)

    def round_(ex) -> DistRelation:
        by_dst = ex.repartition(ex.deltas[delta], (1,), sites)
        return ex.join_into_owners(by_dst.parts, by_source.parts, tables, weight)

    return round_


def _partition_through(plan: ProjectNode):
    """cols -> where the projection puts partitioning columns *cols*:
    partitioning survives iff each key column passes through as a plain
    column reference (None otherwise)."""
    mapping: dict[int, int] = {}
    for position, expr in enumerate(plan.exprs):
        if isinstance(expr, ColumnRef) and expr.index not in mapping:
            mapping[expr.index] = position

    def through(cols: tuple[int, ...] | None) -> tuple[int, ...] | None:
        try:
            return None if cols is None else tuple(mapping[c] for c in cols)
        except KeyError:
            return None

    return through
