"""Single-site evaluation of logical plans.

This is the engine that runs *inside* a One-Fragment Manager: it
evaluates a plan tree against main-memory relations, running each
chain of unary operators as one generated kernel
(:mod:`repro.exec.pipeline`) and the joins through compiled keys and
predicates, and metering abstract work for the simulated clock.

The distributed executor (:mod:`repro.core.executor`) moves the rows and
calls :meth:`LocalExecutor.step` for each site-local join and set
operation: rows in, rows out.  :meth:`LocalExecutor.run` evaluates a
whole plan at one site.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.errors import ExecutionError, PlanError
from repro.exec.closure import seminaive_closure
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import Arithmetic, ColumnRef
from repro.exec.operators import (
    JoinKind,
    Row,
    WorkMeter,
    difference_rows,
    hash_join,
    hash_join_batch,
    intersect_rows,
    nested_loop_join,
    union_all_rows,
    union_rows,
)
from repro.exec.pipeline import Op, aggregate_op
from repro.storage.types import DataType
from repro.algebra.plan import (
    AggregateNode,
    ClosureNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SetOpNode,
    SharedScanNode,
    SortNode,
    TopNNode,
    ValuesNode,
)

TableResolver = Callable[[str], Sequence[Row]]


def is_int_column(arg, schema) -> bool:
    """Is *arg* a column *schema* declares INT?  Such a column holds
    nothing but ``int`` (storage refuses anything else), which lets a
    group-less SUM use the C-level ``sum`` (:mod:`repro.exec.pipeline`)."""
    return (
        isinstance(arg, ColumnRef)
        and schema.columns[arg.index].data_type is DataType.INT
    )


def _aggregate_op(node: AggregateNode) -> Op:
    schema = node.child.schema
    return aggregate_op(
        node.group_cols,
        [(a.func, a.arg, a.distinct, is_int_column(a.arg, schema)) for a in node.aggregates],
    )


_OPS: dict[type, Callable[[PlanNode], Op]] = {
    SelectNode: lambda node: ("select", node.predicate),
    ProjectNode: lambda node: ("project", node.exprs),
    AggregateNode: _aggregate_op,
    TopNNode: lambda node: ("topn", node.keys, node.limit, node.offset),
    SortNode: lambda node: ("sort", node.keys),
    LimitNode: lambda node: ("limit", node.limit, node.offset),
    DistinctNode: lambda node: ("distinct",),
}


def op_of(node: PlanNode) -> Op:
    """The pipeline op of a unary operator node (cached on the node)."""
    return node.memo("op", _OPS[type(node)])


def two_phase_ops(plan: AggregateNode) -> tuple[Op, tuple[Op, Op]]:
    """Split *plan*, an aggregation over several parts, into the partial
    op each part runs and the merge stage's two ops.

    The partial phase aggregates each part by the same groups; the merge
    phase re-aggregates the partial rows (groups first, then one column
    per partial) and projects the original outputs.  Decompositions:
    COUNT -> SUM of counts; SUM/MIN/MAX -> same; AVG ->
    SUM(sums)/SUM(counts).
    """
    n_groups = len(plan.group_cols)
    schema = plan.child.schema
    partials: list[tuple] = []
    merges: list[tuple] = []
    outputs: list = [ColumnRef(i) for i in range(n_groups)]

    def partial(func: str, arg, merge_func: str) -> ColumnRef:
        column = ColumnRef(n_groups + len(partials))
        exact = is_int_column(arg, schema)
        partials.append((func, arg, False, exact))
        # A partial is as exactly an int as what it summed; a count is one.
        merges.append((merge_func, column, False, exact or func == "count"))
        return column

    for aggregate in plan.aggregates:
        if aggregate.func == "count":
            outputs.append(partial("count", aggregate.arg, "sum"))
        elif aggregate.func in ("sum", "min", "max"):
            outputs.append(partial(aggregate.func, aggregate.arg, aggregate.func))
        elif aggregate.func == "avg":
            total = partial("sum", aggregate.arg, "sum")
            count = partial("count", aggregate.arg, "sum")
            outputs.append(Arithmetic("/", total, count))
        else:  # pragma: no cover - AggExpr validates funcs
            raise PlanError(f"cannot decompose aggregate {aggregate.func}")
    return (
        aggregate_op(plan.group_cols, partials),
        (aggregate_op(range(n_groups), merges), ("project", tuple(outputs))),
    )


class LocalExecutor:
    """Evaluates plans against in-memory relations.

    Parameters
    ----------
    tables:
        Mapping (or resolver function) from base-table name to rows.
    shared:
        Rows of materialized common subexpressions, keyed by token.
    evaluator:
        Expression back-end; a fresh :class:`Evaluator` if omitted.
    meter:
        Work counters; a fresh one is created if omitted.
    """

    def __init__(
        self,
        tables: Mapping[str, Sequence[Row]] | TableResolver | None = None,
        shared: Mapping[str, Sequence[Row]] | None = None,
        evaluator: Evaluator | None = None,
        meter: WorkMeter | None = None,
    ):
        if tables is None:
            tables = {}
        if callable(tables):
            self._resolve_table: TableResolver = tables
        else:
            mapping = dict(tables)

            def lookup(name: str, _mapping=mapping) -> Sequence[Row]:
                try:
                    return _mapping[name]
                except KeyError:
                    raise ExecutionError(f"no relation named {name!r}") from None

            self._resolve_table = lookup
        self.shared = dict(shared or {})
        self.evaluator = evaluator or Evaluator()
        self.meter = meter if meter is not None else WorkMeter()

    # -- entry point -----------------------------------------------------------

    def run(self, plan: PlanNode) -> list[Row]:
        method = getattr(self, f"_run_{type(plan).__name__}", None)
        if method is None:
            raise ExecutionError(f"no executor for {type(plan).__name__}")
        return method(plan)

    def step(self, plan: PlanNode, *inputs: Sequence[Row]) -> list[Row]:
        """The join, set operation or closure at the root of *plan*
        applied to its children's already-materialised rows."""
        return getattr(self, f"_step_{type(plan).__name__}")(plan, *inputs)

    def _run_step(self, plan: PlanNode) -> list[Row]:
        return self.step(plan, *[self.run(child) for child in plan.children])

    _run_JoinNode = _run_SetOpNode = _run_ClosureNode = _run_step

    # -- leaves ------------------------------------------------------------------

    def _run_ScanNode(self, plan: ScanNode) -> list[Row]:
        rows = list(self._resolve_table(plan.table_name))
        self.meter.tuples += len(rows)
        return rows

    def _run_ValuesNode(self, plan: ValuesNode) -> list[Row]:
        return list(plan.rows)

    def _run_SharedScanNode(self, plan: SharedScanNode) -> list[Row]:
        try:
            rows = self.shared[plan.token]
        except KeyError:
            raise ExecutionError(
                f"shared subexpression {plan.token!r} was not materialized"
            ) from None
        self.meter.tuples += len(rows)
        return list(rows)

    # -- unary ---------------------------------------------------------------------

    def _run_chain(self, plan: PlanNode) -> list[Row]:
        """A maximal run of unary operators is one generated kernel
        (a run of one is that operator's kernel), charged to the meter
        operator by operator."""
        ops = [op_of(plan)]
        node = plan.child
        while type(node) in _OPS:
            ops.append(op_of(node))
            node = node.child
        rows = self.run(node)
        pipeline = self.evaluator.pipeline((tuple(reversed(ops)),))
        return pipeline.run(rows, (self.meter,))[0]

    _run_SelectNode = _run_ProjectNode = _run_AggregateNode = _run_chain
    _run_SortNode = _run_TopNNode = _run_DistinctNode = _run_LimitNode = _run_chain

    def _step_ClosureNode(self, plan: ClosureNode, rows: Sequence[Row]) -> list[Row]:
        return list(seminaive_closure([tuple(r) for r in rows], self.meter).rows)

    # -- binary -----------------------------------------------------------------------

    def _step_JoinNode(
        self, plan: JoinNode, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[Row]:
        right_width = len(plan.right.schema)
        left_keys, right_keys, residual = plan.equi_keys()
        if left_keys and residual is None and plan.kind is JoinKind.INNER:
            kernel = self.evaluator.join_kernel(left_keys, right_keys)
            return hash_join_batch(left_rows, right_rows, kernel, self.meter)
        if left_keys:
            residual_fn = None
            if residual is not None:
                residual_fn, _ = self.evaluator.predicate(residual)
            return hash_join(
                left_rows,
                right_rows,
                self.evaluator.key(left_keys),
                self.evaluator.key(right_keys),
                self.meter,
                kind=plan.kind,
                right_width=right_width,
                residual=residual_fn,
            )
        condition_fn = None
        if plan.condition is not None:
            condition_fn, _ = self.evaluator.predicate(plan.condition)
        return nested_loop_join(
            left_rows,
            right_rows,
            condition_fn,
            self.meter,
            kind=plan.kind,
            right_width=right_width,
        )

    def _step_SetOpNode(
        self, plan: SetOpNode, left_rows: Sequence[Row], right_rows: Sequence[Row]
    ) -> list[Row]:
        if plan.op == "union":
            return union_rows(left_rows, right_rows, self.meter)
        if plan.op == "union_all":
            return union_all_rows(left_rows, right_rows, self.meter)
        if plan.op == "intersect":
            return intersect_rows(left_rows, right_rows, self.meter)
        return difference_rows(left_rows, right_rows, self.meter)
