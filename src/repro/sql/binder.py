"""Name resolution: parsed SQL -> index-based logical algebra.

The binder resolves table/column names against the data dictionary,
type-checks literals, expands ``*``, rewrites aggregate queries into
``Project(Aggregate(child))`` form, and emits the
:mod:`repro.algebra` plan (for queries) or bound DML commands (for
updates), which the Global Data Handler executes transactionally.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BindError, ExpressionError, ParseError
from repro.exec import expressions as ex
from repro.exec.interpreter import evaluate
from repro.exec.operators import JoinKind
from repro.algebra.plan import (
    AggExpr,
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
    SortNode,
    ValuesNode,
)
from repro.sql import ast
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType


# ---------------------------------------------------------------------------
# Bound DML commands (consumed by the GDH).
# ---------------------------------------------------------------------------


# Bound from a statement template these keep ``Param`` leaves where the
# ``?`` stood; the GDH's dispatch plan (:mod:`repro.core.dispatch`)
# fills them in per execution.


@dataclass
class BoundInsert:
    table: str
    schema: Schema
    #: Validated rows — except that a row with a cell depending on a
    #: parameter keeps that cell as an expression, unvalidated, until
    #: the execution that supplies the value (no storable value is an
    #: ``Expr``).
    rows: list[tuple]


@dataclass
class BoundUpdate:
    table: str
    assignments: list[tuple[int, ex.Expr]]
    predicate: ex.Expr | None


@dataclass
class BoundDelete:
    table: str
    predicate: ex.Expr | None


def insert_constant(bound: ex.Expr):
    """The value of a constant INSERT cell (BindError when it has none)."""
    try:
        return evaluate(bound, ())
    except ExpressionError as exc:
        raise BindError(f"bad constant in INSERT: {exc}") from None


# ---------------------------------------------------------------------------
# Scopes.
# ---------------------------------------------------------------------------


@dataclass
class _ScopeEntry:
    binding_name: str
    schema: Schema
    offset: int


@dataclass
class _Scope:
    entries: list[_ScopeEntry] = field(default_factory=list)

    def add(self, binding_name: str, schema: Schema) -> None:
        lowered = binding_name.lower()
        if any(e.binding_name == lowered for e in self.entries):
            raise BindError(f"duplicate table alias {binding_name!r} in FROM")
        self.entries.append(_ScopeEntry(lowered, schema, self.width))

    @property
    def width(self) -> int:
        return sum(len(e.schema) for e in self.entries)

    def resolve(self, name: ast.Name) -> tuple[int, DataType, str]:
        """Resolve to (global index, type, display name)."""
        matches: list[tuple[int, DataType]] = []
        for entry in self.entries:
            if name.qualifier is not None and entry.binding_name != name.qualifier.lower():
                continue
            if entry.schema.has_column(name.column):
                position = entry.schema.index_of(name.column)
                matches.append(
                    (entry.offset + position, entry.schema.columns[position].data_type)
                )
        if not matches:
            raise BindError(f"unknown column {name.display()!r}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column {name.display()!r}; qualify it")
        index, data_type = matches[0]
        return index, data_type, name.column

    def star_columns(self, qualifier: str | None) -> list[tuple[int, str]]:
        """(global index, column name) pairs for ``*`` / ``alias.*``."""
        result: list[tuple[int, str]] = []
        for entry in self.entries:
            if qualifier is not None and entry.binding_name != qualifier.lower():
                continue
            for position, column in enumerate(entry.schema.columns):
                result.append((entry.offset + position, column.name))
        if qualifier is not None and not result:
            raise BindError(f"unknown table alias {qualifier!r} in select list")
        if not result:
            raise BindError("SELECT * without a FROM clause")
        return result


# ---------------------------------------------------------------------------
# The binder.
# ---------------------------------------------------------------------------


class Binder:
    """Binds statements against a name -> Schema catalog view.

    *params* are the values of the statement's ``?`` placeholders.  A
    placeholder in expression position binds to a typed, valueless
    ``Param`` leaf, so the result serves every execution with
    parameters of these types; only the ones the parser marked
    ``by_value`` (LIMIT/OFFSET counts, ORDER BY positions) are read.
    """

    def __init__(self, catalog: Mapping[str, Schema], params: Sequence[Any] = ()):
        self._catalog = catalog
        self._params = params

    def _param_value(self, param: ast.Param) -> Any:
        try:
            return self._params[param.index]
        except IndexError:
            raise ParseError(
                f"placeholder {param.index + 1} has no bound parameter"
                f" ({len(self._params)} bound)"
            ) from None

    def _count(self, node: int | ast.Param | None, what: str) -> int | None:
        """A LIMIT/OFFSET count: the literal, or a placeholder's value
        held to what the grammar asks of the literal."""
        if not isinstance(node, ast.Param):
            return node
        value = self._param_value(node)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"expected {what} (found {value!r})")
        return value

    def _tail(self, stmt: ast.SelectStmt | ast.SetOpStmt):
        """ORDER BY / LIMIT / OFFSET with by-value placeholders resolved."""
        order_by = [
            (ast.Lit(self._param_value(expr)), descending)
            if isinstance(expr, ast.Param)
            else (expr, descending)
            for expr, descending in stmt.order_by
        ]
        limit = self._count(stmt.limit, "LIMIT count")
        offset = self._count(stmt.offset, "OFFSET count")
        return order_by, limit, offset

    def table_schema(self, name: str) -> Schema:
        schema = self._catalog.get(name.lower())
        if schema is None:
            raise BindError(f"unknown table {name!r}")
        return schema

    # -- queries -----------------------------------------------------------------

    def bind_query(self, stmt: ast.Statement) -> PlanNode:
        if isinstance(stmt, ast.SelectStmt):
            return self._bind_select(stmt)
        if isinstance(stmt, ast.SetOpStmt):
            return self._bind_setop(stmt)
        raise BindError(f"not a query statement: {type(stmt).__name__}")

    def _bind_setop(self, stmt: ast.SetOpStmt) -> PlanNode:
        left = self.bind_query(_strip_tail(stmt.left))
        right = self.bind_query(_strip_tail(stmt.right))
        if len(left.schema) != len(right.schema):
            raise BindError(
                f"{stmt.op.upper()}: sides have {len(left.schema)} and"
                f" {len(right.schema)} columns"
            )
        plan: PlanNode = SetOpNode(stmt.op, left, right)
        return self._apply_order_limit(plan, *self._tail(stmt))

    def _bind_select(self, stmt: ast.SelectStmt) -> PlanNode:
        scope = _Scope()
        plan = self._bind_from(stmt, scope)

        if stmt.where is not None:
            predicate = self._bind_scalar(stmt.where, scope, where_clause=True)
            plan = SelectNode(plan, predicate)

        has_aggregates = bool(stmt.group_by) or any(
            _contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None)

        if has_aggregates:
            plan, output_exprs, output_names, having = self._bind_aggregation(
                stmt, plan, scope
            )
            if having is not None:
                plan = SelectNode(plan, having)
            plan = ProjectNode(plan, output_exprs, output_names)
        else:
            exprs, names = self._bind_select_items(stmt.items, scope)
            if stmt.order_by and not stmt.distinct:
                # ORDER BY may reference scope columns that are not in the
                # select list; carry them as hidden sort columns and strip
                # them after sorting.
                return self._select_with_hidden_order(
                    plan, scope, exprs, names, *self._tail(stmt)
                )
            plan = ProjectNode(plan, exprs, names)

        if stmt.distinct:
            plan = DistinctNode(plan)
        return self._apply_order_limit(plan, *self._tail(stmt))

    def _select_with_hidden_order(
        self, plan: PlanNode, scope: _Scope, exprs, names, order_by, limit, offset
    ) -> PlanNode:
        visible = len(exprs)
        sort_keys: list[tuple[int, bool]] = []
        for order_expr, descending in order_by:
            position = self._visible_position(order_expr, names, visible)
            if position is None:
                bound = self._bind_scalar(order_expr, scope)
                exprs.append(bound)
                names.append(f"__order{len(exprs) - visible}")
                position = len(exprs) - 1
            sort_keys.append((position, descending))
        plan = ProjectNode(plan, exprs, names)
        plan = SortNode(plan, sort_keys)
        if limit is not None or offset:
            plan = LimitNode(plan, limit, offset)
        if len(exprs) > visible:
            plan = ProjectNode(
                plan,
                [ex.ColumnRef(i, names[i]) for i in range(visible)],
                names[:visible],
            )
        return plan

    def _visible_position(
        self, expr: ast.SqlExpr, names: list[str], visible: int
    ) -> int | None:
        """Resolve an ORDER BY target within the visible select list."""
        if isinstance(expr, ast.Lit) and isinstance(expr.value, int):
            if not 1 <= expr.value <= visible:
                raise BindError(
                    f"ORDER BY position {expr.value} out of range 1..{visible}"
                )
            return expr.value - 1
        if isinstance(expr, ast.Name) and expr.qualifier is None:
            if expr.column in names[:visible]:
                return names.index(expr.column)
        return None

    # -- FROM --------------------------------------------------------------------------

    def _bind_from(self, stmt: ast.SelectStmt, scope: _Scope) -> PlanNode:
        if not stmt.from_items:
            if stmt.joins:
                raise BindError("JOIN without a FROM item")
            return ValuesNode(Schema([Column("__dummy", DataType.INT)]), [(0,)])
        plan = self._bind_from_item(stmt.from_items[0], scope)
        for item in stmt.from_items[1:]:
            right = self._bind_from_item(item, scope)
            plan = JoinNode(plan, right, None, JoinKind.INNER)
        for join in stmt.joins:
            right = self._bind_from_item(join.item, scope)
            condition = None
            if join.condition is not None:
                condition = self._bind_scalar(join.condition, scope, where_clause=True)
            kind = JoinKind.LEFT_OUTER if join.kind == "left" else JoinKind.INNER
            plan = JoinNode(plan, right, condition, kind)
        return plan

    def _bind_from_item(self, item: ast.FromItem, scope: _Scope) -> PlanNode:
        if isinstance(item, ast.ClosureRef):
            schema = self.table_schema(item.name)
            if len(schema) != 2:
                raise BindError(
                    f"CLOSURE({item.name}) needs a binary relation,"
                    f" got {len(schema)} columns"
                )
            scope.add(item.binding_name, schema)
            return ClosureNode(ScanNode(item.name.lower(), schema))
        assert isinstance(item, ast.TableRef)
        schema = self.table_schema(item.name)
        scope.add(item.binding_name, schema)
        return ScanNode(item.name.lower(), schema)

    # -- scalar expression binding -------------------------------------------------------

    def _bind_scalar(
        self, expr: ast.SqlExpr, scope: _Scope, where_clause: bool = False
    ) -> ex.Expr:
        if isinstance(expr, ast.Lit):
            return ex.Literal(expr.value)
        if isinstance(expr, ast.Param):
            return ex.Param(expr.index, ex.param_type(self._param_value(expr)))
        if isinstance(expr, ast.Name):
            index, _, display = scope.resolve(expr)
            return ex.ColumnRef(index, display)
        if isinstance(expr, ast.Bin):
            left = self._bind_scalar(expr.left, scope, where_clause)
            right = self._bind_scalar(expr.right, scope, where_clause)
            if expr.op in ("and", "or"):
                return ex.BoolOp(expr.op, (left, right))
            if expr.op in ex.COMPARISON_OPS:
                return ex.Comparison(expr.op, left, right)
            return ex.Arithmetic(expr.op, left, right)
        if isinstance(expr, ast.Un):
            operand = self._bind_scalar(expr.operand, scope, where_clause)
            if expr.op == "not":
                return ex.Not(operand)
            return ex.Negate(operand)
        if isinstance(expr, ast.Func):
            args = tuple(self._bind_scalar(a, scope, where_clause) for a in expr.args)
            return ex.FunctionCall(expr.name, args)
        if isinstance(expr, ast.IsNullExpr):
            return ex.IsNull(self._bind_scalar(expr.operand, scope, where_clause), expr.negated)
        if isinstance(expr, ast.InExpr):
            bound = ex.InList(
                self._bind_scalar(expr.operand, scope, where_clause),
                self._in_values(expr),
            )
            return ex.Not(bound) if expr.negated else bound
        if isinstance(expr, ast.LikeExpr):
            return ex.Like(
                self._bind_scalar(expr.operand, scope, where_clause),
                self._like_pattern(expr),
                expr.negated,
            )
        if isinstance(expr, ast.BetweenExpr):
            operand = self._bind_scalar(expr.operand, scope, where_clause)
            low = self._bind_scalar(expr.low, scope, where_clause)
            high = self._bind_scalar(expr.high, scope, where_clause)
            between = ex.and_(
                ex.Comparison(">=", operand, low), ex.Comparison("<=", operand, high)
            )
            return ex.Not(between) if expr.negated else between
        if isinstance(expr, ast.AggCall):
            if where_clause:
                raise BindError("aggregates are not allowed in WHERE")
            raise BindError(
                f"aggregate {expr.func.upper()}() needs GROUP BY context"
            )
        if isinstance(expr, ast.Star):
            raise BindError("'*' is only valid as a whole select item")
        raise BindError(f"cannot bind expression node {type(expr).__name__}")

    def _in_values(self, expr: ast.InExpr) -> tuple:
        scope = _Scope()
        return tuple(
            self._bind_scalar(value, scope) if isinstance(value, ast.Param) else value
            for value in expr.values
        )

    def _like_pattern(self, expr: ast.LikeExpr) -> str | ex.Param:
        if not isinstance(expr.pattern, ast.Param):
            return expr.pattern
        # What the parser says of a literal that is not a string.
        if not isinstance(self._param_value(expr.pattern), str):
            raise ParseError("LIKE expects a string pattern")
        return self._bind_scalar(expr.pattern, _Scope())

    # -- plain select list ------------------------------------------------------------------

    def _bind_select_items(
        self, items: list[ast.SelectItem], scope: _Scope
    ) -> tuple[list[ex.Expr], list[str]]:
        exprs: list[ex.Expr] = []
        names: list[str] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for index, name in scope.star_columns(item.expr.qualifier):
                    exprs.append(ex.ColumnRef(index, name))
                    names.append(name)
                continue
            bound = self._bind_scalar(item.expr, scope)
            exprs.append(bound)
            names.append(item.alias or _derive_name(item.expr, len(names)))
        return exprs, names

    # -- aggregation ---------------------------------------------------------------------------

    def _bind_aggregation(
        self, stmt: ast.SelectStmt, plan: PlanNode, scope: _Scope
    ):
        """Rewrite into Aggregate + post-projection.

        Returns ``(aggregate_plan, post_exprs, post_names, having)``.
        """
        # 1. Bind GROUP BY expressions against the scope.
        group_bound: list[ex.Expr] = [
            self._bind_scalar(g, scope) for g in stmt.group_by
        ]
        # 2. Collect aggregate calls from select items and HAVING.
        agg_calls: list[ast.AggCall] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                raise BindError("'*' cannot appear with GROUP BY / aggregates")
            _collect_aggregates(item.expr, agg_calls)
        if stmt.having is not None:
            _collect_aggregates(stmt.having, agg_calls)
        # Deduplicate by bound identity.
        bound_aggs: list[tuple[tuple, AggExpr]] = []
        for call in agg_calls:
            arg = self._bind_scalar(call.arg, scope) if call.arg is not None else None
            key = (call.func, arg, call.distinct)
            if not any(existing == key for existing, _ in bound_aggs):
                bound_aggs.append((key, AggExpr(call.func, arg, call.distinct)))

        # 3. Group columns must be plain columns of the child; wrap others
        #    in a pre-projection.
        pre_exprs = [ex.ColumnRef(i) for i in range(len(plan.schema))]
        pre_names = list(plan.schema.names())
        group_cols: list[int] = []
        for bound in group_bound:
            if isinstance(bound, ex.ColumnRef):
                group_cols.append(bound.index)
            else:
                pre_exprs.append(bound)
                pre_names.append(f"__group{len(group_cols)}")
                group_cols.append(len(pre_exprs) - 1)
        aggregates = [agg for _, agg in bound_aggs]
        if len(pre_exprs) > len(plan.schema):
            plan = ProjectNode(plan, pre_exprs, pre_names)
        aggregate_plan = AggregateNode(plan, group_cols, aggregates)

        # 4. Rewrite select items (and HAVING) over the aggregate output:
        #    group expressions map to positions 0..G-1, aggregates to G+i.
        env = _PostAggEnv(
            group_bound=group_bound,
            group_cols=group_cols,
            agg_keys=[key for key, _ in bound_aggs],
            scope=scope,
            binder=self,
        )
        post_exprs: list[ex.Expr] = []
        post_names: list[str] = []
        for item in stmt.items:
            post_exprs.append(env.rewrite(item.expr))
            post_names.append(item.alias or _derive_name(item.expr, len(post_names)))
        having = env.rewrite(stmt.having) if stmt.having is not None else None
        return aggregate_plan, post_exprs, post_names, having

    # -- ORDER BY / LIMIT ------------------------------------------------------------------------

    def _apply_order_limit(
        self,
        plan: PlanNode,
        order_by: list[tuple[ast.SqlExpr, bool]],
        limit: int | None,
        offset: int,
    ) -> PlanNode:
        if order_by:
            keys: list[tuple[int, bool]] = []
            for expr, descending in order_by:
                keys.append((self._output_position(expr, plan.schema), descending))
            plan = SortNode(plan, keys)
        if limit is not None or offset:
            plan = LimitNode(plan, limit, offset)
        return plan

    def _output_position(self, expr: ast.SqlExpr, schema: Schema) -> int:
        """ORDER BY targets: an output column name or a 1-based position."""
        if isinstance(expr, ast.Lit) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(schema):
                raise BindError(
                    f"ORDER BY position {expr.value} out of range 1..{len(schema)}"
                )
            return expr.value - 1
        if isinstance(expr, ast.Name) and expr.qualifier is None:
            if schema.has_column(expr.column):
                return schema.index_of(expr.column)
            raise BindError(
                f"ORDER BY column {expr.column!r} is not in the select list"
            )
        raise BindError(
            "ORDER BY supports output column names or 1-based positions"
        )

    # -- DML --------------------------------------------------------------------------------------

    def bind_insert(self, stmt: ast.InsertStmt) -> BoundInsert:
        schema = self.table_schema(stmt.table)
        if stmt.columns is not None:
            positions = []
            for column in stmt.columns:
                positions.append(schema.index_of(column))
            if len(set(positions)) != len(positions):
                raise BindError("duplicate column in INSERT column list")
        else:
            positions = list(range(len(schema)))
        rows: list[tuple] = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(positions):
                raise BindError(
                    f"INSERT row has {len(row_exprs)} values,"
                    f" expected {len(positions)}"
                )
            full: list = [None] * len(schema)
            for position, value_expr in zip(positions, row_exprs):
                full[position] = self._constant(value_expr)
            row = tuple(full)
            if not any(isinstance(cell, ex.Expr) for cell in row):
                row = schema.validate_row(row)
            rows.append(row)
        return BoundInsert(stmt.table.lower(), schema, rows)

    def _constant(self, expr: ast.SqlExpr):
        """An INSERT cell: its value, or — when that depends on a
        parameter — the bound expression, filled in per execution."""
        scope = _Scope()
        try:
            bound = self._bind_scalar(expr, scope)
        except BindError:
            raise BindError("INSERT values must be constants") from None
        return bound if ex.has_params(bound) else insert_constant(bound)

    def bind_update(self, stmt: ast.UpdateStmt) -> BoundUpdate:
        schema = self.table_schema(stmt.table)
        scope = _Scope()
        scope.add(stmt.table, schema)
        assignments: list[tuple[int, ex.Expr]] = []
        seen: set[int] = set()
        for column, value_expr in stmt.assignments:
            index = schema.index_of(column)
            if index in seen:
                raise BindError(f"column {column!r} assigned twice")
            seen.add(index)
            assignments.append((index, self._bind_scalar(value_expr, scope)))
        predicate = (
            self._bind_scalar(stmt.where, scope, where_clause=True)
            if stmt.where is not None
            else None
        )
        return BoundUpdate(stmt.table.lower(), assignments, predicate)

    def bind_delete(self, stmt: ast.DeleteStmt) -> BoundDelete:
        schema = self.table_schema(stmt.table)
        scope = _Scope()
        scope.add(stmt.table, schema)
        predicate = (
            self._bind_scalar(stmt.where, scope, where_clause=True)
            if stmt.where is not None
            else None
        )
        return BoundDelete(stmt.table.lower(), predicate)


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _strip_tail(stmt: ast.Statement) -> ast.Statement:
    """Nested set-operation sides must not carry ORDER BY/LIMIT."""
    if isinstance(stmt, (ast.SelectStmt, ast.SetOpStmt)):
        if stmt.order_by or stmt.limit is not None or stmt.offset:
            raise BindError(
                "ORDER BY/LIMIT inside a set-operation branch is not supported"
            )
    return stmt


def _contains_aggregate(expr: ast.SqlExpr) -> bool:
    if isinstance(expr, ast.AggCall):
        return True
    for child in _sql_children(expr):
        if _contains_aggregate(child):
            return True
    return False


def _collect_aggregates(expr: ast.SqlExpr, out: list[ast.AggCall]) -> None:
    if isinstance(expr, ast.AggCall):
        if expr.arg is not None and _contains_aggregate(expr.arg):
            raise BindError("aggregates cannot be nested")
        out.append(expr)
        return
    for child in _sql_children(expr):
        _collect_aggregates(child, out)


def _sql_children(expr: ast.SqlExpr) -> tuple[ast.SqlExpr, ...]:
    if isinstance(expr, ast.Bin):
        return (expr.left, expr.right)
    if isinstance(expr, ast.Un):
        return (expr.operand,)
    if isinstance(expr, ast.Func):
        return expr.args
    if isinstance(expr, (ast.IsNullExpr, ast.InExpr, ast.LikeExpr)):
        return (expr.operand,)
    if isinstance(expr, ast.BetweenExpr):
        return (expr.operand, expr.low, expr.high)
    return ()


def _derive_name(expr: ast.SqlExpr, position: int) -> str:
    if isinstance(expr, ast.Name):
        return expr.column
    if isinstance(expr, ast.AggCall):
        return expr.func
    if isinstance(expr, ast.Func):
        return expr.name
    return f"col{position}"


@dataclass
class _PostAggEnv:
    """Rewrites select-item/HAVING expressions over the aggregate output."""

    group_bound: list[ex.Expr]
    group_cols: list[int]
    agg_keys: list[tuple]
    scope: _Scope
    binder: Binder

    def rewrite(self, expr: ast.SqlExpr) -> ex.Expr:
        # A select item that *is* a group-by expression maps to its slot.
        bound_try = self._try_bind(expr)
        if bound_try is not None:
            for position, group_expr in enumerate(self.group_bound):
                if bound_try == group_expr:
                    return ex.ColumnRef(position, _derive_name(expr, position))
        if isinstance(expr, ast.AggCall):
            arg = (
                self.binder._bind_scalar(expr.arg, self.scope)
                if expr.arg is not None
                else None
            )
            key = (expr.func, arg, expr.distinct)
            try:
                agg_index = self.agg_keys.index(key)
            except ValueError:  # pragma: no cover - collected earlier
                raise BindError("aggregate not collected") from None
            return ex.ColumnRef(
                len(self.group_cols) + agg_index, expr.func
            )
        if isinstance(expr, (ast.Lit, ast.Param)):
            return self.binder._bind_scalar(expr, self.scope)
        if isinstance(expr, ast.Name):
            raise BindError(
                f"column {expr.display()!r} must appear in GROUP BY"
                " or inside an aggregate"
            )
        if isinstance(expr, ast.Bin):
            left = self.rewrite(expr.left)
            right = self.rewrite(expr.right)
            if expr.op in ("and", "or"):
                return ex.BoolOp(expr.op, (left, right))
            if expr.op in ex.COMPARISON_OPS:
                return ex.Comparison(expr.op, left, right)
            return ex.Arithmetic(expr.op, left, right)
        if isinstance(expr, ast.Un):
            operand = self.rewrite(expr.operand)
            return ex.Not(operand) if expr.op == "not" else ex.Negate(operand)
        if isinstance(expr, ast.Func):
            return ex.FunctionCall(
                expr.name, tuple(self.rewrite(a) for a in expr.args)
            )
        if isinstance(expr, ast.IsNullExpr):
            return ex.IsNull(self.rewrite(expr.operand), expr.negated)
        if isinstance(expr, ast.InExpr):
            bound = ex.InList(
                self.rewrite(expr.operand), self.binder._in_values(expr)
            )
            return ex.Not(bound) if expr.negated else bound
        if isinstance(expr, ast.LikeExpr):
            return ex.Like(
                self.rewrite(expr.operand),
                self.binder._like_pattern(expr),
                expr.negated,
            )
        if isinstance(expr, ast.BetweenExpr):
            operand = self.rewrite(expr.operand)
            between = ex.and_(
                ex.Comparison(">=", operand, self.rewrite(expr.low)),
                ex.Comparison("<=", operand, self.rewrite(expr.high)),
            )
            return ex.Not(between) if expr.negated else between
        raise BindError(
            f"cannot use {type(expr).__name__} with GROUP BY / aggregates"
        )

    def _try_bind(self, expr: ast.SqlExpr) -> ex.Expr | None:
        if _contains_aggregate(expr):
            return None
        try:
            return self.binder._bind_scalar(expr, self.scope)
        except BindError:
            return None
