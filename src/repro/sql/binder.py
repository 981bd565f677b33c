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
    output_names,
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
class _Grouped:
    """What an expression over an Aggregate's output may read: the bound
    GROUP BY expressions (output columns 0..G-1) and the collected
    aggregates' ``(func, arg, distinct)`` keys (columns G+i)."""

    groups: list[ex.Expr]
    aggregates: list[tuple]


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
        order_by, limit, offset = self._tail(stmt)
        keys, _ = self._order_keys(order_by, plan.schema.names(), None, None)
        return _sort_limit(plan, keys, limit, offset)

    def _bind_select(self, stmt: ast.SelectStmt) -> PlanNode:
        scope = _Scope()
        plan = self._bind_from(stmt, scope)

        if stmt.where is not None:
            predicate = self._bind_scalar(stmt.where, scope, where_clause=True)
            plan = SelectNode(plan, predicate)

        grouped = None
        if stmt.group_by or stmt.having is not None or any(
            _contains_aggregate(item.expr) for item in stmt.items
        ):
            plan, grouped = self._bind_aggregation(stmt, plan, scope)
        exprs, names = self._bind_select_items(stmt.items, scope, grouped)
        if stmt.having is not None:
            plan = SelectNode(
                plan, self._bind_scalar(stmt.having, scope, grouped=grouped)
            )

        order_by, limit, offset = self._tail(stmt)
        keys, hidden = self._order_keys(
            order_by, output_names(names), None if stmt.distinct else scope, grouped
        )
        plan = ProjectNode(
            plan,
            exprs + hidden,
            names + [f"__order{i}" for i in range(1, len(hidden) + 1)],
        )
        if stmt.distinct:
            plan = DistinctNode(plan)
        plan = _sort_limit(plan, keys, limit, offset)
        if hidden:
            # Strip the hidden sort columns after sorting.
            plan = ProjectNode(
                plan,
                [ex.ColumnRef(i, name) for i, name in enumerate(names)],
                names,
            )
        return plan

    def _order_keys(
        self,
        order_by: list[tuple[ast.SqlExpr, bool]],
        names: list[str],
        scope: _Scope | None,
        grouped: _Grouped | None,
    ) -> tuple[list[tuple[int, bool]], list[ex.Expr]]:
        """The one ORDER BY rule, for every query shape.

        A target is a 1-based position when it is an integer literal,
        the output column when it is an unqualified name among the
        output *names*, and otherwise a hidden sort column after the
        output ones, bound like a select item (over *scope*, or over its
        Aggregate given *grouped*).  Without a *scope* (DISTINCT, set
        operations) a hidden target is refused; so is a literal that is
        no integer.  Returns ``(sort keys, hidden columns)``.
        """
        keys: list[tuple[int, bool]] = []
        hidden: list[ex.Expr] = []
        for expr, descending in order_by:
            if isinstance(expr, ast.Lit):
                if not isinstance(expr.value, int):
                    raise BindError(
                        f"ORDER BY {expr.value!r}: a literal target must be"
                        " a 1-based position"
                    )
                if not 1 <= expr.value <= len(names):
                    raise BindError(
                        f"ORDER BY position {expr.value} out of range"
                        f" 1..{len(names)}"
                    )
                position = expr.value - 1
            elif (
                isinstance(expr, ast.Name)
                and expr.qualifier is None
                and expr.column in names
            ):
                position = names.index(expr.column)
            elif scope is None:
                raise BindError(
                    "ORDER BY under DISTINCT or a set operation takes output"
                    " column names or 1-based positions only"
                )
            else:
                hidden.append(self._bind_scalar(expr, scope, grouped=grouped))
                position = len(names) + len(hidden) - 1
            keys.append((position, descending))
        return keys, hidden

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
        self,
        expr: ast.SqlExpr,
        scope: _Scope,
        where_clause: bool = False,
        grouped: _Grouped | None = None,
    ) -> ex.Expr:
        """Bind *expr* over *scope*'s row — or, given *grouped*, over the
        output of its Aggregate, where a column may only be read through
        a group expression or inside an aggregate."""
        if grouped is not None:
            slot = self._group_slot(expr, scope, grouped)
            if slot is not None:
                return slot
            if isinstance(expr, ast.Name):
                raise BindError(
                    f"column {expr.display()!r} must appear in GROUP BY"
                    " or inside an aggregate"
                )

        def bind(child: ast.SqlExpr) -> ex.Expr:
            return self._bind_scalar(child, scope, where_clause, grouped)

        if isinstance(expr, ast.Lit):
            return ex.Literal(expr.value)
        if isinstance(expr, ast.Param):
            return ex.Param(expr.index, ex.param_type(self._param_value(expr)))
        if isinstance(expr, ast.Name):
            index, _, display = scope.resolve(expr)
            return ex.ColumnRef(index, display)
        if isinstance(expr, ast.Bin):
            left = bind(expr.left)
            right = bind(expr.right)
            if expr.op in ("and", "or"):
                return ex.BoolOp(expr.op, (left, right))
            if expr.op in ex.COMPARISON_OPS:
                return ex.Comparison(expr.op, left, right)
            return ex.Arithmetic(expr.op, left, right)
        if isinstance(expr, ast.Un):
            operand = bind(expr.operand)
            if expr.op == "not":
                return ex.Not(operand)
            return ex.Negate(operand)
        if isinstance(expr, ast.Func):
            return ex.FunctionCall(expr.name, tuple(bind(a) for a in expr.args))
        if isinstance(expr, ast.IsNullExpr):
            return ex.IsNull(bind(expr.operand), expr.negated)
        if isinstance(expr, ast.InExpr):
            bound = ex.InList(bind(expr.operand), self._in_values(expr))
            return ex.Not(bound) if expr.negated else bound
        if isinstance(expr, ast.LikeExpr):
            return ex.Like(bind(expr.operand), self._like_pattern(expr), expr.negated)
        if isinstance(expr, ast.BetweenExpr):
            operand = bind(expr.operand)
            low = bind(expr.low)
            high = bind(expr.high)
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

    # -- select list ---------------------------------------------------------------------------

    def _bind_select_items(
        self, items: list[ast.SelectItem], scope: _Scope, grouped: _Grouped | None
    ) -> tuple[list[ex.Expr], list[str]]:
        exprs: list[ex.Expr] = []
        names: list[str] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for index, name in scope.star_columns(item.expr.qualifier):
                    exprs.append(ex.ColumnRef(index, name))
                    names.append(name)
                continue
            exprs.append(self._bind_scalar(item.expr, scope, grouped=grouped))
            names.append(item.alias or _derive_name(item.expr, len(names)))
        return exprs, names

    # -- aggregation ---------------------------------------------------------------------------

    def _bind_aggregation(
        self, stmt: ast.SelectStmt, plan: PlanNode, scope: _Scope
    ) -> tuple[PlanNode, _Grouped]:
        """The Aggregate over *plan*, and the context that binds the
        select items, HAVING and ORDER BY over its output."""
        # 1. Bind GROUP BY expressions against the scope.
        group_bound = [self._bind_scalar(g, scope) for g in stmt.group_by]
        # 2. Collect aggregate calls from select items, HAVING and
        #    ORDER BY, deduplicated by bound identity.
        agg_calls: list[ast.AggCall] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                raise BindError("'*' cannot appear with GROUP BY / aggregates")
            _collect_aggregates(item.expr, agg_calls)
        if stmt.having is not None:
            _collect_aggregates(stmt.having, agg_calls)
        for expr, _ in stmt.order_by:
            _collect_aggregates(expr, agg_calls)
        agg_keys: list[tuple] = []
        for call in agg_calls:
            key = self._agg_key(call, scope)
            if key not in agg_keys:
                agg_keys.append(key)

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
        if len(pre_exprs) > len(plan.schema):
            plan = ProjectNode(plan, pre_exprs, pre_names)
        aggregates = [AggExpr(*key) for key in agg_keys]
        return AggregateNode(plan, group_cols, aggregates), _Grouped(group_bound, agg_keys)

    def _agg_key(self, call: ast.AggCall, scope: _Scope) -> tuple:
        arg = self._bind_scalar(call.arg, scope) if call.arg is not None else None
        return (call.func, arg, call.distinct)

    def _group_slot(
        self, expr: ast.SqlExpr, scope: _Scope, grouped: _Grouped
    ) -> ex.ColumnRef | None:
        """The Aggregate output column *expr* is, if any: a group
        expression's slot (0..G-1) or an aggregate's (G+i)."""
        if isinstance(expr, ast.AggCall):
            position = grouped.aggregates.index(self._agg_key(expr, scope))
            return ex.ColumnRef(len(grouped.groups) + position, expr.func)
        if _contains_aggregate(expr):
            return None
        try:
            bound = self._bind_scalar(expr, scope)
        except BindError:
            return None
        if bound not in grouped.groups:
            return None
        position = grouped.groups.index(bound)
        return ex.ColumnRef(position, _derive_name(expr, position))

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


def _sort_limit(
    plan: PlanNode, keys: list[tuple[int, bool]], limit: int | None, offset: int
) -> PlanNode:
    if keys:
        plan = SortNode(plan, keys)
    if limit is not None or offset:
        plan = LimitNode(plan, limit, offset)
    return plan


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
