"""Logical relational-algebra plans.

PRISMAlog semantics are "defined in terms of extensions of the
relational algebra" (Section 2.3) and SQL compiles to the same algebra,
so this tree is the meeting point of both front-ends.  The one
extension beyond the classical operators is :class:`ClosureNode`, the
OFM's transitive-closure operator (Section 2.5) and the algebra's only
recursive node.  Any other PRISMAlog recursion is a semi-naive loop
over plain rule plans, whose :class:`DeltaScanNode` /
:class:`TotalScanNode` leaves read what the loop has derived so far.

Plan nodes are immutable; rewrite rules build new trees via
:meth:`PlanNode.with_children`.  Structural identity (``key()``) powers
the optimizer's common-subexpression detection (Section 2.4).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import PlanError
from repro.exec.expressions import (
    Expr,
    columns_used,
    default_name,
    infer_result_type,
    substitute_params,
    validate_against,
)
from repro.exec.operators import AGGREGATE_FUNCTIONS, JoinKind
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType


class PlanNode:
    """Base class: a logical operator with a derived output schema."""

    def __init__(self, children: Sequence["PlanNode"]):
        self.children: tuple[PlanNode, ...] = tuple(children)
        self.schema: Schema = self._derive_schema()

    # -- to be provided by subclasses ---------------------------------------

    def _derive_schema(self) -> Schema:
        raise NotImplementedError

    def _key_payload(self) -> tuple:
        """Node-local identity (operator parameters, not children)."""
        raise NotImplementedError

    def copy_with(self, children: Sequence["PlanNode"]) -> "PlanNode":
        raise NotImplementedError

    def label(self) -> str:
        """One-line description used by EXPLAIN output."""
        return type(self).__name__.removesuffix("Node")

    # -- shared machinery -----------------------------------------------------

    def key(self) -> tuple:
        # Memoized: nodes are immutable and the optimizer recomputes
        # structural keys recursively on every rewrite pass, so the
        # O(subtree) walk is paid once per node.
        cached = self.__dict__.get("_cached_key")
        if cached is None:
            cached = (
                type(self).__name__,
                self._key_payload(),
                tuple(child.key() for child in self.children),
            )
            self.__dict__["_cached_key"] = cached
        return cached

    def memo(self, name: str, build):
        """``build(self)``, computed once per node (nodes are immutable
        and a cached plan is executed many times)."""
        slot = f"_memo_{name}"
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = build(self)
            return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanNode) and self.key() == other.key()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash(self.key())
            self.__dict__["_cached_hash"] = cached
        return cached

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        if len(children) != len(self.children):
            raise PlanError(
                f"{type(self).__name__} expects {len(self.children)} children"
            )
        if all(new is old for new, old in zip(children, self.children)):
            return self
        return self.copy_with(children)

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def walk(self):
        """Preorder traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label()} -> {self.schema.names()}>"


# ---------------------------------------------------------------------------
# Leaves.
# ---------------------------------------------------------------------------


class ScanNode(PlanNode):
    """Scan of a named base relation (fragmentation resolved later)."""

    def __init__(self, table_name: str, schema: Schema):
        self.table_name = table_name
        self._schema = schema
        super().__init__(())

    def _derive_schema(self) -> Schema:
        return self._schema

    def _key_payload(self) -> tuple:
        return (
            self.table_name,
            tuple(self._schema.names()),
            tuple(self._schema.types()),
        )

    def copy_with(self, children):
        return self

    def label(self) -> str:
        return f"Scan({self.table_name})"


class ValuesNode(PlanNode):
    """A literal relation (INSERT ... VALUES, constant folding results)."""

    def __init__(self, schema: Schema, rows: Sequence[tuple]):
        self._schema = schema
        self.rows: tuple[tuple, ...] = tuple(tuple(row) for row in rows)  # prismalint: disable=PL101 -- plan-time validation of a literal relation, like constant folding; its rows are charged by the operator that consumes them (LocalExecutor._run_chain)
        super().__init__(())
        for row in self.rows:  # prismalint: disable=PL101 -- as above
            schema.validate_row(row)

    def _derive_schema(self) -> Schema:
        return self._schema

    def _key_payload(self) -> tuple:
        return (tuple(self._schema.names()), self.rows)

    def copy_with(self, children):
        return self

    def label(self) -> str:
        return f"Values({len(self.rows)} rows)"


class SharedScanNode(PlanNode):
    """Scan of a materialized common subexpression (Section 2.4 CSE).

    The optimizer replaces repeated subtrees with this node; the
    executor materializes the shared plan once into a transient OFM and
    scans it from every consumer.
    """

    def __init__(self, token: str, schema: Schema):
        self.token = token
        self._schema = schema
        super().__init__(())

    def _derive_schema(self) -> Schema:
        return self._schema

    def _key_payload(self) -> tuple:
        return (self.token,)

    def copy_with(self, children):
        return self

    def label(self) -> str:
        return f"SharedScan({self.token})"


class DeltaScanNode(PlanNode):
    """In a semi-naive rule variant: the predicate's newest delta."""

    def __init__(self, token: str, schema: Schema):
        self.token = token
        self._schema = schema
        super().__init__(())

    def _derive_schema(self) -> Schema:
        return self._schema

    def _key_payload(self) -> tuple:
        return (self.token,)

    def copy_with(self, children):
        return self

    def label(self) -> str:
        return f"DeltaScan({self.token})"


class TotalScanNode(PlanNode):
    """In a semi-naive rule variant: everything derived so far."""

    def __init__(self, token: str, schema: Schema):
        self.token = token
        self._schema = schema
        super().__init__(())

    def _derive_schema(self) -> Schema:
        return self._schema

    def _key_payload(self) -> tuple:
        return (self.token,)

    def copy_with(self, children):
        return self

    def label(self) -> str:
        return f"TotalScan({self.token})"


# ---------------------------------------------------------------------------
# Unary operators.
# ---------------------------------------------------------------------------


class SelectNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expr):
        self.predicate = predicate
        super().__init__((child,))
        validate_against(predicate, self.children[0].schema)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return (self.predicate,)

    def copy_with(self, children):
        return SelectNode(children[0], self.predicate)

    def label(self) -> str:
        return f"Select[{self.predicate.to_sql()}]"


class ProjectNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        exprs: Sequence[Expr],
        names: Sequence[str] | None = None,
    ):
        if not exprs:
            raise PlanError("projection needs at least one expression")
        self.exprs: tuple[Expr, ...] = tuple(exprs)
        if names is None:
            names = [default_name(e, i) for i, e in enumerate(exprs)]
        if len(names) != len(exprs):
            raise PlanError("projection names/expressions length mismatch")
        self.names: tuple[str, ...] = tuple(names)
        super().__init__((child,))
        for expr in self.exprs:
            validate_against(expr, self.children[0].schema)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        child_schema = self.children[0].schema
        columns = []
        used = set()
        for name, expr in zip(self.names, self.exprs):
            # Keep names unique even if the query repeats output names.
            candidate = name
            suffix = 1
            while candidate in used:
                suffix += 1
                candidate = f"{name}_{suffix}"
            used.add(candidate)
            columns.append(Column(candidate, infer_result_type(expr, child_schema)))
        return Schema(columns)

    def _key_payload(self) -> tuple:
        return (self.exprs, self.names)

    def copy_with(self, children):
        return ProjectNode(children[0], self.exprs, self.names)

    def is_identity(self) -> bool:
        """True when this projection just passes every column through."""
        child_schema = self.children[0].schema
        if len(self.exprs) != len(child_schema):
            return False
        from repro.exec.expressions import ColumnRef

        return all(
            isinstance(e, ColumnRef) and e.index == i and self.names[i] == child_schema.columns[i].name
            for i, e in enumerate(self.exprs)
        )

    def label(self) -> str:
        items = ", ".join(
            f"{e.to_sql()} AS {n}" for e, n in zip(self.exprs, self.names)
        )
        return f"Project[{items}]"


class AggExpr:
    """One aggregate in an AggregateNode: func(arg) [DISTINCT]."""

    def __init__(self, func: str, arg: Expr | None, distinct: bool = False):
        if func not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {func!r}")
        if func != "count" and arg is None:
            raise PlanError(f"{func.upper()} requires an argument")
        self.func = func
        self.arg = arg
        self.distinct = distinct

    def key(self) -> tuple:
        return (self.func, self.arg, self.distinct)

    def __eq__(self, other):
        return isinstance(other, AggExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.to_sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func.upper()}({inner})"


class AggregateNode(PlanNode):
    """Hash aggregation: group columns + aggregate expressions."""

    def __init__(
        self,
        child: PlanNode,
        group_cols: Sequence[int],
        aggregates: Sequence[AggExpr],
        names: Sequence[str] | None = None,
    ):
        self.group_cols: tuple[int, ...] = tuple(group_cols)
        self.aggregates: tuple[AggExpr, ...] = tuple(aggregates)
        if names is None:
            names = [child.schema.columns[i].name for i in group_cols] + [
                f"agg{i}" for i in range(len(aggregates))
            ]
        self.names: tuple[str, ...] = tuple(names)
        if len(self.names) != len(self.group_cols) + len(self.aggregates):
            raise PlanError("aggregate output names have wrong arity")
        super().__init__((child,))
        child_schema = self.children[0].schema
        for index in self.group_cols:
            if not 0 <= index < len(child_schema):
                raise PlanError(f"group column {index} out of range")
        for aggregate in self.aggregates:
            if aggregate.arg is not None:
                validate_against(aggregate.arg, child_schema)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        child_schema = self.children[0].schema
        columns = []
        for name, index in zip(self.names, self.group_cols):
            columns.append(Column(name, child_schema.columns[index].data_type))
        for name, aggregate in zip(self.names[len(self.group_cols):], self.aggregates):
            columns.append(Column(name, _aggregate_type(aggregate, child_schema)))
        return Schema(columns)

    def _key_payload(self) -> tuple:
        return (
            self.group_cols,
            tuple(a.key() for a in self.aggregates),
            self.names,
        )

    def copy_with(self, children):
        return AggregateNode(children[0], self.group_cols, self.aggregates, self.names)

    def label(self) -> str:
        groups = ", ".join(str(i) for i in self.group_cols)
        aggs = ", ".join(a.to_sql() for a in self.aggregates)
        return f"Aggregate[group=({groups}) {aggs}]"


def _aggregate_type(aggregate: AggExpr, child_schema: Schema) -> DataType:
    if aggregate.func == "count":
        return DataType.INT
    assert aggregate.arg is not None
    arg_type = infer_result_type(aggregate.arg, child_schema)
    if aggregate.func == "avg":
        return DataType.FLOAT
    return arg_type


class SortNode(PlanNode):
    def __init__(self, child: PlanNode, keys: Sequence[tuple[int, bool]]):
        if not keys:
            raise PlanError("sort needs at least one key")
        self.keys: tuple[tuple[int, bool], ...] = tuple(
            (int(i), bool(d)) for i, d in keys
        )
        super().__init__((child,))
        width = len(self.children[0].schema)
        for index, _ in self.keys:
            if not 0 <= index < width:
                raise PlanError(f"sort key {index} out of range")

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return (self.keys,)

    def copy_with(self, children):
        return SortNode(children[0], self.keys)

    def label(self) -> str:
        keys = ", ".join(f"{i}{' DESC' if d else ''}" for i, d in self.keys)
        return f"Sort[{keys}]"


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        super().__init__((child,))

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return ()

    def copy_with(self, children):
        return DistinctNode(children[0])


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int | None, offset: int = 0):
        if limit is not None and limit < 0:
            raise PlanError("LIMIT must be non-negative")
        if offset < 0:
            raise PlanError("OFFSET must be non-negative")
        self.limit = limit
        self.offset = offset
        super().__init__((child,))

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return (self.limit, self.offset)

    def copy_with(self, children):
        return LimitNode(children[0], self.limit, self.offset)

    def label(self) -> str:
        return f"Limit[{self.limit} offset {self.offset}]"


class TopNNode(PlanNode):
    """Fused ORDER BY + LIMIT: the best ``limit`` rows after ``offset``.

    Produced by the ``fuse_sort_limit`` rewrite, never by the binder.
    Semantically identical to ``Limit(Sort(child))`` with the same keys,
    but executable with a bounded heap — and, distributed, each site
    ships only its best ``offset + limit`` rows instead of a full
    sorted partition.
    """

    def __init__(
        self, child: PlanNode, keys: Sequence[tuple[int, bool]], limit: int, offset: int = 0
    ):
        if not keys:
            raise PlanError("top-n needs at least one sort key")
        if limit < 0:
            raise PlanError("LIMIT must be non-negative")
        if offset < 0:
            raise PlanError("OFFSET must be non-negative")
        self.keys: tuple[tuple[int, bool], ...] = tuple(
            (int(i), bool(d)) for i, d in keys
        )
        self.limit = int(limit)
        self.offset = int(offset)
        super().__init__((child,))
        width = len(self.children[0].schema)
        for index, _ in self.keys:
            if not 0 <= index < width:
                raise PlanError(f"top-n key {index} out of range")

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return (self.keys, self.limit, self.offset)

    def copy_with(self, children):
        return TopNNode(children[0], self.keys, self.limit, self.offset)

    def label(self) -> str:
        keys = ", ".join(f"{i}{' DESC' if d else ''}" for i, d in self.keys)
        return f"TopN[{keys} limit {self.limit} offset {self.offset}]"


class ClosureNode(PlanNode):
    """Transitive closure of a binary relation (paper Section 2.5),
    evaluated semi-naively — the algebra's only recursive operator."""

    def __init__(self, child: PlanNode):
        super().__init__((child,))
        schema = self.children[0].schema
        if len(schema) != 2:
            raise PlanError(
                f"transitive closure needs a binary relation, got {len(schema)} columns"
            )

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return ()

    def copy_with(self, children):
        return ClosureNode(children[0])


# ---------------------------------------------------------------------------
# Binary operators.
# ---------------------------------------------------------------------------


class JoinNode(PlanNode):
    """Join over the concatenation of the children's columns.

    *condition* is expressed against the concatenated schema
    (left columns first).  ``condition=None`` is a cross product.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Expr | None = None,
        kind: JoinKind = JoinKind.INNER,
    ):
        self.condition = condition
        self.kind = kind
        super().__init__((left, right))
        if condition is not None:
            validate_against(condition, self._concat_schema())

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _concat_schema(self) -> Schema:
        return self.children[0].schema.concat(self.children[1].schema)

    def _derive_schema(self) -> Schema:
        if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self.children[0].schema
        return self._concat_schema()

    def _key_payload(self) -> tuple:
        return (self.condition, self.kind.value)

    def copy_with(self, children):
        return JoinNode(children[0], children[1], self.condition, self.kind)

    def label(self) -> str:
        condition = self.condition.to_sql() if self.condition else "TRUE"
        return f"Join[{self.kind.value} on {condition}]"

    def equi_keys(self) -> tuple[tuple[int, ...], tuple[int, ...], Expr | None]:
        """Split the condition into equi-join key pairs and a residual.

        Returns ``(left_positions, right_positions, residual)`` where the
        right positions are relative to the right child's schema.  Used
        by the optimizer to pick hash joins and by the parallelizer to
        repartition on join keys; computed once per node.
        """
        return self.memo("equi_keys", JoinNode._split_condition)

    def _split_condition(self) -> tuple[tuple[int, ...], tuple[int, ...], Expr | None]:
        from repro.exec.expressions import (
            ColumnRef,
            Comparison,
            and_ as make_and,
            conjuncts,
        )

        left_width = len(self.children[0].schema)
        left_keys: list[int] = []
        right_keys: list[int] = []
        residual: list[Expr] = []
        if self.condition is None:
            return (), (), None
        for conjunct in conjuncts(self.condition):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                a, b = conjunct.left.index, conjunct.right.index
                if a < left_width <= b:
                    left_keys.append(a)
                    right_keys.append(b - left_width)
                    continue
                if b < left_width <= a:
                    left_keys.append(b)
                    right_keys.append(a - left_width)
                    continue
            residual.append(conjunct)
        residual_expr = make_and(*residual) if residual else None
        return tuple(left_keys), tuple(right_keys), residual_expr


class SetOpNode(PlanNode):
    OPS = ("union", "union_all", "intersect", "except")

    def __init__(self, op: str, left: PlanNode, right: PlanNode):
        if op not in self.OPS:
            raise PlanError(f"unknown set operation {op!r}")
        self.op = op
        super().__init__((left, right))
        left_schema, right_schema = left.schema, right.schema
        if len(left_schema) != len(right_schema):
            raise PlanError(
                f"{op.upper()}: children have different arities"
                f" ({len(left_schema)} vs {len(right_schema)})"
            )

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _derive_schema(self) -> Schema:
        return self.children[0].schema

    def _key_payload(self) -> tuple:
        return (self.op,)

    def copy_with(self, children):
        return SetOpNode(self.op, children[0], children[1])

    def label(self) -> str:
        return f"SetOp[{self.op}]"


# ---------------------------------------------------------------------------
# Statement templates.
# ---------------------------------------------------------------------------


def _aggregate_with_params(aggregate: AggExpr, params: Sequence[Any]) -> AggExpr:
    if aggregate.arg is None:
        return aggregate
    arg = substitute_params(aggregate.arg, params)
    if arg is aggregate.arg:
        return aggregate
    return AggExpr(aggregate.func, arg, aggregate.distinct)


def substitute_plan_params(plan: PlanNode, params: Sequence[Any]) -> PlanNode:
    """*plan* with every ``Param`` leaf replaced by its literal.

    A prepared statement keeps its plan with parameters in place and
    instantiates it per execution.  Only nodes on the path to a
    parameter are rebuilt; a subtree without one is returned as is.
    """
    children = [substitute_plan_params(child, params) for child in plan.children]
    if isinstance(plan, SelectNode):
        predicate = substitute_params(plan.predicate, params)
        if predicate is not plan.predicate:
            return SelectNode(children[0], predicate)
    elif isinstance(plan, ProjectNode):
        exprs = tuple(substitute_params(e, params) for e in plan.exprs)
        if any(new is not old for new, old in zip(exprs, plan.exprs)):
            return ProjectNode(children[0], exprs, plan.names)
    elif isinstance(plan, JoinNode):
        if plan.condition is not None:
            condition = substitute_params(plan.condition, params)
            if condition is not plan.condition:
                return JoinNode(children[0], children[1], condition, plan.kind)
    elif isinstance(plan, AggregateNode):
        aggregates = [_aggregate_with_params(a, params) for a in plan.aggregates]
        if any(new is not old for new, old in zip(aggregates, plan.aggregates)):
            return AggregateNode(children[0], plan.group_cols, aggregates, plan.names)
    return plan.with_children(children)
