"""Scalar expression trees.

Shared by the SQL binder, the PRISMAlog translator, the optimizer, and
both evaluation back-ends (the tuple-at-a-time interpreter and the
generative compiler of Section 2.5).  Expressions are immutable and
hashable, so the optimizer can detect common subexpressions by value.

NULL semantics (documented deviation from SQL's three-valued logic,
which the 1988 paper predates): any comparison involving NULL is false;
arithmetic and functions over NULL yield NULL; ``IS NULL`` tests
directly; AND/OR/NOT are ordinary two-valued connectives.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExpressionError
from repro.storage.schema import Schema
from repro.storage.types import DataType, infer_type

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

#: Scalar functions available to queries: name -> (arity, implementation).
SCALAR_FUNCTIONS: dict[str, tuple[int, Callable[..., Any]]] = {
    "abs": (1, abs),
    "length": (1, len),
    "upper": (1, str.upper),
    "lower": (1, str.lower),
    "mod": (2, lambda a, b: a % b),
}


class Expr:
    """Base class for scalar expressions."""

    def key(self) -> tuple:
        """A structural identity key (used for hashing and CSE)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.key() == other.key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Memoized: expressions are immutable and the compiler cache
        # hashes the same trees on every query, so pay the recursive
        # key() walk once per node.
        try:
            return self._cached_hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((type(self).__name__, self.key()))
            object.__setattr__(self, "_cached_hash", value)
            return value

    def children(self) -> tuple["Expr", ...]:
        return ()

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_sql()})"


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant value (int, float, string, bool, or NULL)."""

    value: Any

    def key(self) -> tuple:
        return (type(self.value).__name__, self.value)

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class Param(Expr):
    """The *index*-th ``?`` of a statement template: typed, valueless.

    A prepared statement is bound and optimized with these in place of
    its parameters; an execution reads the values beside them or
    instantiates (:func:`substitute_params`) what must compile, and
    nothing ever evaluates or compiles a ``Param`` itself.
    The type is that of the values the template was prepared for (it
    is part of the plan-cache key), so result schemas come out as they
    would for a literal.
    """

    index: int
    data_type: DataType

    def key(self) -> tuple:
        return (self.index, self.data_type.value)

    def to_sql(self) -> str:
        return f"?{self.index}"


@dataclass(frozen=True, eq=False)
class ColumnRef(Expr):
    """A reference to column *index* of the input row; *name* is cosmetic."""

    index: int
    name: str = ""

    def key(self) -> tuple:
        return (self.index,)

    def to_sql(self) -> str:
        return self.name or f"${self.index}"


@dataclass(frozen=True, eq=False)
class Comparison(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def key(self) -> tuple:
        return (self.op, self.left, self.right)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True, eq=False)
class BoolOp(Expr):
    """N-ary AND / OR."""

    op: str
    operands: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")
        if len(self.operands) < 2:
            raise ExpressionError(f"{self.op.upper()} needs at least two operands")

    def key(self) -> tuple:
        return (self.op, self.operands)

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def to_sql(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class Not(Expr):
    operand: Expr

    def key(self) -> tuple:
        return (self.operand,)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


@dataclass(frozen=True, eq=False)
class Arithmetic(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def key(self) -> tuple:
        return (self.op, self.left, self.right)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True, eq=False)
class Negate(Expr):
    operand: Expr

    def key(self) -> tuple:
        return (self.operand,)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


@dataclass(frozen=True, eq=False)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        spec = SCALAR_FUNCTIONS.get(self.name)
        if spec is None:
            raise ExpressionError(f"unknown function {self.name!r}")
        arity, _ = spec
        if len(self.args) != arity:
            raise ExpressionError(
                f"{self.name}() takes {arity} argument(s), got {len(self.args)}"
            )

    def key(self) -> tuple:
        return (self.name, self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def to_sql(self) -> str:
        return f"{self.name.upper()}({', '.join(a.to_sql() for a in self.args)})"


@dataclass(frozen=True, eq=False)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def key(self) -> tuple:
        return (self.operand, self.negated)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True, eq=False)
class InList(Expr):
    operand: Expr
    values: tuple[Any, ...]

    def key(self) -> tuple:
        return (self.operand, self.values)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        items = ", ".join(Literal(v).to_sql() for v in self.values)
        return f"({self.operand.to_sql()} IN ({items}))"


@dataclass(frozen=True, eq=False)
class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards.

    In a statement template the pattern (like an :class:`InList` value)
    may be a :class:`Param` until :func:`substitute_params` fills it in.
    """

    operand: Expr
    pattern: str | Param
    negated: bool = False
    _regex: Any = field(default=None, compare=False, repr=False)

    def key(self) -> tuple:
        return (self.operand, self.pattern, self.negated)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def regex(self):
        """The compiled regex equivalent of the LIKE pattern (cached)."""
        if self._regex is None:
            import re

            parts = []
            for ch in self.pattern:
                if ch == "%":
                    parts.append(".*")
                elif ch == "_":
                    parts.append(".")
                else:
                    parts.append(re.escape(ch))
            compiled = re.compile("^" + "".join(parts) + "$", re.DOTALL)
            object.__setattr__(self, "_regex", compiled)
        return self._regex

    def to_sql(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {op} {Literal(self.pattern).to_sql()})"


# ---------------------------------------------------------------------------
# Convenience constructors.
# ---------------------------------------------------------------------------


def col(index: int, name: str = "") -> ColumnRef:
    return ColumnRef(index, name)


def lit(value: Any) -> Literal:
    return Literal(value)


def and_(*operands: Expr) -> Expr:
    flattened: list[Expr] = []
    for operand in operands:
        if isinstance(operand, BoolOp) and operand.op == "and":
            flattened.extend(operand.operands)
        else:
            flattened.append(operand)
    if len(flattened) == 1:
        return flattened[0]
    return BoolOp("and", tuple(flattened))


def or_(*operands: Expr) -> Expr:
    if len(operands) == 1:
        return operands[0]
    return BoolOp("or", tuple(operands))


def eq(left: Expr, right: Expr) -> Comparison:
    return Comparison("=", left, right)


# ---------------------------------------------------------------------------
# Structural utilities.
# ---------------------------------------------------------------------------


def columns_used(expr: Expr) -> set[int]:
    """All row positions the expression reads."""
    used: set[int] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            used.add(node.index)
        for child in node.children():
            walk(child)

    walk(expr)
    return used


def remap_columns(expr: Expr, mapping: dict[int, int]) -> Expr:
    """Rewrite every column reference through *mapping*.

    Raises :class:`ExpressionError` if the expression uses a column the
    mapping does not cover — the caller asked to move the expression
    somewhere its inputs do not exist.
    """

    def walk(node: Expr) -> Expr:
        if isinstance(node, ColumnRef):
            if node.index not in mapping:
                raise ExpressionError(
                    f"column {node.to_sql()} (index {node.index}) not available"
                    " after remapping"
                )
            return ColumnRef(mapping[node.index], node.name)
        return _rebuild(node, tuple(walk(c) for c in node.children()))

    return walk(expr)


def substitute_columns(expr: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace each ``ColumnRef(i)`` in *expr* with ``replacements[i]``.

    This is expression composition: pulling an expression through a
    projection that computes the columns it reads.
    """

    def walk(node: Expr) -> Expr:
        if isinstance(node, ColumnRef):
            return replacements[node.index]
        return _rebuild(node, tuple(walk(c) for c in node.children()))

    return walk(expr)


def _rebuild(node: Expr, children: tuple[Expr, ...]) -> Expr:
    """Copy *node* with new children."""
    if isinstance(node, (Literal, ColumnRef, Param)):
        return node
    if isinstance(node, Comparison):
        return Comparison(node.op, children[0], children[1])
    if isinstance(node, BoolOp):
        return BoolOp(node.op, children)
    if isinstance(node, Not):
        return Not(children[0])
    if isinstance(node, Arithmetic):
        return Arithmetic(node.op, children[0], children[1])
    if isinstance(node, Negate):
        return Negate(children[0])
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, children)
    if isinstance(node, IsNull):
        return IsNull(children[0], node.negated)
    if isinstance(node, InList):
        return InList(children[0], node.values)
    if isinstance(node, Like):
        return Like(children[0], node.pattern, node.negated)
    raise ExpressionError(f"cannot rebuild node {type(node).__name__}")


def conjuncts(expr: Expr) -> list[Expr]:
    """Split a predicate into its top-level AND factors."""
    if isinstance(expr, BoolOp) and expr.op == "and":
        result: list[Expr] = []
        for operand in expr.operands:
            result.extend(conjuncts(operand))
        return result
    return [expr]


def has_params(expr: Expr) -> bool:
    """Does *expr* hold a :class:`Param` (IN lists and LIKE patterns
    carry theirs as values, not children)?"""
    for node in all_subexpressions(expr):
        if isinstance(node, Param):
            return True
        if isinstance(node, InList) and any(
            isinstance(v, Param) for v in node.values
        ):
            return True
        if isinstance(node, Like) and isinstance(node.pattern, Param):
            return True
    return False


def is_constant(expr: Expr) -> bool:
    """No column and no parameter: safe to evaluate at plan time."""
    return not columns_used(expr) and not has_params(expr)


def param_type(value: Any) -> DataType:
    """The :class:`Param` type standing for *value* (NULL types like
    the NULL literal does in :func:`infer_result_type`)."""
    return DataType.STRING if value is None else infer_type(value)


def substitute_params(expr: Expr, params: Sequence[Any]) -> Expr:
    """*expr* with every :class:`Param` replaced by its literal.

    Returns *expr* itself when it holds no parameter, so callers can
    detect the no-op by identity.
    """
    if isinstance(expr, Param):
        return Literal(params[expr.index])
    if isinstance(expr, InList):
        operand = substitute_params(expr.operand, params)
        if operand is expr.operand and not any(
            isinstance(v, Param) for v in expr.values
        ):
            return expr
        return InList(
            operand,
            tuple(
                params[v.index] if isinstance(v, Param) else v
                for v in expr.values
            ),
        )
    if isinstance(expr, Like) and isinstance(expr.pattern, Param):
        return Like(
            substitute_params(expr.operand, params),
            params[expr.pattern.index],
            expr.negated,
        )
    children = expr.children()
    if not children:
        return expr
    replaced = tuple(substitute_params(c, params) for c in children)
    if all(new is old for new, old in zip(replaced, children)):
        return expr
    return _rebuild(expr, replaced)


def params_to_columns(expr: Expr, offset: int) -> Expr:
    """*expr* reading each :class:`Param` leaf from column ``offset +
    index``: compiled once, it serves every value when called on the row
    with the values appended.  The column behaves like the literal would
    (NULL included) and weighs the same one node; IN lists and LIKE
    patterns keep their parameters (values, not leaves)."""
    if isinstance(expr, Param):
        return ColumnRef(offset + expr.index)
    children = expr.children()
    if not children:
        return expr
    replaced = tuple(params_to_columns(c, offset) for c in children)
    if all(new is old for new, old in zip(replaced, children)):
        return expr
    return _rebuild(expr, replaced)


def infer_result_type(expr: Expr, schema: Schema) -> DataType:
    """Static result type of *expr* against *schema* (best effort)."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return DataType.STRING  # NULL literal: type unknown, pick widest
        return infer_type(expr.value)
    if isinstance(expr, ColumnRef):
        return schema.columns[expr.index].data_type
    if isinstance(expr, Param):
        return expr.data_type
    if isinstance(expr, (Comparison, BoolOp, Not, IsNull, InList, Like)):
        return DataType.BOOL
    if isinstance(expr, Negate):
        return infer_result_type(expr.operand, schema)
    if isinstance(expr, Arithmetic):
        if expr.op == "/":
            return DataType.FLOAT
        left = infer_result_type(expr.left, schema)
        right = infer_result_type(expr.right, schema)
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        return left
    if isinstance(expr, FunctionCall):
        if expr.name in ("length", "abs", "mod"):
            return (
                DataType.INT
                if expr.name != "abs"
                else infer_result_type(expr.args[0], schema)
            )
        return DataType.STRING
    raise ExpressionError(f"cannot type expression {expr!r}")


def default_name(expr: Expr, position: int) -> str:
    """Column name for an expression in a projection list."""
    if isinstance(expr, ColumnRef) and expr.name:
        return expr.name
    return f"col{position}"


def validate_against(expr: Expr, schema: Schema) -> None:
    """Check all column references fall inside *schema*."""
    width = len(schema)
    for index in columns_used(expr):
        if not 0 <= index < width:
            raise ExpressionError(
                f"expression references column index {index}, schema has {width}"
            )


def all_subexpressions(expr: Expr) -> Iterable[Expr]:
    """Every node of the tree, preorder."""
    yield expr
    for child in expr.children():
        yield from all_subexpressions(child)


def expression_weight(expr: Expr) -> float:
    """Abstract cost of one evaluation: the number of tree nodes."""
    return float(sum(1 for _ in all_subexpressions(expr)))
