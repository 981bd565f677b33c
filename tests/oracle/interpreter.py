"""The tree-walking expression interpreter: the compiler's reference.

The engine evaluates every expression through generated code
(:mod:`repro.exec.compiler`, :mod:`repro.exec.pipeline`), plan-time
constant folding included — the paper's generative approach, which
"avoids the otherwise excessive interpretation overhead incurred by a
query expression interpreter" (Section 2.5).  This walker is that
interpreter.  Wrapped as per-row callables
(:mod:`tests.oracle.evaluation`) it is the baseline experiment E5
measures, and a hypothesis property test checks the compiler against it
on random expressions and rows.

NULL handling is *strict and checked first*: a comparison, arithmetic
node, or function call whose referenced columns include a NULL yields
False (comparisons) or NULL (values) **without evaluating its operands**
— exactly what the compiler's generated guards do.  This makes the two
agree even on rows where eager evaluation would have raised a type
error that the guards skip.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache
from typing import Any

from repro.errors import ExpressionError
from repro.exec.expressions import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    SCALAR_FUNCTIONS,
    columns_used,
)


@lru_cache(maxsize=4096)
def _referenced_columns(expr: Expr) -> frozenset[int]:
    return frozenset(columns_used(expr))


def _any_referenced_null(expr: Expr, row: Sequence[Any]) -> bool:
    return any(row[i] is None for i in _referenced_columns(expr))


@lru_cache(maxsize=4096)
def _mentions_null_literal(expr: Expr) -> bool:
    if isinstance(expr, Literal):
        return expr.value is None
    if isinstance(expr, IsNull):
        return False
    return any(_mentions_null_literal(c) for c in expr.children())

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


def evaluate(expr: Expr, row: Sequence[Any]) -> Any:
    """Evaluate *expr* against *row* (scalar result; may be None)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[expr.index]
    if isinstance(expr, Comparison):
        # Guard-first NULL strictness, mirroring the compiled code.
        if _mentions_null_literal(expr) or _any_referenced_null(expr, row):
            return False
        left = evaluate(expr.left, row)
        right = evaluate(expr.right, row)
        if left is None or right is None:
            return False
        try:
            return _COMPARATORS[expr.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} with {right!r}: {exc}"
            ) from None
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            return all(bool(evaluate(o, row)) for o in expr.operands)
        return any(bool(evaluate(o, row)) for o in expr.operands)
    if isinstance(expr, Not):
        return not bool(evaluate(expr.operand, row))
    if isinstance(expr, Arithmetic):
        if _mentions_null_literal(expr) or _any_referenced_null(expr, row):
            return None
        left = evaluate(expr.left, row)
        right = evaluate(expr.right, row)
        if left is None or right is None:
            return None
        try:
            return _ARITHMETIC[expr.op](left, right)
        except ZeroDivisionError:
            raise ExpressionError(
                f"division by zero in {expr.to_sql()}"
            ) from None
        except TypeError as exc:
            raise ExpressionError(
                f"bad operands for {expr.op!r}: {left!r}, {right!r} ({exc})"
            ) from None
    if isinstance(expr, Negate):
        if _mentions_null_literal(expr) or _any_referenced_null(expr, row):
            return None
        value = evaluate(expr.operand, row)
        if value is None:
            return None
        try:
            return -value
        except TypeError as exc:
            raise ExpressionError(f"cannot negate {value!r}: {exc}") from None
    if isinstance(expr, FunctionCall):
        if _mentions_null_literal(expr) or _any_referenced_null(expr, row):
            return None
        args = [evaluate(a, row) for a in expr.args]
        if any(a is None for a in args):
            return None
        _, implementation = SCALAR_FUNCTIONS[expr.name]
        try:
            return implementation(*args)
        except ZeroDivisionError:
            raise ExpressionError(
                f"division by zero in {expr.to_sql()}"
            ) from None
        except (TypeError, AttributeError) as exc:
            raise ExpressionError(
                f"bad arguments to {expr.name}(): {args!r} ({exc})"
            ) from None
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, InList):
        value = evaluate(expr.operand, row)
        if value is None:
            return False
        try:
            return value in expr.values
        except TypeError as exc:  # unhashable never occurs; mismatched types may
            raise ExpressionError(f"bad IN list comparison: {exc}") from None
    if isinstance(expr, Like):
        value = evaluate(expr.operand, row)
        if value is None:
            return False
        if not isinstance(value, str):
            raise ExpressionError(f"LIKE needs a string, got {value!r}")
        matched = expr.regex().match(value) is not None
        return (not matched) if expr.negated else matched
    raise ExpressionError(f"cannot interpret node {type(expr).__name__}")


def evaluate_predicate(expr: Expr, row: Sequence[Any]) -> bool:
    """Evaluate *expr* as a filter: NULL results count as false."""
    return bool(evaluate(expr, row))
