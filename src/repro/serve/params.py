"""Parameter binding for the serving layer's ``?`` placeholders.

The parser turns each ``?`` into a ``Param`` node, so a statement
template is parsed once (the GDH memoizes the parse by text), bound and
optimized once per combination of parameter *types*, and executed any
number of times: the values travel beside the prepared statement and
its dispatch plan routes each execution by them.  Binding is therefore
injection-proof by construction — a value is never rendered into SQL
text or tokens, it only ever becomes one literal leaf of a plan — and
:func:`statement_key`, the plan cache's key, is cheap: the text and the
types, no walk over the statement.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ParseError
from repro.sql.ast import Statement
from repro.sql.lexer import Token, tokenize

__all__ = ["bind_parameters", "statement_key", "template_tokens"]


def template_tokens(sql: str) -> list[Token]:
    """Tokenize a statement template (``?`` lexes as an operator)."""
    return tokenize(sql)


def bind_parameters(statement: Statement, params: Sequence | None) -> tuple:
    """The values *statement*'s placeholders take in one execution.

    The placeholder count must equal ``len(params)`` exactly — binding
    too many or too few values is a programming error, not something to
    pad silently — and every value must be one SQL has a literal for.
    """
    values = tuple(params or ())
    if len(values) != statement.n_params:
        raise ParseError(
            f"{len(values)} parameter(s) bound but the statement has"
            f" {statement.n_params} placeholder(s)"
        )
    for value in values:
        if value is not None and not isinstance(value, (int, float, str)):
            raise ParseError(
                f"cannot bind a {type(value).__name__} parameter"
                " (int, float, str, bool, or None)"
            )
    return values


def statement_key(sql: str, values: tuple, by_value: tuple[int, ...] = ()) -> tuple:
    """Plan-cache key of a statement template.

    The text and the parameter *types*: nothing in a prepared statement
    depends on a parameter's value (fragment pruning reads the value
    when an execution is routed; the optimizer's estimates only ask
    whether an operand is a constant), but its result
    schema does depend on the types — ``v + ?`` is an INT column for
    ``1`` and a FLOAT one for ``1.0``, and ``True`` is not ``1``.  The
    exception is a placeholder the binder must read while binding (a
    LIMIT/OFFSET count, an ORDER BY position — the statement's
    *by_value* indices): those join the key by value.
    """
    types = tuple(map(type, values))
    if by_value:
        return (sql, types, tuple(values[index] for index in by_value))
    return (sql, types)
