"""PL101 — unmetered work in charged paths.

The paper's cost argument (and every speedup experiment built on it)
assumes all simulated work is billed to the simulated clock through a
:class:`~repro.exec.operators.WorkMeter` or ``process.charge``.  The
recurring bug class — PR 3's free ``CommitLog.outcomes()`` scan, PR 4's
uncharged ``LimitNode`` rows — is a loop over tuples that does real
per-row work while charging nothing, silently deflating simulated
response times.

The rule walks every function in the charged layers (``exec``, ``ofm``,
``core``, ``algebra``) and flags loops/comprehensions over row
collections (iterable or loop variable named ``row``/``rows``/
``tuple(s)``/``batch(es)``, or annotated ``Rows``/``Sequence[Row]``)
inside functions that do not charge by
:func:`~repro.lint.framework.charges`.  Callees are never consulted: a
loop whose work is billed elsewhere — a generator feeding a charged
consumer, a compiled kernel its batch operator charges per batch —
carries a ``disable=PL101 -- charged in <site>`` pragma naming that
site, the same contract PL004 uses.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.framework import (
    FunctionNode,
    Rule,
    SourceFile,
    Violation,
    call_name,
    charges,
    iter_functions,
)

__all__ = ["UnmeteredWorkRule"]

#: Layers whose functions carry the simulation's cost argument.
CHARGED_DIRS = frozenset({"algebra", "core", "exec", "ofm"})

#: Identifier (last path component) that denotes a row collection.
_ROWISH_RE = re.compile(r"(^|_)(row|rows|tuple|tuples|batch|batches)(_|$)")

#: Row-collection type annotations.
_ROWISH_ANNOTATION_RE = re.compile(r"\b(Rows|Row\]|Sequence\[Row)\b")


def _in_scope(source: SourceFile) -> bool:
    return any(part in CHARGED_DIRS for part in source.path_parts()[:-1])


def _last_identifier(expr: ast.expr) -> str:
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return call_name(node)
    return ""


def _target_names(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _is_rowish_name(name: str) -> bool:
    return bool(name) and bool(_ROWISH_RE.search(name))


def _rowish_params(fn: FunctionNode) -> set[str]:
    names: set[str] = set()
    arguments = fn.args
    for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
        if _is_rowish_name(arg.arg):
            names.add(arg.arg)
        elif arg.annotation is not None:
            try:
                text = ast.unparse(arg.annotation)
            except Exception:  # pragma: no cover - malformed annotation
                continue
            if _ROWISH_ANNOTATION_RE.search(text):
                names.add(arg.arg)
    return names


def _row_loops(
    fn: FunctionNode, rowish_params: set[str]
) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, what)`` for loops/comprehensions over row collections."""
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            pairs = [(node.iter, node.target)]
        elif isinstance(
            node, ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
        ):
            pairs = [(gen.iter, gen.target) for gen in node.generators]
        else:
            continue
        for iterable, target in pairs:
            iter_name = _last_identifier(iterable)
            if (
                _is_rowish_name(iter_name)
                or iter_name in rowish_params
                or any(_is_rowish_name(n) for n in _target_names(target))
            ):
                yield node, iter_name or next(
                    (n for n in _target_names(target) if _is_rowish_name(n)), "rows"
                )
                break


class UnmeteredWorkRule(Rule):
    """PL101: a row loop in a charged path sits in a function that charges."""

    code = "PL101"
    name = "unmetered-work"
    hint = (
        "per-row work in exec/ofm/core/algebra must reach a WorkMeter or "
        "process.charge in the same function; if another function accounts "
        "for it, say which with "
        "'# prismalint: disable=PL101 -- charged in <site>'"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        if not _in_scope(source):
            return
        for owner, fn in iter_functions(source.tree):
            if charges(fn):
                continue
            qual = f"{owner}.{fn.name}" if owner else fn.name
            for node, what in _row_loops(fn, _rowish_params(fn)):
                yield self.violation(
                    source,
                    node,
                    f"loop over {what!r} in {qual}() does per-row work but "
                    "nothing in the function charges a meter",
                )
