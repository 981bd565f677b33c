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
inside functions that never account for the work: no direct meter
mutation, no ``*.charge(...)``, no meter handed to a callee, and — via
the :class:`~repro.lint.project.ProjectIndex` one-level call graph — no
call to a helper that itself charges.  Generators that merely *produce*
rows for a charged consumer should say so with a disable pragma naming
the consumer, the same contract PL004 uses.

Batch kernels (PR 7) are metered at the *batch* boundary: the operators
of :mod:`repro.exec.operators` charge a whole batch's closed-form work
in one place, then run a compiled kernel whose loop carries no meter of
its own.  One shape is therefore recognized as metered without a
pragma: **kernel factories** — row loops inside a ``lambda``/closure
that a ``batch_*``/``*_kernel`` function *returns* (the loop is
deferred; whichever batch operator invokes the kernel charges per
batch).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.framework import SourceFile, Violation
from repro.lint.project import ProjectIndex, ProjectRule, iter_functions

__all__ = ["UnmeteredWorkRule"]

#: Layers whose functions carry the simulation's cost argument.
CHARGED_DIRS = frozenset({"algebra", "core", "exec", "ofm"})

#: Identifier (last path component) that denotes a row collection.
_ROWISH_RE = re.compile(r"(^|_)(row|rows|tuple|tuples|batch|batches)(_|$)")

#: Row-collection type annotations.
_ROWISH_ANNOTATION_RE = re.compile(r"\b(Rows|Row\]|Sequence\[Row)\b")

#: Functions that *produce* batch kernels rather than running row work:
#: ``batch_*`` / ``*_batch`` names and ``*_kernel`` builders.
_KERNEL_FACTORY_RE = re.compile(r"(^|_)batch(_|$)|_kernel$")


def _returned_kernel_nodes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """ids of AST nodes whose execution is deferred into a returned kernel.

    Covers ``lambda``s appearing in a ``return`` expression and nested
    functions whose name a ``return`` mentions.
    """
    returned_names: set[str] = set()
    deferred: set[int] = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Return) and node.value is not None):
            continue
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Lambda):
                deferred.update(id(inner) for inner in ast.walk(sub))
            elif isinstance(sub, ast.Name):
                returned_names.add(sub.id)
    if returned_names:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
                and node is not fn
                and node.name in returned_names
            ):
                deferred.update(id(inner) for inner in ast.walk(node))
    return deferred


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
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return ""


def _target_names(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _is_rowish_name(name: str) -> bool:
    return bool(name) and bool(_ROWISH_RE.search(name))


def _rowish_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
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
    fn: ast.FunctionDef | ast.AsyncFunctionDef, rowish_params: set[str]
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


class UnmeteredWorkRule(ProjectRule):
    """PL101: row loops in charged paths must bill a meter somewhere."""

    code = "PL101"
    name = "unmetered-work"
    hint = (
        "per-row work in exec/ofm/core/algebra must reach a WorkMeter or "
        "process.charge (directly, or through a charging helper); if the "
        "caller accounts for it, say where with "
        "'# prismalint: disable=PL101 -- charged in <site>'"
    )

    def check_project(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterator[Violation]:
        if not _in_scope(source):
            return
        for owner, fn in iter_functions(source.tree):
            if self._function_charges(fn, index):
                continue
            deferred: set[int] = (
                _returned_kernel_nodes(fn)
                if _KERNEL_FACTORY_RE.search(fn.name)
                else set()
            )
            rowish = _rowish_params(fn)
            qual = f"{owner}.{fn.name}" if owner else fn.name
            for node, what in _row_loops(fn, rowish):
                if id(node) in deferred:
                    # A kernel factory: the loop runs later, inside a
                    # batch operator that charges once per batch.
                    continue
                yield self.violation(
                    source,
                    node,
                    f"loop over {what!r} in {qual}() does per-row work but "
                    "nothing in the function charges a meter",
                )

    @staticmethod
    def _function_charges(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, index: ProjectIndex
    ) -> bool:
        """Direct charge, meter hand-off, or call to a charging helper."""
        info = index.function_for_node(fn)
        if info is None:  # pragma: no cover - index built over other files
            return True
        if info.summary.charges_directly or info.meter_params:
            return True
        return any(
            index.is_charging_callee(callee) for callee in info.summary.calls
        )
