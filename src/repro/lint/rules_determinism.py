"""PL102 — iteration over hash-ordered collections.

Same-seed runs must be bit-identical (PAPER.md §3): the golden-stats
fingerprints, the trace-determinism CI job, and every perf-gate
baseline all hash simulated state.  ``set``/``frozenset`` iteration
order depends on ``PYTHONHASHSEED`` for str keys, so a bare
``for x in some_set`` that feeds *anything* ordered — a list, a stats
counter updated in float arithmetic, a message sequence — silently
perturbs fingerprints between interpreter invocations.  The already
fixed pattern is ``core/gdh.py``'s ``for resource in sorted(set(...))``.

The rule runs an intra-function dataflow walk
(:class:`~repro.lint.dataflow.UnorderedOrigins`) to find names of
set origin — constructors, literals, set algebra, set-typed
parameters — then flags:

* ``for`` statements and comprehension generators iterating one;
* ``list(...)``/``tuple(...)`` materialisations of one (they freeze the
  hash order into an ordered value).

Order-independent consumers (``sorted``, ``len``, ``min``, ``max``,
``any``, ``all``, membership tests, set algebra) are fine.  Iterations
that are *provably* order-insensitive to a human (e.g. building another
set) still get flagged — that judgement call is exactly what the
``# prismalint: disable=PL102 -- <why>`` pragma is for.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.dataflow import ORDER_SAFE_WRAPPERS, UnorderedOrigins
from repro.lint.framework import Rule, SourceFile, Violation, iter_functions

__all__ = ["UnorderedIterationRule"]

_MATERIALISERS = frozenset({"list", "tuple"})


def _wrapping_calls(fn: ast.AST) -> dict[int, str]:
    """id(argument node) -> name of the call that consumes it directly."""
    consumed: dict[int, str] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            for arg in node.args:
                consumed[id(arg)] = node.func.id
    return consumed


class UnorderedIterationRule(Rule):
    """PL102: iterating a set without ``sorted`` perturbs fingerprints."""

    code = "PL102"
    name = "unordered-iteration"
    hint = (
        "set/frozenset iteration order follows PYTHONHASHSEED, not the "
        "simulation; wrap in sorted(...) or justify with "
        "'# prismalint: disable=PL102 -- <why order cannot leak>'"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for owner, fn in iter_functions(source.tree):
            origins = UnorderedOrigins(fn)
            qual = f"{owner}.{fn.name}" if owner else fn.name
            consumed = _wrapping_calls(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.For):
                    if origins.is_unordered(node.iter):
                        yield self.violation(
                            source,
                            node,
                            f"for-loop in {qual}() iterates "
                            f"{self._describe(node.iter)} in hash order",
                        )
                elif isinstance(
                    node, ast.ListComp | ast.DictComp | ast.GeneratorExp
                ):
                    # A SetComp result is itself unordered — order cannot
                    # leak through it, so only ordered-result forms count.
                    if consumed.get(id(node)) in ORDER_SAFE_WRAPPERS:
                        continue
                    for gen in node.generators:
                        if origins.is_unordered(gen.iter):
                            yield self.violation(
                                source,
                                node,
                                f"comprehension in {qual}() iterates "
                                f"{self._describe(gen.iter)} in hash order",
                            )
                            break
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Name)
                        and func.id in _MATERIALISERS
                        and len(node.args) == 1
                        and origins.is_unordered(node.args[0])
                        and consumed.get(id(node)) not in ORDER_SAFE_WRAPPERS
                    ):
                        yield self.violation(
                            source,
                            node,
                            f"{func.id}(...) in {qual}() freezes the hash "
                            f"order of {self._describe(node.args[0])}",
                        )

    @staticmethod
    def _describe(expr: ast.expr) -> str:
        try:
            text = ast.unparse(expr)
        except Exception:  # pragma: no cover - malformed node
            return "a set-origin value"
        if len(text) > 40:
            text = text[:37] + "..."
        return f"set-origin {text!r}"
