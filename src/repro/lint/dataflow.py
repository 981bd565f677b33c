"""Intra-function dataflow helpers shared by the project-wide rules.

* :class:`UnorderedOrigins` — which local names hold values of
  non-deterministically-ordered origin (``set``/``frozenset`` literals,
  constructors, set algebra, set-typed parameters).  Iterating such a
  value without ``sorted(...)`` perturbs stats fingerprints between
  same-seed runs whenever ``PYTHONHASHSEED`` varies (PL102).  The
  analysis is deliberately lexical (statement order, not control-flow
  order — the simulator's coding style is straight-line enough that
  this is the right cost/precision point).
* :func:`access_path` — the names along an attribute/subscript chain,
  which the project index uses to recognise work meters (PL101).
"""

from __future__ import annotations

import ast
import re

__all__ = [
    "ORDER_SAFE_WRAPPERS",
    "UnorderedOrigins",
    "access_path",
]

#: Constructors whose result has hash-dependent iteration order.
_UNORDERED_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: ``set``/``frozenset`` methods returning another unordered set.
_SET_PRODUCING_METHODS = frozenset(
    {
        "copy",
        "difference",
        "intersection",
        "symmetric_difference",
        "union",
    }
)

#: Set-algebra operators that keep the unordered taint.
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Calls that consume an unordered value order-independently, so passing
#: a set straight in is fine: ``sorted(s)``, ``len(s)``, ``min(s)`` ...
ORDER_SAFE_WRAPPERS = frozenset(
    {"all", "any", "bool", "frozenset", "len", "max", "min", "set", "sorted"}
)

#: Annotation text that marks a parameter as set-typed.
_SET_ANNOTATION_RE = re.compile(
    r"\b(set|frozenset|Set|AbstractSet|FrozenSet|MutableSet)\b"
)

def _call_name(call: ast.Call) -> str:
    """Bare name of the called function (last attribute component)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class UnorderedOrigins:
    """Which names in one function hold unordered (set-origin) values.

    Built with a small fixpoint over the function's assignments so
    taint flows through chains like ``a = set(x); b = a | other``.
    Rebinding a name to an ordered value (``a = sorted(a)``) clears it
    for *subsequent* statements — the analysis is lexical, matching how
    the straight-line simulator code reads.
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._names: set[str] = set()
        arguments = fn.args
        for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
            if arg.annotation is not None and _SET_ANNOTATION_RE.search(
                _safe_unparse(arg.annotation)
            ):
                self._names.add(arg.arg)
        # Fixpoint over simple name-assignments: two passes are enough
        # for forward chains; a bounded loop keeps pathological cases
        # finite.
        for _ in range(4):
            changed = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    tainted = self.is_unordered(node.value)
                    if tainted and target.id not in self._names:
                        self._names.add(target.id)
                        changed = True
            if not changed:
                break

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._names)

    def is_unordered(self, expr: ast.expr) -> bool:
        """Does *expr* evaluate to a hash-ordered (set-like) value?"""
        if isinstance(expr, ast.Name):
            return expr.id in self._names
        if isinstance(expr, ast.Set | ast.SetComp):
            return True
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in _UNORDERED_CONSTRUCTORS:
                return True
            if (
                name in _SET_PRODUCING_METHODS
                and isinstance(expr.func, ast.Attribute)
                and self.is_unordered(expr.func.value)
            ):
                return True
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_BINOPS):
            return self.is_unordered(expr.left) or self.is_unordered(expr.right)
        if isinstance(expr, ast.IfExp):
            return self.is_unordered(expr.body) or self.is_unordered(expr.orelse)
        return False


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed node
        return ""


def access_path(node: ast.expr) -> tuple[str, ...] | None:
    """Names along an attribute/subscript chain, rooted at a ``Name``.

    ``self.buf["k"].rows`` → ``("self", "buf", "rows")`` — subscript
    steps are transparent.  Returns ``None`` when the chain does not
    bottom out at a plain name (a call result, say).
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None
