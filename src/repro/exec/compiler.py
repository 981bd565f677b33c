"""The OFM expression compiler — the paper's "generative approach".

Section 2.5: "each OFM is equiped with an expression compiler to
generate routines dynamically [...] it avoids the otherwise excessive
interpretation overhead incurred by a query expression interpreter."

We do exactly that in Python: an expression tree is translated once into
Python source for a specialized function, compiled with :func:`compile`,
and the resulting code object is executed per row — no tree walking, no
operator dispatch.  It is the engine's only evaluator: the optimizer and
the binder fold constants by running it on the empty row.  A property
test holds it to the tree-walking interpreter kept as a reference in
``tests/oracle`` (NULL-safe comparisons, NULL-propagating arithmetic).

Generated predicates look like::

    def _compiled(row):
        return (row[2] is not None and (row[2] > 100)) and (row[0] == 7)

Errors that can only be detected at run time (division by zero, type
confusion between incomparable values) surface as ``ZeroDivisionError``
or ``TypeError`` from the generated code; :func:`guard_call` converts
them to :class:`~repro.errors.ExpressionError`, the exception the
interpreter raises.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence
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
from repro.obs.api import SnapshotMixin

_COMPARISON_PY = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Emitter:
    """Accumulates the environment of constants the generated code uses."""

    def __init__(self):
        self.env: dict[str, Any] = {}
        self._counter = 0

    def bind(self, prefix: str, value: Any) -> str:
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    # -- code generation ------------------------------------------------------

    def scalar(self, expr: Expr) -> str:
        """Code for *expr* as a value (may evaluate to None)."""
        if isinstance(expr, Literal):
            return self._literal(expr.value)
        if isinstance(expr, ColumnRef):
            return f"row[{expr.index}]"
        if isinstance(
            expr, (Comparison, BoolOp, Not, IsNull, InList, Like)
        ):
            return self.predicate(expr)
        if isinstance(expr, Arithmetic):
            raw = f"({self.scalar(expr.left)} {expr.op} {self.scalar(expr.right)})"
            return self._null_guarded(expr, raw)
        if isinstance(expr, Negate):
            raw = f"(- {self.scalar(expr.operand)})"
            return self._null_guarded(expr, raw)
        if isinstance(expr, FunctionCall):
            _, implementation = SCALAR_FUNCTIONS[expr.name]
            fn = self.bind("fn", implementation)
            args = ", ".join(self.scalar(a) for a in expr.args)
            raw = f"{fn}({args})"
            return self._null_guarded(expr, raw)
        raise ExpressionError(f"cannot compile node {type(expr).__name__}")

    def predicate(self, expr: Expr) -> str:
        """Code for *expr* as a boolean (never None)."""
        if isinstance(expr, Comparison):
            if _mentions_null_literal(expr):
                return "False"
            left = self.scalar(expr.left)
            right = self.scalar(expr.right)
            guards = self._guards(expr)
            core = f"({left} {_COMPARISON_PY[expr.op]} {right})"
            return self._with_guards(guards, core)
        if isinstance(expr, BoolOp):
            joiner = " and " if expr.op == "and" else " or "
            return "(" + joiner.join(self.predicate(o) for o in expr.operands) + ")"
        if isinstance(expr, Not):
            return f"(not {self.predicate(expr.operand)})"
        if isinstance(expr, IsNull):
            inner = self.scalar(expr.operand)
            op = "is not" if expr.negated else "is"
            return f"(({inner}) {op} None)"
        if isinstance(expr, InList):
            values = set(v for v in expr.values if v is not None)
            const = self.bind("inset", frozenset(values) if _hashable(values) else tuple(values))  # prismalint: disable=PL102 -- membership-only constant; order cannot affect predicate results
            return f"(({self.scalar(expr.operand)}) in {const})"
        if isinstance(expr, Like):
            regex = self.bind("re", expr.regex())
            temp = self.bind_name()
            core = (
                f"(({temp} := ({self.scalar(expr.operand)})) is not None"
                f" and {regex}.match({temp}) is not None)"
            )
            return f"(not {core})" if expr.negated else core
        if isinstance(expr, Literal):
            return "True" if expr.value else "False"
        if isinstance(expr, (ColumnRef, Arithmetic, Negate, FunctionCall)):
            # A value used in boolean position: truthiness, NULL is false.
            return f"bool({self.scalar(expr)})"
        raise ExpressionError(f"cannot compile predicate node {type(expr).__name__}")

    def bind_name(self) -> str:
        name = f"_t{self._counter}"
        self._counter += 1
        return name

    # -- helpers ------------------------------------------------------------------

    def _literal(self, value: Any) -> str:
        # ``repr`` of inf or nan is no Python literal: bind those as constants.
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.bind("const", value)

    def _guards(self, expr: Expr) -> list[str]:
        return [f"row[{i}] is not None" for i in sorted(columns_used(expr))]

    @staticmethod
    def _with_guards(guards: list[str], core: str) -> str:
        if not guards:
            return core
        return "(" + " and ".join(guards + [core]) + ")"

    def _null_guarded(self, expr: Expr, raw: str) -> str:
        """NULL-propagating value: None when any referenced column is NULL."""
        if _mentions_null_literal(expr):
            return "None"
        refs = sorted(columns_used(expr))
        if not refs:
            return raw
        condition = " or ".join(f"row[{i}] is None" for i in refs)
        return f"(None if ({condition}) else {raw})"


def _mentions_null_literal(expr: Expr) -> bool:
    if isinstance(expr, Literal):
        return expr.value is None
    if isinstance(expr, (IsNull,)):
        return False  # IS NULL gives NULL literals meaning; don't fold
    return any(_mentions_null_literal(c) for c in expr.children())


def _hashable(values) -> bool:
    try:
        hash(frozenset(values))
        return True
    except TypeError:
        return False


def _build_source(source: str, env: dict[str, Any], name: str) -> Callable:
    """Compile generated *source* and return the function it defines."""
    namespace = dict(env)
    with warnings.catch_warnings():
        # ``(5) is None`` (IS NULL of a constant) means what it says.
        warnings.simplefilter("ignore", SyntaxWarning)
        code = compile(source, filename=f"<prisma:{name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - this *is* the expression compiler
    fn = namespace[name]
    fn.__prisma_source__ = source
    return fn


def _build(source_expr: str, env: dict[str, Any], name: str) -> Callable:
    return _build_source(f"def {name}(row):\n    return {source_expr}\n", env, name)


def compile_predicate(expr: Expr) -> Callable[[Sequence[Any]], bool]:
    """Compile *expr* into a specialized ``row -> bool`` function."""
    emitter = _Emitter()
    body = emitter.predicate(expr)
    return _build(body, emitter.env, "_compiled_predicate")


def compile_scalar(expr: Expr) -> Callable[[Sequence[Any]], Any]:
    """Compile *expr* into a specialized ``row -> value`` function."""
    emitter = _Emitter()
    body = emitter.scalar(expr)
    return _build(body, emitter.env, "_compiled_scalar")


def compile_projector(exprs: Sequence[Expr]) -> Callable[[Sequence[Any]], tuple]:
    """Compile a projection list into a ``row -> tuple`` function."""
    emitter = _Emitter()
    parts = [emitter.scalar(e) for e in exprs]
    body = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return _build(body, emitter.env, "_compiled_projector")


def compile_key(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """Compile a key extractor for the given row positions."""
    parts = [f"row[{i}]" for i in positions]
    body = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return _build(body, {}, "_compiled_key")


def guard_call(fn: Callable, *args):
    """Run generated code, mapping runtime faults to ExpressionError."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        raise ExpressionError("division by zero in compiled expression") from None
    except TypeError as exc:
        raise ExpressionError(f"type error in compiled expression: {exc}") from None


#: Entry bound of one compiler cache (all routine kinds together, FIFO).
#: A cache holds a workload's expression *shapes*, so this is generous:
#: no pinned workload comes near it, and ``compilations``/``hits`` — part
#: of the observability fingerprint — are unchanged by it.  What it stops
#: is growth without end when every statement carries a fresh literal.
COMPILER_CACHE_CAPACITY = 2048


class ExpressionCompilerCache(SnapshotMixin):
    """Per-OFM cache of compiled routines, keyed by *structural* hash.

    :class:`~repro.exec.expressions.Expr` defines value-based
    ``__eq__``/``__hash__`` over its structural :meth:`key`, so two
    independently built but structurally equal predicates share one
    compiled routine — repeated queries (the common case in the
    benchmarks) pay compilation once, not once per plan instance.
    Key extractors (plain position tuples, used by joins, aggregates,
    and shuffles), join kernels and the chain kernels of
    :mod:`repro.exec.pipeline` are cached the same way, in one map with
    one FIFO bound.

    ``compilations``/``hits`` count *operator shapes*, whatever chain an
    operator runs in: a chain kernel used for ``n`` parts counts ``n``
    lookups of each of its selections, projections and aggregations —
    what one kernel per operator counted — so the figures (which the
    E5 bench and the observability fingerprint read) say how often the
    generative approach saved a compilation, not how operators happen
    to be grouped.
    """

    def __init__(self):
        #: (kind, shape) -> routine, oldest first.
        self._routines: dict[tuple, Any] = {}
        self.compilations = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._routines)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without compiling (0.0 when cold)."""
        lookups = self.compilations + self.hits
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, float]:
        """Counters for the E5 compilation bench / observability."""
        return {
            "compilations": self.compilations,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
        }

    def _put(self, key: tuple, routine: Any) -> None:
        if len(self._routines) >= COMPILER_CACHE_CAPACITY:
            del self._routines[next(iter(self._routines))]
        self._routines[key] = routine

    def _lookup(self, kind: str, shape: Any, compile_fn: Callable, *args) -> Any:
        key = (kind, shape)
        routine = self._routines.get(key)
        if routine is None:
            routine = compile_fn(*args)
            self._put(key, routine)
            self.compilations += 1
        else:
            self.hits += 1
        return routine

    def predicate(self, expr: Expr) -> Callable[[Sequence[Any]], bool]:
        return self._lookup("predicate", expr, compile_predicate, expr)

    def projector(self, exprs: Sequence[Expr]) -> Callable[[Sequence[Any]], tuple]:
        return self._lookup("projector", tuple(exprs), compile_projector, exprs)

    def key(self, positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
        shape = tuple(positions)
        return self._lookup("key", shape, compile_key, shape)

    # -- batch kernels (imported lazily: batch.py and pipeline.py use this
    # module's emitter, so a top-level import would cycle) ----------------

    def join_kernel(self, left_keys: Sequence[int], right_keys: Sequence[int]) -> Callable:
        from repro.exec.batch import compile_join_kernel

        shape = (tuple(left_keys), tuple(right_keys))
        return self._lookup("join", shape, compile_join_kernel, *shape)

    def pipeline(self, stages: tuple, uses: int = 1):
        """The compiled kernel of an operator chain, about to run *uses* times."""
        pipeline = self._routines.get(("pipeline", stages))
        if pipeline is None:
            from repro.exec.pipeline import compile_pipeline

            pipeline = compile_pipeline(stages)
            self._put(("pipeline", stages), pipeline)
        for shape in pipeline.operator_shapes:
            if shape in self._routines:
                self.hits += uses
            else:
                self._put(shape, True)
                self.compilations += 1
                self.hits += uses - 1
        return pipeline
