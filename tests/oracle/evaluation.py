"""The row-at-a-time evaluator, and the seam that puts it into a database.

:class:`RowEvaluator` answers everything ``repro.exec.evaluation.Evaluator``
does, with the loops the generated kernels replaced: a chain runs one
operator call per op (:class:`~tests.oracle.operators.RowPipeline`) and an
INNER equi-join runs ``hash_join``.  With ``interpreted=True`` its
predicates and projections walk the expression tree per row as well —
the interpreter the paper's generative approach argues against (Section
2.5), experiment E5's baseline — and are charged
:data:`INTERPRETATION_FACTOR` times the compiled weight on the simulated
clock.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.exec.compiler import ExpressionCompilerCache
from repro.exec.expressions import Expr, expression_weight
from repro.exec.operators import WorkMeter, hash_join

from tests.oracle.interpreter import evaluate, evaluate_predicate
from tests.oracle.operators import RowPipeline

#: Simulated-clock penalty of tree-walking interpretation per node.
INTERPRETATION_FACTOR = 4.0


class InterpretedPredicate:
    """A callable predicate backed by the interpreter (E5 baseline)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def __call__(self, row: Sequence[Any]) -> bool:
        return evaluate_predicate(self.expr, row)


class InterpretedProjector:
    """A callable row constructor backed by the interpreter."""

    __slots__ = ("exprs",)

    def __init__(self, exprs: Sequence[Expr]):
        self.exprs = tuple(exprs)

    def __call__(self, row: Sequence[Any]) -> tuple:
        return tuple(evaluate(e, row) for e in self.exprs)


class RowEvaluator:
    """Row-level callables and row-at-a-time chains (see module doc)."""

    def __init__(self, interpreted: bool = False):
        self.interpreted = interpreted
        self.cache = ExpressionCompilerCache()

    def predicate(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], bool], float]:
        weight = expression_weight(expr)
        if self.interpreted:
            return InterpretedPredicate(expr), weight * INTERPRETATION_FACTOR
        return self.cache.predicate(expr), weight

    def projector(
        self, exprs: Sequence[Expr]
    ) -> tuple[Callable[[Sequence[Any]], tuple], float]:
        weight = sum(expression_weight(e) for e in exprs)
        if self.interpreted:
            return InterpretedProjector(exprs), weight * INTERPRETATION_FACTOR
        return self.cache.projector(exprs), weight

    def scalar(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], Any], float]:
        """A single-value callable (aggregate arguments)."""
        fn, weight = self.projector((expr,))
        return (lambda row, _fn=fn: _fn(row)[0]), weight

    def key(self, positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
        """A positional key extractor: nothing to interpret, so compiled."""
        return self.cache.key(positions)

    def pipeline(self, stages: tuple, uses: int = 1) -> RowPipeline:
        return RowPipeline(stages, self)

    def join_kernel(self, left_keys: Sequence[int], right_keys: Sequence[int]) -> Callable:
        """``hash_join`` behind the join-kernel interface.  The caller
        charges the join (``hash_join_batch``); the scratch meter only
        absorbs ``hash_join``'s own, identical charge."""
        left_key, right_key = self.key(left_keys), self.key(right_keys)

        def kernel(left, right):
            return hash_join(left, right, left_key, right_key, WorkMeter())

        return kernel


def use_evaluator(db, evaluator):
    """Run *db*'s statements through *evaluator*: the distributed
    executor's and every fragment OFM's (those spawned so far)."""
    db.gdh.executor.evaluator = evaluator
    for ofm in db.gdh.fragment_ofms.values():
        ofm.evaluator = evaluator
    return db
