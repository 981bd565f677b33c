"""Choice of expression back-end: compiled (generative) vs interpreted.

One switch selects how OFMs evaluate predicates and projections — the
ablation behind experiment E5.  Both back-ends return plain callables;
the accompanying *weight* is the abstract comparison count charged per
evaluation on the simulated clock (interpretation is penalized by a
constant factor, mirroring the real-world overhead the paper's
generative approach avoids — and which E5 also measures in wall-clock).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.exec.compiler import ExpressionCompilerCache
from repro.exec.expressions import Expr, expression_weight
from repro.exec.interpreter import InterpretedPredicate, InterpretedProjector
from repro.exec.pipeline import Chain, Pipeline, RowPipeline, fusable

#: Simulated-clock penalty of tree-walking interpretation per node.
INTERPRETATION_FACTOR = 4.0


class Evaluator:
    """Produces row-level callables and chain kernels for expressions.

    ``compiled`` selects the expression back-end (E5's ablation);
    ``batch`` selects whether operator chains run through the generated
    kernels of :mod:`repro.exec.pipeline` instead of per-row calls.
    Both default on; flipping ``batch`` off restores the row-at-a-time
    loops — the identity oracle, and the other side of the perf gate's
    kernel-vs-row ratios.  Neither switch changes results or simulated
    charges.
    """

    def __init__(self, compiled: bool = True, batch: bool = True):
        self.compiled = compiled
        self.batch = batch
        self.cache = ExpressionCompilerCache()

    def predicate(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], bool], float]:
        """A filter callable and its per-row simulated weight."""
        weight = expression_weight(expr)
        if self.compiled:
            return self.cache.predicate(expr), weight
        return InterpretedPredicate(expr), weight * INTERPRETATION_FACTOR

    def projector(
        self, exprs: Sequence[Expr]
    ) -> tuple[Callable[[Sequence[Any]], tuple], float]:
        """A row-builder callable and its per-row simulated weight."""
        weight = sum(expression_weight(e) for e in exprs)
        if self.compiled:
            return self.cache.projector(exprs), weight
        return InterpretedProjector(exprs), weight * INTERPRETATION_FACTOR

    def scalar(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], Any], float]:
        """A single-value callable (used for aggregate arguments, keys)."""
        fn, weight = self.projector((expr,))
        return (lambda row, _fn=fn: _fn(row)[0]), weight

    def key(self, positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
        """A cached key extractor for the given row positions.

        Key extraction has no interpreted variant (there is nothing to
        interpret — it is a plain positional gather), so both back-ends
        share the compiled, cached form.
        """
        return self.cache.key(positions)

    # -- batch-at-a-time forms ------------------------------------------

    def pipeline(self, stages: Chain, uses: int = 1) -> Pipeline | RowPipeline:
        """The runner of an operator chain, about to run *uses* times.

        Generated code needs the compiled back-end (the interpreted one
        pays its per-row tree walk on the row path — E5's wall-clock
        interpretation overhead) and a chain without DISTINCT
        aggregates; everything else runs operator by operator.
        """
        if self.batch and self.compiled and fusable(stages):
            return self.cache.pipeline(stages, uses)
        return RowPipeline(stages, self)

    def join_kernel(self, left_keys: Sequence[int], right_keys: Sequence[int]) -> Callable:
        """A cached INNER equi-join batch kernel (compiled-only form).

        Callers gate on ``evaluator.compiled and evaluator.batch``;
        like :meth:`key` there is nothing to interpret in a positional
        hash join, so no interpreted variant exists.
        """
        return self.cache.join_kernel(left_keys, right_keys)
