"""The expression back-end every OFM and the distributed executor use.

One back-end: generated code (the paper's generative approach, Section
2.5).  Each callable comes with its *weight*, the abstract comparison
count charged per evaluation on the simulated clock.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.exec.compiler import ExpressionCompilerCache
from repro.exec.expressions import Expr, expression_weight
from repro.exec.pipeline import Chain, Pipeline


class Evaluator:
    """Produces row-level callables and chain kernels for expressions,
    all compiled once per shape and cached in :attr:`cache`."""

    def __init__(self):
        self.cache = ExpressionCompilerCache()

    def predicate(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], bool], float]:
        """A filter callable and its per-row simulated weight."""
        return self.cache.predicate(expr), expression_weight(expr)

    def projector(
        self, exprs: Sequence[Expr]
    ) -> tuple[Callable[[Sequence[Any]], tuple], float]:
        """A row-builder callable and its per-row simulated weight."""
        return self.cache.projector(exprs), sum(expression_weight(e) for e in exprs)

    def key(self, positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
        """A cached key extractor for the given row positions."""
        return self.cache.key(positions)

    def pipeline(self, stages: Chain, uses: int = 1) -> Pipeline:
        """The generated kernel of an operator chain, about to run *uses* times."""
        return self.cache.pipeline(stages, uses)

    def join_kernel(self, left_keys: Sequence[int], right_keys: Sequence[int]) -> Callable:
        """A cached INNER equi-join batch kernel."""
        return self.cache.join_kernel(left_keys, right_keys)
