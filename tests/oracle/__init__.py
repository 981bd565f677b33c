"""Row-at-a-time references for the engine's generated code.

The engine has one evaluator: generated kernels for operator chains,
joins, expressions and shuffles (``repro.exec``).  What they replaced
lives on here, as the oracle tests and benchmarks compare them against —
not as a mode of the machine:

* the row operators and the one-call-per-op chain runner
  (:mod:`tests.oracle.operators`);
* the tree-walking expression interpreter, the reference the compiler is
  checked against (:mod:`tests.oracle.interpreter`);
* the interpreted predicates and projections built on it, E5's
  baseline, and :class:`RowEvaluator`, which serves either back-end row
  at a time (:mod:`tests.oracle.evaluation`);
* :func:`use_evaluator`, which swaps an evaluator into a live database;
* E6's closure baselines (:mod:`tests.oracle.closure`) and the reference
  shuffle hash (:mod:`tests.oracle.shuffle`);
* :class:`PrismalogEngine`, the one-site PRISMAlog evaluator the
  distributed fixpoint is checked against (:mod:`tests.oracle.prismalog`).
"""

from tests.oracle.closure import naive_closure, reachable_from, smart_closure
from tests.oracle.evaluation import (
    INTERPRETATION_FACTOR,
    InterpretedPredicate,
    InterpretedProjector,
    RowEvaluator,
    use_evaluator,
)
from tests.oracle.interpreter import evaluate, evaluate_predicate
from tests.oracle.operators import (
    AggSpec,
    RowPipeline,
    aggregate_rows,
    distinct_rows,
    limit_rows,
    project_rows,
    select_rows,
)
from tests.oracle.prismalog import EvaluationStats, PrismalogEngine, PrismalogResult
from tests.oracle.shuffle import reference_bucket

__all__ = [
    "AggSpec",
    "EvaluationStats",
    "INTERPRETATION_FACTOR",
    "InterpretedPredicate",
    "InterpretedProjector",
    "RowEvaluator",
    "RowPipeline",
    "aggregate_rows",
    "distinct_rows",
    "evaluate",
    "evaluate_predicate",
    "limit_rows",
    "naive_closure",
    "PrismalogEngine",
    "PrismalogResult",
    "project_rows",
    "reachable_from",
    "reference_bucket",
    "select_rows",
    "smart_closure",
    "use_evaluator",
]
