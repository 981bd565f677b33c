"""Logical relational algebra with the closure extension, plus the
knowledge-based query optimizer (paper Sections 2.3 and 2.4)."""

from repro.algebra.estimates import Estimator, RelProfile, TableStats
from repro.algebra.join_order import reorder_joins
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.optimizer import OptimizedPlan, Optimizer, OptimizerOptions
from repro.algebra.plan import (
    AggExpr,
    AggregateNode,
    ClosureNode,
    DeltaScanNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SetOpNode,
    SharedScanNode,
    SortNode,
    TotalScanNode,
    ValuesNode,
)
from repro.algebra.pruning import prune_columns
from repro.algebra.rules import KNOWLEDGE_BASE, Rule, apply_rules
from repro.algebra.subexpr import SharedPlan, extract_common_subexpressions

__all__ = [
    "AggExpr",
    "AggregateNode",
    "ClosureNode",
    "DeltaScanNode",
    "DistinctNode",
    "Estimator",
    "JoinNode",
    "KNOWLEDGE_BASE",
    "LimitNode",
    "LocalExecutor",
    "OptimizedPlan",
    "Optimizer",
    "OptimizerOptions",
    "PlanNode",
    "ProjectNode",
    "RelProfile",
    "Rule",
    "ScanNode",
    "SelectNode",
    "SetOpNode",
    "SharedPlan",
    "SharedScanNode",
    "SortNode",
    "TableStats",
    "TotalScanNode",
    "ValuesNode",
    "apply_rules",
    "extract_common_subexpressions",
    "prune_columns",
    "reorder_joins",
]
