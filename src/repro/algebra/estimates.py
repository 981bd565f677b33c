"""Cardinality and size estimation — the optimizer's knowledge about sizes.

Section 2.4: "The knowledge base contains rules concerning [...]
estimating sizes of intermediate results".  This module is that piece:
per-relation statistics (row counts, per-column distinct values) are
propagated bottom-up through a logical plan as a :class:`RelProfile`,
using System-R-style selectivity heuristics.

The estimates drive join ordering, CSE materialization decisions, and
the parallelizer's choice between repartitioning and broadcasting.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.exec.expressions import (
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Param,
    conjuncts,
)
from repro.algebra.plan import (
    AggregateNode,
    ClosureNode,
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
    TopNNode,
    ValuesNode,
)
from repro.exec.operators import JoinKind

#: Selectivity guesses for predicates we cannot analyse precisely.
DEFAULT_EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1 / 3
LIKE_SELECTIVITY = 0.25
NULL_SELECTIVITY = 0.1
#: Expansion factor guess for transitive closure.
CLOSURE_EXPANSION = 4.0


@dataclass(frozen=True)
class TableStats:
    """Catalog statistics for one base relation."""

    row_count: int
    avg_row_bytes: float
    distinct: Mapping[str, int] = field(default_factory=dict)

    def ndv(self, column: str) -> float:
        value = self.distinct.get(column)
        if value is None or value <= 0:
            return max(1.0, float(self.row_count))
        return float(value)


@dataclass
class RelProfile:
    """Estimated shape of one intermediate relation."""

    rows: float
    row_bytes: float
    ndv: list[float]

    @property
    def total_bytes(self) -> float:
        return self.rows * self.row_bytes

    def clamp(self) -> "RelProfile":
        self.rows = max(0.0, self.rows)
        self.ndv = [max(1.0, min(n, max(self.rows, 1.0))) for n in self.ndv]
        return self


class Estimator:
    """Propagates :class:`RelProfile` estimates through a plan.

    Parameters
    ----------
    table_stats:
        Mapping of base-table name to :class:`TableStats`.
    shared_profiles:
        Profiles for materialized common subexpressions, keyed by token
        (the optimizer fills these in as it creates shared plans).
    """

    def __init__(
        self,
        table_stats: Mapping[str, TableStats],
        shared_profiles: Mapping[str, RelProfile] | None = None,
    ):
        self.table_stats = table_stats
        self.shared_profiles = dict(shared_profiles or {})

    # -- entry point ----------------------------------------------------------

    def profile(self, plan: PlanNode) -> RelProfile:
        method = getattr(self, f"_profile_{type(plan).__name__}", None)
        if method is None:
            raise PlanError(f"no estimator for {type(plan).__name__}")
        return method(plan).clamp()

    def rows(self, plan: PlanNode) -> float:
        return self.profile(plan).rows

    # -- leaves -----------------------------------------------------------------

    def _profile_ScanNode(self, plan: ScanNode) -> RelProfile:
        stats = self.table_stats.get(plan.table_name)
        if stats is None:
            rows = 1000.0
            return RelProfile(rows, plan.schema.average_row_bytes(), [rows] * len(plan.schema))
        ndv = [stats.ndv(column.name) for column in plan.schema.columns]
        return RelProfile(float(stats.row_count), stats.avg_row_bytes, ndv)

    def _profile_ValuesNode(self, plan: ValuesNode) -> RelProfile:
        rows = len(plan.rows)
        ndv = []
        for position in range(len(plan.schema)):
            ndv.append(float(len({row[position] for row in plan.rows})) or 1.0)  # prismalint: disable=PL101 -- plan-time estimation over a literal VALUES list; optimizer work is not simulated execution
        row_bytes = (
            sum(plan.schema.row_bytes(row) for row in plan.rows) / rows  # prismalint: disable=PL101 -- plan-time estimation over a literal VALUES list; optimizer work is not simulated execution
            if rows
            else plan.schema.average_row_bytes()
        )
        return RelProfile(float(rows), row_bytes, ndv)

    def _profile_SharedScanNode(self, plan: SharedScanNode) -> RelProfile:
        profile = self.shared_profiles.get(plan.token)
        if profile is not None:
            return RelProfile(profile.rows, profile.row_bytes, list(profile.ndv))
        rows = 1000.0
        return RelProfile(rows, plan.schema.average_row_bytes(), [rows] * len(plan.schema))

    # -- unary ----------------------------------------------------------------------

    def _profile_SelectNode(self, plan: SelectNode) -> RelProfile:
        child = self.profile(plan.child)
        selectivity = self.predicate_selectivity(plan.predicate, child)
        return RelProfile(
            child.rows * selectivity, child.row_bytes, list(child.ndv)
        )

    def _profile_ProjectNode(self, plan: ProjectNode) -> RelProfile:
        child = self.profile(plan.child)
        ndv = []
        for expr in plan.exprs:
            if isinstance(expr, ColumnRef):
                ndv.append(child.ndv[expr.index])
            elif isinstance(expr, (Literal, Param)):
                ndv.append(1.0)
            else:
                ndv.append(child.rows)
        return RelProfile(child.rows, plan.schema.average_row_bytes(), ndv)

    def _profile_AggregateNode(self, plan: AggregateNode) -> RelProfile:
        child = self.profile(plan.child)
        if not plan.group_cols:
            groups = 1.0
        else:
            groups = 1.0
            for index in plan.group_cols:
                groups *= child.ndv[index]
            groups = min(groups, child.rows)
        ndv = [child.ndv[i] for i in plan.group_cols]
        ndv.extend(groups for _ in plan.aggregates)
        return RelProfile(groups, plan.schema.average_row_bytes(), ndv)

    def _profile_SortNode(self, plan: SortNode) -> RelProfile:
        return self.profile(plan.child)

    def _profile_DistinctNode(self, plan: DistinctNode) -> RelProfile:
        child = self.profile(plan.child)
        distinct = 1.0
        for n in child.ndv:
            distinct *= n
        rows = min(child.rows, distinct)
        return RelProfile(rows, child.row_bytes, list(child.ndv))

    def _profile_LimitNode(self, plan: LimitNode) -> RelProfile:
        child = self.profile(plan.child)
        if plan.limit is not None:
            child.rows = min(child.rows, float(plan.limit))
        return child

    def _profile_TopNNode(self, plan: TopNNode) -> RelProfile:
        # Sorting never changes cardinality; the fused limit caps it.
        # (The CPU saving — n·log₂(offset+limit) heap compares instead
        # of n·log₂(n) sort compares — is charged by the operator's
        # WorkMeter at execution time; row counts are what the planner
        # needs here for shipping estimates.)
        child = self.profile(plan.child)
        child.rows = min(child.rows, float(plan.limit))
        return child

    def _profile_ClosureNode(self, plan: ClosureNode) -> RelProfile:
        child = self.profile(plan.child)
        rows = min(child.rows * CLOSURE_EXPANSION, child.ndv[0] * child.ndv[1])
        return RelProfile(rows, child.row_bytes, [child.ndv[0], child.ndv[1]])

    # -- binary -----------------------------------------------------------------------

    def _profile_JoinNode(self, plan: JoinNode) -> RelProfile:
        left = self.profile(plan.left)
        right = self.profile(plan.right)
        left_keys, right_keys, residual = plan.equi_keys()
        if plan.condition is None:
            rows = left.rows * right.rows
        elif left_keys:
            rows = left.rows * right.rows
            for lk, rk in zip(left_keys, right_keys):
                rows /= max(left.ndv[lk], right.ndv[rk], 1.0)
            if residual is not None:
                combined = RelProfile(
                    rows, left.row_bytes + right.row_bytes, left.ndv + right.ndv
                )
                rows *= self.predicate_selectivity(residual, combined)
        else:
            combined = RelProfile(
                left.rows * right.rows,
                left.row_bytes + right.row_bytes,
                left.ndv + right.ndv,
            )
            rows = combined.rows * self.predicate_selectivity(
                plan.condition, combined
            )
        if plan.kind is JoinKind.LEFT_OUTER:
            rows = max(rows, left.rows)
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            match_fraction = min(1.0, rows / left.rows) if left.rows else 0.0
            if plan.kind is JoinKind.SEMI:
                rows = left.rows * match_fraction
            else:
                rows = left.rows * (1.0 - match_fraction)
            return RelProfile(rows, left.row_bytes, list(left.ndv))
        return RelProfile(
            rows, left.row_bytes + right.row_bytes, left.ndv + right.ndv
        )

    def _profile_SetOpNode(self, plan: SetOpNode) -> RelProfile:
        left = self.profile(plan.left)
        right = self.profile(plan.right)
        ndv = [max(l, r) for l, r in zip(left.ndv, right.ndv)]
        if plan.op == "union_all":
            rows = left.rows + right.rows
        elif plan.op == "union":
            rows = max(left.rows, right.rows, (left.rows + right.rows) * 0.75)
        elif plan.op == "intersect":
            rows = min(left.rows, right.rows) * 0.5
        else:  # except
            rows = left.rows * 0.5
        return RelProfile(rows, left.row_bytes, ndv)

    # -- predicate selectivity ------------------------------------------------------------

    def predicate_selectivity(self, predicate: Expr, profile: RelProfile) -> float:
        """Estimated fraction of rows satisfying *predicate*."""
        selectivity = 1.0
        for conjunct in conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conjunct, profile)
        return max(0.0, min(1.0, selectivity))

    def _conjunct_selectivity(self, expr: Expr, profile: RelProfile) -> float:
        if isinstance(expr, Literal):
            return 1.0 if expr.value else 0.0
        if isinstance(expr, BoolOp):
            parts = [self._conjunct_selectivity(o, profile) for o in expr.operands]
            if expr.op == "and":
                result = 1.0
                for part in parts:
                    result *= part
                return result
            # OR: inclusion-exclusion under independence.
            result = 1.0
            for part in parts:
                result *= 1.0 - part
            return 1.0 - result
        if isinstance(expr, Not):
            return 1.0 - self._conjunct_selectivity(expr.operand, profile)
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, profile)
        if isinstance(expr, IsNull):
            return (1.0 - NULL_SELECTIVITY) if expr.negated else NULL_SELECTIVITY
        if isinstance(expr, InList):
            if isinstance(expr.operand, ColumnRef):
                ndv = profile.ndv[expr.operand.index]
                return min(1.0, len(set(expr.values)) / max(ndv, 1.0))
            return min(1.0, len(set(expr.values)) * DEFAULT_EQ_SELECTIVITY)
        if isinstance(expr, Like):
            return (1.0 - LIKE_SELECTIVITY) if expr.negated else LIKE_SELECTIVITY
        return 0.5

    def _comparison_selectivity(self, expr: Comparison, profile: RelProfile) -> float:
        left_col = isinstance(expr.left, ColumnRef)
        right_col = isinstance(expr.right, ColumnRef)
        if expr.op == "=":
            if left_col and right_col:
                ndv = max(
                    profile.ndv[expr.left.index], profile.ndv[expr.right.index], 1.0
                )
                return 1.0 / ndv
            # A parameter estimates as the literal it stands for: only
            # "is a constant" matters here, never the value.
            if left_col and isinstance(expr.right, (Literal, Param)):
                return 1.0 / max(profile.ndv[expr.left.index], 1.0)
            if right_col and isinstance(expr.left, (Literal, Param)):
                return 1.0 / max(profile.ndv[expr.right.index], 1.0)
            return DEFAULT_EQ_SELECTIVITY
        if expr.op == "<>":
            return 1.0 - self._comparison_selectivity(
                Comparison("=", expr.left, expr.right), profile
            )
        return RANGE_SELECTIVITY
