"""The knowledge-based query optimizer (paper Section 2.4).

Pipeline::

    logical plan
      -> rewrite rules (knowledge base, to fixpoint)
      -> greedy join reordering (size estimates)
      -> column pruning
      -> common-subexpression extraction
      -> OptimizedPlan {main plan, shared plans, fired rules}

Every stage can be disabled through :class:`OptimizerOptions`; the E10
benchmark ablates them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.algebra.estimates import Estimator, RelProfile, TableStats
from repro.algebra.join_order import reorder_joins
from repro.algebra.plan import PlanNode, substitute_plan_params
from repro.algebra.pruning import prune_columns
from repro.algebra.rules import KNOWLEDGE_BASE, Rule, apply_rules
from repro.algebra.subexpr import SharedPlan, extract_common_subexpressions


@dataclass
class OptimizerOptions:
    """Ablation switches for the optimizer stages."""

    enable_rewrites: bool = True
    enable_join_reorder: bool = True
    enable_prune: bool = True
    enable_cse: bool = True


@dataclass
class OptimizedPlan:
    """The optimizer's output: a main plan plus materialization obligations."""

    plan: PlanNode
    shared: list[SharedPlan] = field(default_factory=list)
    fired_rules: list[str] = field(default_factory=list)
    estimated_rows: float = 0.0

    def with_params(self, params: Sequence[Any]) -> "OptimizedPlan":
        """This plan with every parameter replaced by its value."""
        return OptimizedPlan(
            substitute_plan_params(self.plan, params),
            [
                SharedPlan(
                    shared.token,
                    substitute_plan_params(shared.plan, params),
                    shared.occurrences,
                )
                for shared in self.shared
            ],
            self.fired_rules,
            self.estimated_rows,
        )

    def explain(self) -> str:
        lines = []
        for shared in self.shared:
            lines.append(f"-- shared {shared.token} (used {shared.occurrences}x):")
            lines.append(shared.plan.explain(1))
        lines.append(self.plan.explain())
        if self.fired_rules:
            lines.append(f"-- rules fired: {', '.join(self.fired_rules)}")
        return "\n".join(lines)


class Optimizer:
    """Optimizes logical plans against catalog statistics."""

    def __init__(
        self,
        table_stats: Mapping[str, TableStats] | None = None,
        options: OptimizerOptions | None = None,
        rules: tuple[Rule, ...] = KNOWLEDGE_BASE,
    ):
        self.table_stats = dict(table_stats or {})
        self.options = options or OptimizerOptions()
        self.rules = rules

    def optimize(self, plan: PlanNode) -> OptimizedPlan:
        fired: list[str] = []
        options = self.options
        estimator = Estimator(self.table_stats)
        if options.enable_rewrites:
            plan, fired = apply_rules(plan, self.rules)
        if options.enable_join_reorder:
            plan = reorder_joins(plan, estimator)
            if options.enable_rewrites:
                # Reordering can introduce removable projections.
                plan, more = apply_rules(plan, self.rules)
                fired.extend(more)
        if options.enable_prune:
            plan = prune_columns(plan)
            if options.enable_rewrites:
                plan, more = apply_rules(plan, self.rules)
                fired.extend(more)
        shared: list[SharedPlan] = []
        if options.enable_cse:
            plan, shared = extract_common_subexpressions(plan)
        # Final estimate, with shared-plan profiles available.
        shared_profiles: dict[str, RelProfile] = {}
        for shared_plan in shared:
            shared_profiles[shared_plan.token] = Estimator(
                self.table_stats, shared_profiles
            ).profile(shared_plan.plan)
        final_estimator = Estimator(self.table_stats, shared_profiles)
        estimated = final_estimator.rows(plan)
        return OptimizedPlan(
            plan=plan,
            shared=shared,
            fired_rules=fired,
            estimated_rows=estimated,
        )
