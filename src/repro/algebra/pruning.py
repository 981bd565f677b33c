"""Column pruning: never compute or ship columns nobody reads.

In a distributed main-memory machine the scarce resources are the
16 MByte stores and the 10 Mbit/s links, so dropping dead columns early
matters twice: smaller intermediates *and* smaller transfers between
processing elements.  This pass rewrites a plan so every operator
produces only the columns its ancestors actually use.

The pass returns a plan with the *same* output schema as the input plan
(the root keeps every column); pruning happens strictly below the root.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.exec.expressions import ColumnRef, columns_used, remap_columns
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


def prune_columns(plan: PlanNode) -> PlanNode:
    """Return an equivalent plan that drops unused columns early."""
    pruned, mapping = _prune(plan, list(range(len(plan.schema))))
    # The helper may return columns in needed-order with renames; restore
    # the exact root schema.
    return _restore(pruned, mapping, plan.schema.names(), len(plan.schema))


def _restore(plan: PlanNode, mapping: dict[int, int], names: list[str], width: int) -> PlanNode:
    """Project *plan* back to the original column order/names."""
    exprs = []
    for original in range(width):
        if original not in mapping:
            raise PlanError("pruning lost a required column")
        exprs.append(ColumnRef(mapping[original]))
    project = ProjectNode(plan, exprs, names)
    if project.is_identity():
        return plan
    return project


def _prune(plan: PlanNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    """Rewrite *plan* to produce (a superset of) columns in *needed*.

    Returns ``(new_plan, mapping)`` where ``mapping[old_index]`` gives
    the position of the old output column in the new plan's output, for
    every index in *needed*.
    """
    needed = sorted(dict.fromkeys(needed))
    handler = _HANDLERS.get(type(plan))
    if handler is None:
        # Conservative default: keep the subtree as is.
        return plan, {i: i for i in needed}
    return handler(plan, needed)


def _prune_leaf(plan: PlanNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    """Leaves: add a narrowing projection when it actually helps."""
    width = len(plan.schema)
    if len(needed) == width:
        return plan, {i: i for i in needed}
    exprs = [ColumnRef(i, plan.schema.columns[i].name) for i in needed]
    names = [plan.schema.columns[i].name for i in needed]
    projected = ProjectNode(plan, exprs, names)
    return projected, {old: new for new, old in enumerate(needed)}


def _prune_select(plan: SelectNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    required = sorted(set(needed) | columns_used(plan.predicate))
    child, mapping = _prune(plan.child, required)
    predicate = remap_columns(plan.predicate, mapping)
    return SelectNode(child, predicate), {i: mapping[i] for i in needed}


def _prune_project(plan: ProjectNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    kept_exprs = [plan.exprs[i] for i in needed]
    kept_names = [plan.names[i] for i in needed]
    child_needed = sorted(set().union(*[columns_used(e) for e in kept_exprs]) if kept_exprs else set())
    if not child_needed:
        # Expressions are all constants; still need one child column to
        # preserve cardinality.
        child_needed = [0]
    child, mapping = _prune(plan.child, child_needed)
    remapped = [remap_columns(e, mapping) for e in kept_exprs]
    new_plan = ProjectNode(child, remapped, kept_names)
    return new_plan, {old: new for new, old in enumerate(needed)}


def _prune_join(plan: JoinNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    left_width = len(plan.left.schema)
    condition_cols = columns_used(plan.condition) if plan.condition is not None else set()
    if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
        # Output is the left child only; the right side feeds the condition.
        left_needed = sorted(
            set(needed) | {c for c in condition_cols if c < left_width}
        )
        right_needed = sorted(c - left_width for c in condition_cols if c >= left_width)
        left, left_map = _prune(plan.left, left_needed)
        right, right_map = _prune(plan.right, right_needed or [0])
        new_left_width = len(left.schema)
        condition = None
        if plan.condition is not None:
            mapping = dict(left_map)
            for old, new in right_map.items():
                mapping[old + left_width] = new + new_left_width
            condition = remap_columns(plan.condition, mapping)
        return JoinNode(left, right, condition, plan.kind), {
            i: left_map[i] for i in needed
        }
    required = sorted(set(needed) | condition_cols)
    left_needed = [c for c in required if c < left_width]
    right_needed = [c - left_width for c in required if c >= left_width]
    left, left_map = _prune(plan.left, left_needed or [0])
    right, right_map = _prune(plan.right, right_needed or [0])
    new_left_width = len(left.schema)
    mapping: dict[int, int] = dict(left_map)
    for old, new in right_map.items():
        mapping[old + left_width] = new + new_left_width
    condition = (
        remap_columns(plan.condition, mapping) if plan.condition is not None else None
    )
    return JoinNode(left, right, condition, plan.kind), {i: mapping[i] for i in needed}


def _prune_aggregate(plan: AggregateNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    n_groups = len(plan.group_cols)
    # Group columns always survive (they define the groups); aggregates
    # nobody reads are dropped.
    kept_agg_positions = [
        i for i in range(len(plan.aggregates)) if (n_groups + i) in needed
    ]
    kept_aggs = [plan.aggregates[i] for i in kept_agg_positions]
    child_needed = set(plan.group_cols)
    for aggregate in kept_aggs:
        if aggregate.arg is not None:
            child_needed |= columns_used(aggregate.arg)
    child, mapping = _prune(plan.child, sorted(child_needed) or [0])
    new_groups = [mapping[i] for i in plan.group_cols]
    new_aggs = []
    for aggregate in kept_aggs:
        arg = (
            remap_columns(aggregate.arg, mapping)
            if aggregate.arg is not None
            else None
        )
        new_aggs.append(type(aggregate)(aggregate.func, arg, aggregate.distinct))
    names = [plan.names[i] for i in range(n_groups)] + [
        plan.names[n_groups + i] for i in kept_agg_positions
    ]
    new_plan = AggregateNode(child, new_groups, new_aggs, names)
    out_mapping: dict[int, int] = {}
    for i in range(n_groups):
        out_mapping[i] = i
    for new_pos, old_pos in enumerate(kept_agg_positions):
        out_mapping[n_groups + old_pos] = n_groups + new_pos
    return new_plan, {i: out_mapping[i] for i in needed}


def _prune_sort(plan: SortNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    required = sorted(set(needed) | {i for i, _ in plan.keys})
    child, mapping = _prune(plan.child, required)
    keys = [(mapping[i], d) for i, d in plan.keys]
    return SortNode(child, keys), {i: mapping[i] for i in needed}


def _prune_limit(plan: LimitNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    child, mapping = _prune(plan.child, needed)
    return LimitNode(child, plan.limit, plan.offset), {i: mapping[i] for i in needed}


def _prune_topn(plan: TopNNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    # Like Sort: the heap's own keys must survive pruning.
    required = sorted(set(needed) | {i for i, _ in plan.keys})
    child, mapping = _prune(plan.child, required)
    keys = [(mapping[i], d) for i, d in plan.keys]
    return TopNNode(child, keys, plan.limit, plan.offset), {
        i: mapping[i] for i in needed
    }


def _prune_all_columns(plan: PlanNode, needed: list[int]) -> tuple[PlanNode, dict[int, int]]:
    """Operators whose semantics read every column (Distinct, SetOp,
    Closure): recurse without narrowing."""
    new_children = []
    for child in plan.children:
        new_child, child_map = _prune(child, list(range(len(child.schema))))
        # Children must keep positional layout for these operators.
        if any(child_map[i] != i for i in child_map):
            raise PlanError("pruning reordered columns under a positional operator")
        new_children.append(new_child)
    return plan.with_children(new_children), {i: i for i in needed}


_HANDLERS = {
    ScanNode: _prune_leaf,
    ValuesNode: _prune_leaf,
    SharedScanNode: _prune_leaf,
    SelectNode: _prune_select,
    ProjectNode: _prune_project,
    JoinNode: _prune_join,
    AggregateNode: _prune_aggregate,
    SortNode: _prune_sort,
    LimitNode: _prune_limit,
    TopNNode: _prune_topn,
    DistinctNode: _prune_all_columns,
    SetOpNode: _prune_all_columns,
    ClosureNode: _prune_all_columns,
}
