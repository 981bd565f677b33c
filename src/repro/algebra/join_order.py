"""Greedy join ordering driven by the size estimates.

Flattens a tree of inner joins into (inputs, predicate conjuncts),
greedily builds a left-deep join order that keeps estimated intermediate
results small (classic minimum-intermediate-size heuristic), and
restores the original output column order with a final projection.
"""

from __future__ import annotations

from repro.exec.expressions import ColumnRef, and_, columns_used, conjuncts, remap_columns
from repro.exec.operators import JoinKind
from repro.algebra.estimates import Estimator
from repro.algebra.plan import JoinNode, PlanNode, ProjectNode


def _flatten(plan: PlanNode) -> tuple[list[PlanNode], list]:
    """Collect the inputs and predicates of a maximal inner-join tree.

    Predicates are expressed over the concatenation of inputs in the
    returned order.
    """
    if isinstance(plan, JoinNode) and plan.kind is JoinKind.INNER:
        left_inputs, left_predicates = _flatten(plan.left)
        right_inputs, right_predicates = _flatten(plan.right)
        offset = sum(len(p.schema) for p in left_inputs)
        shifted = [
            remap_columns(p, {c: c + offset for c in columns_used(p)})
            for p in right_predicates
        ]
        predicates = left_predicates + shifted
        if plan.condition is not None:
            predicates.extend(conjuncts(plan.condition))
        return left_inputs + right_inputs, predicates
    return [plan], []


def reorder_joins(plan: PlanNode, estimator: Estimator) -> PlanNode:
    """Reorder a tree of inner joins; other nodes are recursed into.

    The output schema (names and column order) is preserved exactly, so
    parents never notice the rewrite.
    """
    # First normalize children (join clusters can appear anywhere).
    plan = plan.with_children([reorder_joins(c, estimator) for c in plan.children])
    if not (isinstance(plan, JoinNode) and plan.kind is JoinKind.INNER):
        return plan
    inputs, predicates = _flatten(plan)
    if len(inputs) < 3:
        return plan
    ordered = _greedy_order(inputs, predicates, estimator)
    if ordered is None:
        return plan
    new_plan, global_to_new = ordered
    # Restore the original column order and names.
    original_schema = plan.schema
    exprs = [ColumnRef(global_to_new[i]) for i in range(len(original_schema))]
    restored = ProjectNode(new_plan, exprs, original_schema.names())
    if restored.is_identity():
        return new_plan
    return restored


def _greedy_order(
    inputs: list[PlanNode], predicates: list, estimator: Estimator
) -> tuple[PlanNode, dict[int, int]] | None:
    """Left-deep greedy ordering.

    Returns the joined plan and a mapping from "global" column indices
    (concatenation of *inputs* in original order) to output positions.
    """
    n = len(inputs)
    # Global index ranges of each input in the original concatenation.
    offsets = []
    position = 0
    for node in inputs:
        offsets.append(position)
        position += len(node.schema)

    def input_of(global_col: int) -> int:
        for i in reversed(range(n)):
            if global_col >= offsets[i]:
                return i
        raise AssertionError("column offset underflow")

    remaining_predicates = list(predicates)
    # Start from the smallest estimated input.
    sizes = [estimator.rows(node) for node in inputs]
    start = min(range(n), key=lambda i: (sizes[i], i))
    joined: set[int] = {start}
    current: PlanNode = inputs[start]
    # global column -> position in `current`.
    mapping: dict[int, int] = {
        offsets[start] + j: j for j in range(len(inputs[start].schema))
    }

    def attachable(candidate: int) -> list:
        future = joined | {candidate}
        return [
            p
            for p in remaining_predicates
            if all(input_of(c) in future for c in columns_used(p))
        ]

    while len(joined) < n:
        # Prefer candidates connected by at least one predicate.
        best_candidate = None
        best_rows = None
        best_connected = False
        for candidate in range(n):
            if candidate in joined:
                continue
            predicates_here = attachable(candidate)
            connected = bool(predicates_here)
            trial = _build_join(
                current, inputs[candidate], mapping, offsets[candidate],
                predicates_here,
            )
            rows = estimator.rows(trial[0])
            key = (not connected, rows, candidate)
            if best_candidate is None or key < (
                not best_connected,
                best_rows,
                best_candidate,
            ):
                best_candidate, best_rows, best_connected = candidate, rows, connected
        assert best_candidate is not None
        predicates_here = attachable(best_candidate)
        current, mapping = _build_join(
            current, inputs[best_candidate], mapping, offsets[best_candidate],
            predicates_here,
        )
        for p in predicates_here:
            remaining_predicates.remove(p)
        joined.add(best_candidate)

    # Any predicates never attached (shouldn't happen) become a filter.
    if remaining_predicates:
        from repro.algebra.plan import SelectNode

        remapped = [
            remap_columns(p, {c: mapping[c] for c in columns_used(p)})
            for p in remaining_predicates
        ]
        current = SelectNode(current, and_(*remapped))
    return current, mapping


def _build_join(
    current: PlanNode,
    new_input: PlanNode,
    mapping: dict[int, int],
    new_offset: int,
    predicates: list,
) -> tuple[PlanNode, dict[int, int]]:
    """Join *current* with *new_input*, attaching *predicates*."""
    current_width = len(current.schema)
    new_mapping = dict(mapping)
    for j in range(len(new_input.schema)):
        new_mapping[new_offset + j] = current_width + j
    condition = None
    if predicates:
        remapped = [
            remap_columns(p, {c: new_mapping[c] for c in columns_used(p)})
            for p in predicates
        ]
        condition = and_(*remapped)
    return JoinNode(current, new_input, condition, JoinKind.INNER), new_mapping
