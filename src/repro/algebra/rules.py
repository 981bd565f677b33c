"""The rewrite-rule knowledge base of the query optimizer.

Section 2.4: "A knowledge-based approach to query optimization is
chosen [...] The knowledge base contains rules concerning logical
transformations [...]".  Each rule here is a named, independent
transformation ``plan -> plan | None``; the optimizer applies the whole
rule set to every node until a fixpoint is reached, recording which
rules fired (the "explanations" a knowledge-based optimizer owes its
user).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ExpressionError
from repro.exec.compiler import compile_predicate, compile_projector, compile_scalar, guard_call
from repro.exec.expressions import (
    ColumnRef,
    Expr,
    Literal,
    and_,
    columns_used,
    conjuncts,
    is_constant,
    remap_columns,
    substitute_columns,
)
from repro.exec.operators import JoinKind
from repro.algebra.plan import (
    DistinctNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SelectNode,
    SetOpNode,
    SortNode,
    TopNNode,
    ValuesNode,
)

RuleFn = Callable[[PlanNode], PlanNode | None]


@dataclass(frozen=True)
class Rule:
    """One entry of the optimizer's knowledge base."""

    name: str
    description: str
    apply: RuleFn


# ---------------------------------------------------------------------------
# Selection rules.
# ---------------------------------------------------------------------------


def merge_selects(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, SelectNode) and isinstance(plan.child, SelectNode):
        inner = plan.child
        return SelectNode(inner.child, and_(plan.predicate, inner.predicate))
    return None


def fold_constant_conjuncts(plan: PlanNode) -> PlanNode | None:
    """Evaluate constant conjuncts now; drop TRUE, short-circuit FALSE."""
    if not isinstance(plan, SelectNode):
        return None
    parts = conjuncts(plan.predicate)
    kept: list[Expr] = []
    changed = False
    for part in parts:
        if is_constant(part):
            changed = True
            try:
                value = guard_call(compile_predicate(part), ())
            except ExpressionError:
                # Leave faulty constants in place: they must raise at
                # execution time, not silently disappear.
                kept.append(part)
                changed = False if len(parts) == 1 else changed
                continue
            if value:
                continue  # TRUE conjunct: drop
            return ValuesNode(plan.schema, [])  # FALSE: empty relation
        else:
            kept.append(part)
    if not changed:
        return None
    if not kept:
        return plan.child
    return SelectNode(plan.child, and_(*kept))


def select_on_values(plan: PlanNode) -> PlanNode | None:
    """Filter literal relations at planning time."""
    if isinstance(plan, SelectNode) and isinstance(plan.child, ValuesNode):
        values = plan.child
        try:
            predicate = compile_predicate(plan.predicate)
            rows = [  # prismalint: disable=PL101 -- constant folding at plan time; optimizer work is not simulated execution
                row for row in values.rows if guard_call(predicate, row)
            ]
        except ExpressionError:
            return None  # must fail at run time instead
        return ValuesNode(values.schema, rows)
    return None


def push_select_below_project(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, SelectNode) and isinstance(plan.child, ProjectNode):
        project = plan.child
        try:
            pushed = substitute_columns(plan.predicate, project.exprs)
        except IndexError:
            return None
        return ProjectNode(
            SelectNode(project.child, pushed), project.exprs, project.names
        )
    return None


def push_select_below_join(plan: PlanNode) -> PlanNode | None:
    """Route conjuncts to the join side(s) they mention.

    For inner joins, single-side conjuncts move into that child and the
    rest merges into the join condition.  For left-outer joins only
    left-side conjuncts may move (pushing right-side ones would turn
    NULL-padded rows into matches).  Semi/anti joins expose only left
    columns, so every conjunct moves left.
    """
    if not (isinstance(plan, SelectNode) and isinstance(plan.child, JoinNode)):
        return None
    join = plan.child
    left_width = len(join.left.schema)
    to_left: list[Expr] = []
    to_right: list[Expr] = []
    to_join: list[Expr] = []
    for part in conjuncts(plan.predicate):
        used = columns_used(part)
        if used and all(c < left_width for c in used):
            to_left.append(part)
        elif (
            used
            and all(c >= left_width for c in used)
            and join.kind is JoinKind.INNER
        ):
            to_right.append(
                remap_columns(part, {c: c - left_width for c in used})
            )
        elif join.kind is JoinKind.INNER:
            to_join.append(part)
        else:
            # Not pushable for this join kind; bail out entirely if
            # nothing else moves (avoids infinite loops).
            to_join.append(part)
    if not to_left and not to_right and join.kind is not JoinKind.INNER:
        return None
    if not to_left and not to_right and join.kind is JoinKind.INNER and not to_join:
        return None
    left = SelectNode(join.left, and_(*to_left)) if to_left else join.left
    right = SelectNode(join.right, and_(*to_right)) if to_right else join.right
    if join.kind is JoinKind.INNER:
        condition_parts = to_join + (
            conjuncts(join.condition) if join.condition is not None else []
        )
        condition = and_(*condition_parts) if condition_parts else None
        new_join = JoinNode(left, right, condition, join.kind)
        if new_join.key() == plan.key():
            return None
        return new_join
    new_join = JoinNode(left, right, join.condition, join.kind)
    residual = to_join
    result: PlanNode = new_join
    if residual:
        result = SelectNode(new_join, and_(*residual))
    if result.key() == plan.key():
        return None
    return result


def push_select_below_setop(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, SelectNode) and isinstance(plan.child, SetOpNode):
        setop = plan.child
        # Positions align across both children by definition of set ops.
        predicate = plan.predicate
        left = SelectNode(setop.left, predicate)
        right_pred = remap_columns(
            predicate, {c: c for c in columns_used(predicate)}
        )
        right = SelectNode(setop.right, right_pred)
        return SetOpNode(setop.op, left, right)
    return None


def push_select_below_distinct(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, SelectNode) and isinstance(plan.child, DistinctNode):
        return DistinctNode(SelectNode(plan.child.child, plan.predicate))
    return None


def push_select_below_sort(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, SelectNode) and isinstance(plan.child, SortNode):
        sort = plan.child
        return SortNode(SelectNode(sort.child, plan.predicate), sort.keys)
    return None


# ---------------------------------------------------------------------------
# Projection rules.
# ---------------------------------------------------------------------------


def remove_identity_project(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, ProjectNode) and plan.is_identity():
        return plan.child
    return None


def merge_projects(plan: PlanNode) -> PlanNode | None:
    if isinstance(plan, ProjectNode) and isinstance(plan.child, ProjectNode):
        inner = plan.child
        try:
            composed = [substitute_columns(e, inner.exprs) for e in plan.exprs]
        except IndexError:
            return None
        return ProjectNode(inner.child, composed, plan.names)
    return None


def project_on_values(plan: PlanNode) -> PlanNode | None:
    """Evaluate projections of literal relations at planning time."""
    if (
        isinstance(plan, ProjectNode)
        and isinstance(plan.child, ValuesNode)
        and len(plan.child.rows) <= 64
    ):
        values = plan.child
        try:
            projector = compile_projector(plan.exprs)
            rows = [  # prismalint: disable=PL101 -- constant folding at plan time (<= 64 rows); optimizer work is not simulated execution
                guard_call(projector, row) for row in values.rows
            ]
        except ExpressionError:
            return None
        return ValuesNode(plan.schema, rows)
    return None


# ---------------------------------------------------------------------------
# Limit / top-N rules (modeled on opteryx's limit pushdown).
# ---------------------------------------------------------------------------


def fuse_sort_limit(plan: PlanNode) -> PlanNode | None:
    """ORDER BY + LIMIT → one bounded-heap top-N operator.

    Distributed, this is the rule that changes shipped bytes: each site
    ships its best ``offset + limit`` rows instead of a whole sorted
    partition.  Offset-only limits (``limit is None``) stay unfused —
    a heap needs a finite bound.
    """
    if (
        isinstance(plan, LimitNode)
        and plan.limit is not None
        and isinstance(plan.child, SortNode)
    ):
        sort = plan.child
        return TopNNode(sort.child, sort.keys, plan.limit, plan.offset)
    return None


def _narrows(project: ProjectNode) -> bool:
    """Does *project* emit fewer columns than it consumes?

    Limit/top-N pushes below a projection trade projection CPU (fewer
    rows projected) against *shipped width*: in the distributed
    executor the per-site row cap happens wherever the limit/top-N
    node sits, so cutting below a narrowing projection makes every
    site ship pre-projection (wide) rows.  Pushing is only free when
    the projection keeps the row at least as wide as its input.
    """
    return len(project.exprs) < len(project.child.schema)


def push_limit_below_project(plan: PlanNode) -> PlanNode | None:
    """Projections are 1:1, so cutting rows first is safe.

    Moves the limit toward the scans (and, once it meets a sort,
    :func:`fuse_sort_limit` takes over); the projection then runs on at
    most ``offset + limit`` rows.  Narrowing projections block the move
    — see :func:`_narrows` for the shipped-bytes argument.
    """
    if isinstance(plan, LimitNode) and isinstance(plan.child, ProjectNode):
        project = plan.child
        if _narrows(project):
            return None
        return ProjectNode(
            LimitNode(project.child, plan.limit, plan.offset),
            project.exprs,
            project.names,
        )
    return None


def push_topn_below_project(plan: PlanNode) -> PlanNode | None:
    """Top-N moves below a projection when its keys are plain columns.

    Row-wise projections preserve order and multiplicity, so when every
    sort key maps to a ``ColumnRef`` of the projection the heap can cut
    rows before the projection computes anything.  Computed sort keys
    block the move (they only exist above the projection), and so do
    narrowing projections — see :func:`_narrows`.
    """
    if not (isinstance(plan, TopNNode) and isinstance(plan.child, ProjectNode)):
        return None
    project = plan.child
    if _narrows(project):
        return None
    remapped = []
    for index, desc in plan.keys:
        expr = project.exprs[index]
        if not isinstance(expr, ColumnRef):
            return None
        remapped.append((expr.index, desc))
    return ProjectNode(
        TopNNode(project.child, remapped, plan.limit, plan.offset),
        project.exprs,
        project.names,
    )


# ---------------------------------------------------------------------------
# Join simplification.
# ---------------------------------------------------------------------------


def join_with_empty_values(plan: PlanNode) -> PlanNode | None:
    """An inner join with a provably empty side is empty."""
    if isinstance(plan, JoinNode) and plan.kind is JoinKind.INNER:
        for child in (plan.left, plan.right):
            if isinstance(child, ValuesNode) and not child.rows:
                return ValuesNode(plan.schema, [])
    return None


def constant_fold_expressions(plan: PlanNode) -> PlanNode | None:
    """Fold constant subexpressions inside Select predicates.

    ``a > 2 + 3`` becomes ``a > 5`` so the expression compiler emits a
    literal comparison.
    """
    if not isinstance(plan, SelectNode):
        return None
    folded = _fold(plan.predicate)
    if folded is plan.predicate or folded == plan.predicate:
        return None
    return SelectNode(plan.child, folded)


def _fold(expr: Expr) -> Expr:
    from repro.exec.expressions import _rebuild

    if isinstance(expr, Literal):
        return expr
    children = expr.children()
    folded = tuple(_fold(c) for c in children)
    if all(new is old for new, old in zip(folded, children)):
        # Nothing folded below: keep the original node so callers can
        # detect the no-op by identity instead of structural comparison.
        rebuilt = expr
    else:
        rebuilt = _rebuild(expr, folded)
    if is_constant(rebuilt) and not isinstance(rebuilt, Literal):
        try:
            return Literal(guard_call(compile_scalar(rebuilt), ()))
        except ExpressionError:
            return rebuilt
    return rebuilt


#: The optimizer's rule knowledge base, in application priority order.
KNOWLEDGE_BASE: tuple[Rule, ...] = (
    Rule("merge_selects", "collapse stacked selections into one", merge_selects),
    Rule(
        "constant_fold_expressions",
        "evaluate constant scalar subexpressions at plan time",
        constant_fold_expressions,
    ),
    Rule(
        "fold_constant_conjuncts",
        "drop TRUE conjuncts, empty the plan on FALSE",
        fold_constant_conjuncts,
    ),
    Rule("select_on_values", "filter literal relations at plan time", select_on_values),
    Rule(
        "push_select_below_project",
        "move filters below projections (composing expressions)",
        push_select_below_project,
    ),
    Rule(
        "push_select_below_join",
        "route filter conjuncts to the join side they mention",
        push_select_below_join,
    ),
    Rule(
        "push_select_below_setop",
        "filter both branches of a set operation",
        push_select_below_setop,
    ),
    Rule(
        "push_select_below_distinct",
        "filter before duplicate elimination",
        push_select_below_distinct,
    ),
    Rule(
        "push_select_below_sort",
        "filter before sorting",
        push_select_below_sort,
    ),
    Rule(
        "remove_identity_project",
        "drop projections that pass everything through",
        remove_identity_project,
    ),
    Rule("merge_projects", "compose stacked projections", merge_projects),
    Rule(
        "project_on_values",
        "evaluate projections of literal relations at plan time",
        project_on_values,
    ),
    Rule(
        "join_with_empty_values",
        "an inner join with an empty side is empty",
        join_with_empty_values,
    ),
    Rule(
        "fuse_sort_limit",
        "fuse ORDER BY + LIMIT into a bounded-heap top-N",
        fuse_sort_limit,
    ),
    Rule(
        "push_limit_below_project",
        "cut rows before projecting (projections are 1:1)",
        push_limit_below_project,
    ),
    Rule(
        "push_topn_below_project",
        "heap-cut rows before projecting when sort keys are plain columns",
        push_topn_below_project,
    ),
)


def apply_rules(
    plan: PlanNode,
    rules: Sequence[Rule] = KNOWLEDGE_BASE,
    max_passes: int = 25,
) -> tuple[PlanNode, list[str]]:
    """Apply *rules* to every node, bottom-up, until a fixpoint.

    Returns the rewritten plan and the names of the rules that fired
    (in firing order, with repeats).
    """
    fired: list[str] = []

    def rewrite_node(node: PlanNode) -> PlanNode:
        node = node.with_children([rewrite_node(c) for c in node.children])
        changed = True
        while changed:
            changed = False
            for rule in rules:
                replacement = rule.apply(node)
                if replacement is not None and replacement.key() != node.key():
                    fired.append(rule.name)
                    node = replacement
                    # The replacement's children are new; normalize them.
                    node = node.with_children(
                        [rewrite_node(c) for c in node.children]
                    )
                    changed = True
                    break
        return node

    for _ in range(max_passes):
        before = plan.key()
        plan = rewrite_node(plan)
        if plan.key() == before:
            break
    return plan, fired
