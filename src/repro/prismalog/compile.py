"""Whole-program compilation of PRISMAlog to relational algebra.

Section 2.3 defines PRISMAlog semantics "in terms of extensions of the
relational algebra" — so a program whose recursion is expressible by the
closure operator compiles into one ordinary plan per query, and those
plans run through the *distributed* executor like any SQL query:
fragment-parallel scans, repartitioned joins, the lot.

Compilable programs: every strongly connected component is either
non-recursive (view expansion: rules become union-of-joins) or matches
the transitive-closure pattern (it becomes a :class:`ClosureNode`).
General recursion (mutual, non-linear, non-TC) returns ``None`` and the
caller falls back to the semi-naive engine.
"""

from __future__ import annotations

from repro.errors import PrismalogError
from repro.algebra.plan import (
    DistinctNode,
    PlanNode,
    ScanNode,
    SetOpNode,
    ValuesNode,
)
from repro.prismalog.ast import Program, Query
from repro.prismalog.translate import (
    ProgramAnalysis,
    analyze_program,
    detect_transitive_closure,
    query_plan,
    translate_rule,
)
from repro.storage.schema import Schema


class CompiledProgram:
    """Plans for each derived predicate and each query of a program."""

    def __init__(
        self,
        analysis: ProgramAnalysis,
        predicate_plans: dict[str, PlanNode],
        query_plans: list[tuple[Query, PlanNode]],
        closure_predicates: list[str],
    ):
        self.analysis = analysis
        self.predicate_plans = predicate_plans
        self.query_plans = query_plans
        self.closure_predicates = closure_predicates


def compile_program(
    program: Program,
    edb_schemas: dict[str, Schema],
) -> CompiledProgram | None:
    """Compile *program* into pure algebra plans, or ``None``.

    ``None`` means the program needs the general fixpoint engine
    (recursion beyond the TC pattern).
    """
    analysis = analyze_program(program, edb_schemas)
    for definition in analysis.predicates.values():
        if not (definition.is_edb or definition.is_derived or definition.fact_rows):
            raise PrismalogError(
                f"predicate {definition.name!r} has no facts, rules, or"
                " database relation"
            )
    predicate_plans: dict[str, PlanNode] = {}
    closure_predicates: list[str] = []

    for component in analysis.components:
        name = component[0]
        definition = analysis.predicates[name]
        recursive = name in analysis.recursive or len(component) > 1
        if recursive:
            if len(component) > 1:
                return None
            closure = detect_transitive_closure(
                name, definition, analysis.predicates
            )
            if closure is None:
                return None
            plan = _expand(closure, predicate_plans)
            closure_predicates.append(name)
        else:
            branches: list[PlanNode] = []
            if definition.fact_rows:
                branches.append(
                    ValuesNode(definition.schema, definition.fact_rows)
                )
            for rule in definition.rules:
                rule_plan = translate_rule(rule, analysis.predicates, set()).plans[0]
                branches.append(_expand(rule_plan, predicate_plans))
            # A component lists only predicates with facts or rules
            # (analyze_program), so there is always a first branch.
            plan = branches[0]
            for branch in branches[1:]:
                plan = SetOpNode("union_all", plan, branch)
            # Datalog relations are sets.
            plan = DistinctNode(plan)
        predicate_plans[name] = plan

    query_plans: list[tuple[Query, PlanNode]] = []
    for query in program.queries:
        name = query.atom.predicate
        if name not in analysis.predicates:
            raise PrismalogError(f"unknown predicate {name!r} in query")
        definition = analysis.predicates[name]
        plan = query_plan(query.atom, definition)
        query_plans.append((query, _expand(plan, predicate_plans)))

    return CompiledProgram(
        analysis, predicate_plans, query_plans, closure_predicates
    )


def _expand(plan: PlanNode, predicate_plans: dict[str, PlanNode]) -> PlanNode:
    """Replace scans of derived predicates with their defining plans."""
    if isinstance(plan, ScanNode) and plan.table_name in predicate_plans:
        return predicate_plans[plan.table_name]
    return plan.with_children(
        [_expand(child, predicate_plans) for child in plan.children]
    )
