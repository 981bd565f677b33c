"""Whole-program compilation of PRISMAlog to relational algebra.

Section 2.3 defines PRISMAlog semantics "in terms of extensions of the
relational algebra" — relational algebra plus fixpoints — so every
program compiles into ordinary plans that run through the *distributed*
executor like any SQL query: fragment-parallel scans, repartitioned
joins, the lot.

Each strongly connected component of the program's predicates becomes
one of three things:

* non-recursive: view expansion, its rules a union of joins;
* the transitive-closure pattern: a :class:`ClosureNode`;
* any other recursion (mutual, non-linear, same-generation): a
  :class:`RecursiveComponent`, its seed plans (facts and exit rules) and
  the semi-naive delta variants of its recursive rules, which the
  dispatch plan runs as a distributed fixpoint before the queries that
  read it.  Its predicates are read through a :class:`SharedScanNode`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import PrismalogError
from repro.algebra.plan import (
    DistinctNode,
    PlanNode,
    ScanNode,
    SetOpNode,
    SharedScanNode,
    ValuesNode,
)
from repro.prismalog.ast import Program, Query
from repro.prismalog.translate import (
    PredicateDef,
    ProgramAnalysis,
    analyze_program,
    detect_transitive_closure,
    query_plan,
    translate_rule,
)
from repro.storage.schema import Schema


@dataclass
class RecursiveComponent:
    """A recursion as plans: one the closure operator cannot express,
    or the closure's own loop (:func:`repro.core.dispatch.closure_loop`).

    ``names[i]`` is materialized under ``tokens[i]``, seeded by
    ``seeds[i]`` and grown by the delta variants ``variants[i]``, whose
    :class:`~repro.algebra.plan.DeltaScanNode` /
    :class:`~repro.algebra.plan.TotalScanNode` leaves name the
    predicate.  ``reads`` are the tokens of the loop-invariant relations
    the rules read from outside the component; ``inputs`` the
    ``(token, plan)`` of those no earlier component materialized, which
    the loop materializes once before its first round.
    """

    names: list[str]
    tokens: list[str]
    reads: list[str]
    inputs: list[tuple[str, PlanNode]]
    seeds: list[PlanNode]
    variants: list[list[PlanNode]]

    def plans(self) -> list[PlanNode]:
        return (
            [plan for _token, plan in self.inputs]
            + self.seeds
            + [plan for plans in self.variants for plan in plans]
        )


class CompiledProgram:
    """Plans for each derived predicate and each query of a program."""

    def __init__(
        self,
        analysis: ProgramAnalysis,
        predicate_plans: dict[str, PlanNode],
        query_plans: list[tuple[Query, PlanNode]],
        closure_predicates: list[str],
        components: list[RecursiveComponent],
    ):
        self.analysis = analysis
        self.predicate_plans = predicate_plans
        self.query_plans = query_plans
        self.closure_predicates = closure_predicates
        self.components = components

    def components_for(self, plan: PlanNode) -> list[RecursiveComponent]:
        """The recursive components *plan* reads, directly or through
        other components, in evaluation order."""
        wanted = _shared_tokens([plan])
        needed: list[RecursiveComponent] = []
        for component in reversed(self.components):
            if wanted.intersection(component.tokens):
                needed.append(component)
                wanted |= _shared_tokens(component.plans())
        return needed[::-1]


def compile_program(program: Program, edb_schemas: dict[str, Schema]) -> CompiledProgram:
    """Compile *program* into algebra plans and recursive components."""
    analysis = analyze_program(program, edb_schemas)
    predicates = analysis.predicates
    for definition in predicates.values():
        if not (definition.is_edb or definition.is_derived or definition.fact_rows):
            raise PrismalogError(
                f"predicate {definition.name!r} has no facts, rules, or"
                " database relation"
            )
    predicate_plans: dict[str, PlanNode] = {}
    closure_predicates: list[str] = []
    components: list[RecursiveComponent] = []

    for component in analysis.components:
        name = component[0]
        if not (name in analysis.recursive or len(component) > 1):
            # Datalog relations are sets.
            plan = _seed(predicates[name], predicates, set())
            predicate_plans[name] = DistinctNode(_expand(plan, predicate_plans))
            continue
        closure = None
        if len(component) == 1:
            closure = detect_transitive_closure(name, predicates[name], predicates)
        if closure is not None:
            predicate_plans[name] = _expand(closure, predicate_plans)
            closure_predicates.append(name)
            continue
        recursive = _recursive_component(component, predicates, predicate_plans)
        components.append(recursive)
        for member, token in zip(component, recursive.tokens):
            predicate_plans[member] = SharedScanNode(token, predicates[member].schema)

    query_plans: list[tuple[Query, PlanNode]] = []
    for query in program.queries:
        name = query.atom.predicate
        if name not in predicates:
            raise PrismalogError(f"unknown predicate {name!r} in query")
        plan = query_plan(query.atom, predicates[name])
        query_plans.append((query, _expand(plan, predicate_plans)))

    return CompiledProgram(
        analysis, predicate_plans, query_plans, closure_predicates, components
    )


def _token(definition: PredicateDef) -> str:
    """A predicate's shared-relation token: ``name/arity`` cannot clash
    with the optimizer's ``cse<n>`` tokens."""
    return f"{definition.name}/{definition.arity}"


def _seed(
    definition: PredicateDef, predicates: dict[str, PredicateDef], component: set[str]
) -> PlanNode:
    """The union of *definition*'s facts and the plans of its rules that
    read nothing in *component* (no rows when there are none)."""
    branches: list[PlanNode] = []
    if definition.fact_rows:
        branches.append(ValuesNode(definition.schema, definition.fact_rows))
    for rule in definition.rules:
        if component.isdisjoint(atom.predicate for atom in rule.body_atoms()):
            branches.append(translate_rule(rule, predicates, set()).plans[0])
    plan = branches[0] if branches else ValuesNode(definition.schema, ())
    for branch in branches[1:]:
        plan = SetOpNode("union_all", plan, branch)
    return plan


def _recursive_component(
    component: list[str],
    predicates: dict[str, PredicateDef],
    predicate_plans: dict[str, PlanNode],
) -> RecursiveComponent:
    members = set(component)
    # What the rules read from outside: a relation an earlier component
    # materialized is read as it is, anything else is materialized once.
    outside: dict[str, SharedScanNode] = {}
    inputs: list[tuple[str, PlanNode]] = []
    for name in component:
        for rule in predicates[name].rules:
            for atom in rule.body_atoms():
                other = atom.predicate
                if other in members or other in outside:
                    continue
                definition = predicates[other]
                plan = predicate_plans.get(other, ScanNode(other, definition.schema))
                if not isinstance(plan, SharedScanNode):
                    inputs.append((_token(definition), plan))
                    plan = SharedScanNode(_token(definition), definition.schema)
                outside[other] = plan
    seeds: list[PlanNode] = []
    variants: list[list[PlanNode]] = []
    for name in component:
        seeds.append(_expand(_seed(predicates[name], predicates, members), outside))
        variants.append([
            _expand(plan, outside)
            for rule in predicates[name].rules
            if not members.isdisjoint(atom.predicate for atom in rule.body_atoms())
            for plan in translate_rule(rule, predicates, members).plans
        ])
    tokens = [_token(predicates[name]) for name in component]
    reads = [plan.token for plan in outside.values()]
    return RecursiveComponent(list(component), tokens, reads, inputs, seeds, variants)


def _shared_tokens(plans: list[PlanNode]) -> set[str]:
    return {
        node.token for plan in plans for node in plan.walk() if isinstance(node, SharedScanNode)
    }


def _expand(plan: PlanNode, predicate_plans: Mapping[str, PlanNode]) -> PlanNode:
    """Replace scans of derived predicates with their defining plans."""
    if isinstance(plan, ScanNode) and plan.table_name in predicate_plans:
        return predicate_plans[plan.table_name]
    return plan.with_children(
        [_expand(child, predicate_plans) for child in plan.children]
    )
