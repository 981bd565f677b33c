"""Translation of PRISMAlog rules into relational algebra.

"The semantics of PRISMAlog is defined in terms of extensions of the
relational algebra.  Facts correspond to tuples in relations in the
database.  Rules are view definitions including recursion."
(Section 2.3.)

A rule body becomes a left-deep join of its atoms; shared variables
become equi-join conditions, constants become selections, builtins
become residual predicates, and the head becomes a projection.  For
rules inside a recursive component, one *delta variant* is produced per
recursive body atom (the semi-naive rewriting); the evaluator unions
the variants each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PrismalogError
from repro.exec import expressions as ex
from repro.exec.operators import JoinKind
from repro.algebra.plan import (
    ClosureNode,
    DeltaScanNode,
    DistinctNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    TotalScanNode,
)
from repro.prismalog.ast import Atom, Builtin, Const, Program, Rule, Var
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType


def predicate_schema(name: str, arity: int) -> Schema:
    """The dynamically-typed schema of a PRISMAlog predicate."""
    if arity < 1:
        raise PrismalogError(f"predicate {name!r} needs at least one argument")
    return Schema(Column(f"c{i}", DataType.ANY) for i in range(arity))


# ---------------------------------------------------------------------------
# Program analysis.
# ---------------------------------------------------------------------------


@dataclass
class PredicateDef:
    """Everything known about one predicate of a program."""

    name: str
    arity: int
    schema: Schema
    rules: list[Rule] = field(default_factory=list)
    fact_rows: list[tuple] = field(default_factory=list)
    is_edb: bool = False  # bound to a database relation

    @property
    def is_derived(self) -> bool:
        return bool(self.rules)


@dataclass
class ProgramAnalysis:
    """Predicates, dependency SCCs (in evaluation order), and queries."""

    predicates: dict[str, PredicateDef]
    components: list[list[str]]  # topologically ordered SCCs of derived preds
    recursive: set[str]


def analyze_program(
    program: Program, edb_schemas: dict[str, Schema] | None = None
) -> ProgramAnalysis:
    """Check safety/consistency and compute the evaluation order."""
    edb_schemas = edb_schemas or {}
    predicates: dict[str, PredicateDef] = {}

    def declare(name: str, arity: int) -> PredicateDef:
        existing = predicates.get(name)
        if existing is not None:
            if existing.arity != arity:
                raise PrismalogError(
                    f"predicate {name!r} used with arities"
                    f" {existing.arity} and {arity}"
                )
            return existing
        if name in edb_schemas:
            schema = edb_schemas[name]
            if len(schema) != arity:
                raise PrismalogError(
                    f"predicate {name!r} has arity {arity} but database"
                    f" relation has {len(schema)} columns"
                )
            definition = PredicateDef(name, arity, schema, is_edb=True)
        else:
            definition = PredicateDef(name, arity, predicate_schema(name, arity))
        predicates[name] = definition
        return definition

    for rule in program.rules:
        head_def = declare(rule.head.predicate, rule.head.arity)
        if head_def.is_edb:
            raise PrismalogError(
                f"cannot define rules/facts for database relation"
                f" {rule.head.predicate!r}"
            )
        if rule.is_fact:
            head_def.fact_rows.append(
                tuple(term.value for term in rule.head.terms)  # type: ignore[union-attr]
            )
            continue
        _check_safety(rule)
        head_def.rules.append(rule)
        for atom in rule.body_atoms():
            declare(atom.predicate, atom.arity)
    for query in program.queries:
        declare(query.atom.predicate, query.atom.arity)

    components, recursive = _condensation(program, predicates)
    return ProgramAnalysis(predicates, components, recursive)


def _check_safety(rule: Rule) -> None:
    """Definite-clause safety: every head/builtin variable must occur in
    a positive body atom."""
    bound = {
        variable.name
        for atom in rule.body_atoms()
        for variable in atom.variables()
    }
    for variable in rule.head.variables():
        if variable.name not in bound:
            raise PrismalogError(
                f"unsafe rule {rule.display()}: head variable"
                f" {variable.name} not bound in body"
            )
    for builtin in rule.body_builtins():
        for variable in builtin.variables():
            if variable.name not in bound:
                raise PrismalogError(
                    f"unsafe rule {rule.display()}: comparison variable"
                    f" {variable.name} not bound by any atom"
                )
    if not rule.body_atoms():
        raise PrismalogError(
            f"rule {rule.display()} has no positive body atom"
        )


def _condensation(
    program: Program, predicates: dict[str, PredicateDef]
) -> tuple[list[list[str]], set[str]]:
    """Tarjan SCCs of the predicate dependency graph, in reverse
    topological (= evaluation) order, restricted to derived predicates."""
    graph: dict[str, set[str]] = {name: set() for name in predicates}
    for rule in program.proper_rules():
        for atom in rule.body_atoms():
            graph[rule.head.predicate].add(atom.predicate)

    index_counter = 0
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        nonlocal index_counter
        indices[node] = low[node] = index_counter
        index_counter += 1
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph[node]):
            if successor not in indices:
                strongconnect(successor)
                low[node] = min(low[node], low[successor])
            elif successor in on_stack:
                low[node] = min(low[node], indices[successor])
        if low[node] == indices[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            components.append(sorted(component))

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(graph) + 100))
    try:
        for name in sorted(graph):
            if name not in indices:
                strongconnect(name)
    finally:
        sys.setrecursionlimit(old_limit)

    # Tarjan emits components in reverse topological order of the
    # dependency direction head -> body, i.e. dependencies first: exactly
    # evaluation order.
    recursive: set[str] = set()
    ordered: list[list[str]] = []
    for component in components:
        derived = [
            name for name in component if predicates[name].is_derived or predicates[name].fact_rows
        ]
        if len(component) > 1:
            recursive.update(component)
        elif component[0] in graph[component[0]]:
            recursive.add(component[0])
        if derived:
            ordered.append(derived)
    return ordered, recursive


# ---------------------------------------------------------------------------
# Rule translation.
# ---------------------------------------------------------------------------


@dataclass
class RuleVariants:
    """Plans for one rule: a single plan if non-recursive, else one
    semi-naive delta variant per recursive body atom."""

    rule: Rule
    plans: list[PlanNode]


def translate_rule(
    rule: Rule,
    predicates: dict[str, PredicateDef],
    recursive_in_component: set[str],
) -> RuleVariants:
    """Translate *rule* into algebra plan(s).

    ``recursive_in_component`` holds the predicates of the SCC currently
    being evaluated; occurrences of those in the body read the recursion
    tokens (named after the predicate) rather than materialized tables.
    """
    atoms = rule.body_atoms()
    recursive_positions = [
        i for i, atom in enumerate(atoms) if atom.predicate in recursive_in_component
    ]
    if not recursive_positions:
        return RuleVariants(rule, [_translate_body(rule, predicates, {})])
    plans = []
    for delta_position in recursive_positions:
        roles = {i: "total" for i in recursive_positions}
        roles[delta_position] = "delta"
        plans.append(_translate_body(rule, predicates, roles))
    return RuleVariants(rule, plans)


def _atom_plan(
    atom: Atom, predicates: dict[str, PredicateDef], role: str | None
) -> PlanNode:
    definition = predicates[atom.predicate]
    if role == "delta":
        return DeltaScanNode(atom.predicate, definition.schema)
    if role == "total":
        return TotalScanNode(atom.predicate, definition.schema)
    return ScanNode(atom.predicate, definition.schema)


def _translate_body(
    rule: Rule,
    predicates: dict[str, PredicateDef],
    roles: dict[int, str],
) -> PlanNode:
    """Left-deep join of body atoms + selections + head projection."""
    atoms = rule.body_atoms()
    plan: PlanNode | None = None
    offset = 0
    #: variable name -> column index in the running concatenation
    bindings: dict[str, int] = {}
    pending: list[ex.Expr] = []  # constant-argument selections

    for position, atom in enumerate(atoms):
        atom_plan = _atom_plan(atom, predicates, roles.get(position))
        width = len(atom_plan.schema)
        join_conditions: list[ex.Expr] = []
        local_selects: list[ex.Expr] = []
        local_bindings: dict[str, int] = {}
        for argument_index, term in enumerate(atom.terms):
            global_index = offset + argument_index
            if isinstance(term, Const):
                local_selects.append(
                    ex.Comparison(
                        "=", ex.ColumnRef(global_index), ex.Literal(term.value)
                    )
                )
            else:
                if term.name == "_":
                    continue  # anonymous variable matches anything
                if term.name in local_bindings:
                    # Repeated variable inside one atom: equality there.
                    local_selects.append(
                        ex.Comparison(
                            "=",
                            ex.ColumnRef(local_bindings[term.name] + offset),
                            ex.ColumnRef(global_index),
                        )
                    )
                elif term.name in bindings:
                    join_conditions.append(
                        ex.Comparison(
                            "=",
                            ex.ColumnRef(bindings[term.name]),
                            ex.ColumnRef(global_index),
                        )
                    )
                    local_bindings.setdefault(term.name, argument_index)
                else:
                    bindings[term.name] = global_index
                    local_bindings[term.name] = argument_index
        if plan is None:
            plan = atom_plan
        else:
            condition = ex.and_(*join_conditions) if join_conditions else None
            plan = JoinNode(plan, atom_plan, condition, JoinKind.INNER)
        pending.extend(local_selects)
        offset += width

    assert plan is not None  # safety check guarantees >=1 atom
    # Builtins and constant selections become one big filter.
    for builtin in rule.body_builtins():
        pending.append(
            ex.Comparison(
                builtin.op,
                _term_expr(builtin.left, bindings),
                _term_expr(builtin.right, bindings),
            )
        )
    if pending:
        plan = SelectNode(plan, ex.and_(*pending))

    # Head projection: variables come from bindings, constants become
    # literal columns.
    exprs: list[ex.Expr] = []
    names: list[str] = []
    for argument_index, term in enumerate(rule.head.terms):
        if isinstance(term, Const):
            exprs.append(ex.Literal(term.value))
        else:
            exprs.append(ex.ColumnRef(bindings[term.name]))
        names.append(f"c{argument_index}")
    return ProjectNode(plan, exprs, names)


def _term_expr(term, bindings: dict[str, int]) -> ex.Expr:
    if isinstance(term, Const):
        return ex.Literal(term.value)
    return ex.ColumnRef(bindings[term.name])


# ---------------------------------------------------------------------------
# Transitive-closure pattern detection (maps recursion onto the OFM's
# dedicated closure operator, Section 2.5).
# ---------------------------------------------------------------------------


def detect_transitive_closure(
    name: str,
    definition: PredicateDef,
    predicates: dict[str, PredicateDef],
) -> PlanNode | None:
    """Recognize ``p = TC(e)`` rule shapes and emit a ClosureNode.

    Matches the canonical pair of rules (in either linear form)::

        p(X, Y) :- e(X, Y).
        p(X, Z) :- e(X, Y), p(Y, Z).     -- right-linear
        p(X, Z) :- p(X, Y), e(Y, Z).     -- left-linear

    over a binary, non-recursive ``e``.  Returns ``None`` when the
    pattern does not apply.
    """
    if definition.arity != 2 or len(definition.rules) != 2 or definition.fact_rows:
        return None
    base_rule = None
    step_rule = None
    for rule in definition.rules:
        body = rule.body_atoms()
        if len(rule.body) == 1 and len(body) == 1 and body[0].predicate != name:
            base_rule = rule
        elif len(rule.body) == 2 and len(body) == 2:
            step_rule = rule
    if base_rule is None or step_rule is None:
        return None
    edge = base_rule.body_atoms()[0]
    if edge.predicate == name or edge.arity != 2:
        return None
    edge_def = predicates.get(edge.predicate)
    if edge_def is None or edge_def.is_derived:
        return None
    # Base must be p(X, Y) :- e(X, Y) with distinct variables.
    head_terms = base_rule.head.terms
    if (
        head_terms != edge.terms
        or not all(isinstance(t, Var) for t in head_terms)
        or head_terms[0] == head_terms[1]
    ):
        return None
    # Step: p(X, Z) :- e(X, Y), p(Y, Z)   or   p(X, Z) :- p(X, Y), e(Y, Z).
    first, second = step_rule.body_atoms()
    hx, hz = step_rule.head.terms
    if not (isinstance(hx, Var) and isinstance(hz, Var)):
        return None

    def matches(e_atom: Atom, p_atom: Atom, e_first: bool) -> bool:
        if e_atom.predicate != edge.predicate or p_atom.predicate != name:
            return False
        if not all(isinstance(t, Var) for t in e_atom.terms + p_atom.terms):
            return False
        if e_first:
            # e(X, Y), p(Y, Z)
            return (
                e_atom.terms[0] == hx
                and e_atom.terms[1] == p_atom.terms[0]
                and p_atom.terms[1] == hz
            )
        # p(X, Y), e(Y, Z)
        return (
            p_atom.terms[0] == hx
            and p_atom.terms[1] == e_atom.terms[0]
            and e_atom.terms[1] == hz
        )

    right_linear = matches(first, second, e_first=True)
    left_linear = matches(second, first, e_first=False)
    if not (right_linear or left_linear):
        return None
    return ClosureNode(ScanNode(edge.predicate, edge_def.schema))


def query_plan(atom: Atom, definition: PredicateDef) -> PlanNode:
    """Plan for ``? p(t1, ..., tn)`` over the materialized predicate.

    Constants become selections; the output projects the variable
    positions (in first-appearance order); repeated variables add
    equality selections.  A fully ground query returns a single boolean
    witness column per match.
    """
    plan: PlanNode = ScanNode(atom.predicate, definition.schema)
    selects: list[ex.Expr] = []
    seen: dict[str, int] = {}
    out_exprs: list[ex.Expr] = []
    out_names: list[str] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            selects.append(
                ex.Comparison("=", ex.ColumnRef(position), ex.Literal(term.value))
            )
        elif term.name == "_":
            continue
        elif term.name in seen:
            selects.append(
                ex.Comparison(
                    "=", ex.ColumnRef(seen[term.name]), ex.ColumnRef(position)
                )
            )
        else:
            seen[term.name] = position
            out_exprs.append(ex.ColumnRef(position, term.name))
            out_names.append(term.name)
    if selects:
        plan = SelectNode(plan, ex.and_(*selects))
    if not out_exprs:
        # Ground query: project a witness so the result is true/false.
        out_exprs = [ex.Literal(True)]
        out_names = ["true"]
    return DistinctNode(ProjectNode(plan, out_exprs, out_names))
