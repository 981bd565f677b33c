"""The general-recursion oracle: PRISMAlog evaluated at one site.

Stratum-by-stratum (SCC-by-SCC) bottom-up evaluation over whole
relations: non-recursive predicates are materialized once; recursive
components run a semi-naive fixpoint over the delta variants produced by
the translator; and the canonical transitive-closure rule pair is
detected and routed to the OFM's closure operator (Section 2.5) unless
``use_closure_operator`` is off (E7's generic-fixpoint baseline).

The database runs every program through the distributed executor
(:mod:`repro.prismalog.compile`); this evaluator is what its answers
and round counts are checked against.  Database relations are handed in
as plain rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import ExecutionError, PrismalogError
from repro.exec.closure import seminaive_closure
from repro.exec.evaluation import Evaluator
from repro.exec.operators import Row, WorkMeter
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import DeltaScanNode, TotalScanNode
from repro.prismalog.ast import Program, Query
from repro.prismalog.parser import parse_program, parse_query
from repro.prismalog.translate import (
    PredicateDef,
    ProgramAnalysis,
    analyze_program,
    detect_transitive_closure,
    query_plan,
    translate_rule,
)
from repro.storage.schema import Schema


class FixpointExecutor(LocalExecutor):
    """A :class:`LocalExecutor` whose step plans also read a fixpoint's
    delta and total relations, bound per recursion token, and which
    keeps the rounds its last closure step took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recursion_delta: dict[str, list[Row]] = {}
        self._recursion_total: dict[str, list[Row]] = {}
        self.closure_rounds = 0

    def _step_ClosureNode(self, plan, rows: Sequence[Row]) -> list[Row]:
        result = seminaive_closure([tuple(r) for r in rows], self.meter)
        self.closure_rounds = result.iterations
        return list(result.rows)

    def bind_recursion(self, token: str, delta: Sequence[Row], total: Sequence[Row]) -> None:
        """Expose delta/total relations for a recursion token (one per
        predicate of the component being evaluated)."""
        self._recursion_delta[token] = list(delta)
        self._recursion_total[token] = list(total)

    def _run_DeltaScanNode(self, plan: DeltaScanNode) -> list[Row]:
        try:
            return list(self._recursion_delta[plan.token])
        except KeyError:
            raise ExecutionError(
                f"delta scan outside fixpoint for token {plan.token!r}"
            ) from None

    def _run_TotalScanNode(self, plan: TotalScanNode) -> list[Row]:
        try:
            return list(self._recursion_total[plan.token])
        except KeyError:
            raise ExecutionError(
                f"total scan outside fixpoint for token {plan.token!r}"
            ) from None


@dataclass
class PrismalogResult:
    """The answer to one PRISMAlog query: a set-oriented relation."""

    query: Query
    columns: list[str]
    rows: list[Row]

    @property
    def is_true(self) -> bool:
        """For ground queries: did any matching fact exist?"""
        return bool(self.rows)


@dataclass
class EvaluationStats:
    """Observability for E6/E7: what the evaluation actually did."""

    fixpoint_iterations: dict[str, int] = field(default_factory=dict)
    closure_operator_hits: list[str] = field(default_factory=list)
    materialized_rows: dict[str, int] = field(default_factory=dict)
    meter: WorkMeter = field(default_factory=WorkMeter)


class PrismalogEngine:
    """Evaluates PRISMAlog programs against optional database relations.

    Parameters
    ----------
    edb_tables:
        Database relations usable as extensional predicates: mapping
        name -> rows.
    edb_schemas:
        Schemas of those relations (defines arity and column types).
    evaluator:
        Expression back-end shared with the rest of the engine.
    use_closure_operator:
        Route recognizable transitive-closure recursion to the
        dedicated closure operator (set False to ablate in E6).
    """

    def __init__(
        self,
        edb_tables: Mapping[str, Sequence[Row]] | None = None,
        edb_schemas: Mapping[str, Schema] | None = None,
        evaluator: Evaluator | None = None,
        use_closure_operator: bool = True,
    ):
        self.edb_tables = dict(edb_tables or {})
        self.edb_schemas = dict(edb_schemas or {})
        missing = set(self.edb_tables) ^ set(self.edb_schemas)
        if missing:
            raise PrismalogError(
                f"EDB tables and schemas must match; mismatched: {sorted(missing)}"
            )
        self.evaluator = evaluator or Evaluator()
        self.use_closure_operator = use_closure_operator
        self.stats = EvaluationStats()
        #: Analysis of the loaded program (None until one has run).
        self._analysis: ProgramAnalysis | None = None
        #: Materialized relations (EDB + derived), name -> rows.
        self.relations: dict[str, list[Row]] = {
            name: list(rows) for name, rows in self.edb_tables.items()
        }

    # -- public API -----------------------------------------------------------

    def consult(self, text: str) -> list[PrismalogResult]:
        """Parse and evaluate a program; returns one result per query."""
        return self.run_program(parse_program(text))

    def ask(self, text: str) -> PrismalogResult:
        """Evaluate one extra query against the already-loaded program."""
        query = parse_query(text)
        return self._answer(query)

    def run_program(self, program: Program) -> list[PrismalogResult]:
        analysis = analyze_program(program, self.edb_schemas)
        self._analysis = analysis
        for component in analysis.components:
            self._evaluate_component(component, analysis)
        return [self._answer(query) for query in program.queries]

    # -- component evaluation -----------------------------------------------------

    def _executor(self) -> FixpointExecutor:
        return FixpointExecutor(
            tables=self._resolve_relation,
            evaluator=self.evaluator,
            meter=self.stats.meter,
        )

    def _resolve_relation(self, name: str) -> list[Row]:
        try:
            return self.relations[name]
        except KeyError:
            raise PrismalogError(
                f"predicate {name!r} has no facts, rules, or database relation"
            ) from None

    def _evaluate_component(
        self, component: list[str], analysis: ProgramAnalysis
    ) -> None:
        predicates = analysis.predicates
        is_recursive = any(name in analysis.recursive for name in component)

        if not is_recursive:
            assert len(component) == 1
            name = component[0]
            definition = predicates[name]
            rows: set[Row] = set(tuple(r) for r in definition.fact_rows)
            executor = self._executor()
            for rule in definition.rules:
                variants = translate_rule(rule, predicates, set())
                for plan in variants.plans:
                    rows.update(tuple(r) for r in executor.run(plan))
            self._materialize(name, rows)
            return

        # Closure fast path: single-predicate TC pattern.
        if self.use_closure_operator and len(component) == 1:
            name = component[0]
            closure = detect_transitive_closure(name, predicates[name], predicates)
            if closure is not None:
                executor = self._executor()
                rows = set(tuple(r) for r in executor.run(closure))
                self.stats.closure_operator_hits.append(name)
                self.stats.fixpoint_iterations[name] = executor.closure_rounds
                self._materialize(name, rows)
                return

        self._evaluate_recursive_component(component, analysis)

    def _evaluate_recursive_component(
        self, component: list[str], analysis: ProgramAnalysis
    ) -> None:
        predicates = analysis.predicates
        component_set = set(component)
        totals: dict[str, set[Row]] = {}
        deltas: dict[str, list[Row]] = {}
        recursive_variants: dict[str, list] = {name: [] for name in component}

        executor = self._executor()
        # Seed with facts and exit rules (no recursive atoms in body).
        for name in component:
            definition = predicates[name]
            seed: set[Row] = set(tuple(r) for r in definition.fact_rows)
            for rule in definition.rules:
                body_predicates = {a.predicate for a in rule.body_atoms()}
                if body_predicates & component_set:
                    variants = translate_rule(rule, predicates, component_set)
                    recursive_variants[name].extend(variants.plans)
                else:
                    plan = translate_rule(rule, predicates, set()).plans[0]
                    seed.update(tuple(r) for r in executor.run(plan))
            totals[name] = seed
            deltas[name] = list(seed)

        iterations = 0
        while any(deltas[name] for name in component):
            iterations += 1
            if iterations > 100_000:
                raise PrismalogError(
                    f"recursion over {component} did not converge"
                )
            step_executor = self._executor()
            for name in component:
                step_executor.bind_recursion(name, deltas[name], totals[name])
            new_deltas: dict[str, list[Row]] = {name: [] for name in component}
            for name in component:
                produced: set[Row] = set()
                for plan in recursive_variants[name]:
                    produced.update(tuple(r) for r in step_executor.run(plan))
                fresh = [row for row in produced if row not in totals[name]]
                new_deltas[name] = fresh
            for name in component:
                totals[name].update(new_deltas[name])
                deltas[name] = new_deltas[name]

        for name in component:
            self.stats.fixpoint_iterations[name] = iterations
            self._materialize(name, totals[name])

    def _materialize(self, name: str, rows: set[Row]) -> None:
        ordered = sorted(rows, key=repr)
        self.relations[name] = ordered
        self.stats.materialized_rows[name] = len(ordered)

    # -- queries ----------------------------------------------------------------------

    def _answer(self, query: Query) -> PrismalogResult:
        analysis = self._analysis
        name = query.atom.predicate
        if analysis is not None and name in analysis.predicates:
            definition = analysis.predicates[name]
        else:
            if name not in self.relations or name not in self.edb_schemas:
                raise PrismalogError(f"unknown predicate {name!r} in query")
            definition = PredicateDef(
                name, len(self.edb_schemas[name]), self.edb_schemas[name], is_edb=True
            )
        if definition.arity != query.atom.arity:
            raise PrismalogError(
                f"query arity {query.atom.arity} does not match"
                f" {name!r}/{definition.arity}"
            )
        plan = query_plan(query.atom, definition)
        executor = self._executor()
        rows = executor.run(plan)
        return PrismalogResult(
            query=query,
            columns=plan.schema.names(),
            rows=sorted(rows, key=repr),
        )
