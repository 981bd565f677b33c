"""Tests for PRISMAlog: parser, safety analysis, translation, the
one-site oracle engine and whole-program compilation."""

import pytest

from repro.errors import ParseError, PrismalogError
from repro.prismalog import (
    analyze_program,
    detect_transitive_closure,
    parse_program,
    parse_query,
)
from repro.prismalog.ast import Atom, Const, Var
from repro.storage import Column, DataType, Schema
from tests.oracle import PrismalogEngine


def any_schema(width):
    return Schema([Column(f"c{i}", DataType.ANY) for i in range(width)])


class TestParser:
    def test_facts_rules_queries(self):
        program = parse_program(
            """
            % a genealogy
            parent(jan, piet).
            parent(piet, kees).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
            ? ancestor(jan, X).
            """
        )
        assert len(program.facts()) == 2
        assert len(program.proper_rules()) == 2
        assert len(program.queries) == 1

    def test_constants_and_numbers(self):
        program = parse_program('p(foo, 3, -2, 1.5, "hello world").')
        terms = program.rules[0].head.terms
        assert terms == (
            Const("foo"), Const(3), Const(-2), Const(1.5), Const("hello world")
        )

    def test_variables_uppercase_or_underscore(self):
        program = parse_program("q(a). p(X) :- q(X), q(_ignored).")
        rule = program.proper_rules()[0]
        assert rule.head.terms == (Var("X"),)

    def test_builtins(self):
        program = parse_program("q(1). p(X) :- q(X), X > 0, X <> 2.")
        builtins = program.proper_rules()[0].body_builtins()
        assert [b.op for b in builtins] == [">", "<>"]

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X).")

    def test_comment_and_whitespace(self):
        program = parse_program("% nothing\n  p(1).  % trailing\n")
        assert len(program.rules) == 1

    def test_parse_query_convenience(self):
        query = parse_query("ancestor(jan, X)")
        assert query.atom.predicate == "ancestor"

    def test_query_syntax_variants(self):
        assert parse_program("q(1). ?- q(X).").queries
        assert parse_program("q(1). ? q(X).").queries

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("p(1) :- ,")
        assert "line" in str(info.value)


class TestAnalysis:
    def test_arity_consistency(self):
        with pytest.raises(PrismalogError):
            analyze_program(parse_program("p(1). p(1, 2)."))

    def test_unsafe_head_variable(self):
        with pytest.raises(PrismalogError) as info:
            analyze_program(parse_program("q(1). p(X, Y) :- q(X)."))
        assert "unsafe" in str(info.value)

    def test_unsafe_builtin_variable(self):
        with pytest.raises(PrismalogError):
            analyze_program(parse_program("q(1). p(X) :- q(X), Y > 3."))

    def test_rule_with_only_builtins_rejected(self):
        with pytest.raises(PrismalogError):
            analyze_program(parse_program("q(1). p(1) :- 1 > 0."))

    def test_edb_cannot_be_redefined(self):
        schemas = {"base": any_schema(1)}
        with pytest.raises(PrismalogError):
            analyze_program(parse_program("base(1)."), schemas)

    def test_components_in_dependency_order(self):
        program = parse_program(
            """
            a(1).
            b(X) :- a(X).
            c(X) :- b(X).
            """
        )
        analysis = analyze_program(program)
        order = [component[0] for component in analysis.components]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_recursion_detected(self):
        program = parse_program(
            "e(1, 2). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z)."
        )
        analysis = analyze_program(program)
        assert "t" in analysis.recursive
        assert "e" not in analysis.recursive

    def test_mutual_recursion_single_component(self):
        program = parse_program(
            """
            s(0).
            even(X) :- s(X).
            odd(X) :- even(X).
            even(X) :- odd(X).
            """
        )
        analysis = analyze_program(program)
        assert ["even", "odd"] in [sorted(c) for c in analysis.components]


class TestClosureDetection:
    def detect(self, text):
        program = parse_program(text)
        analysis = analyze_program(program)
        return detect_transitive_closure(
            "t", analysis.predicates["t"], analysis.predicates
        )

    def test_right_linear_detected(self):
        plan = self.detect(
            "e(1,2). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z)."
        )
        assert plan is not None

    def test_left_linear_detected(self):
        plan = self.detect(
            "e(1,2). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."
        )
        assert plan is not None

    def test_nonlinear_not_detected(self):
        plan = self.detect(
            "e(1,2). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z)."
        )
        assert plan is None

    def test_wrong_variable_pattern_not_detected(self):
        plan = self.detect(
            "e(1,2). t(X, Y) :- e(X, Y). t(X, Z) :- e(Y, X), t(Y, Z)."
        )
        assert plan is None


class TestEngine:
    def test_ancestor_answers(self):
        engine = PrismalogEngine()
        results = engine.consult(
            """
            parent(jan, piet). parent(piet, kees). parent(kees, anna).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
            ? ancestor(jan, X).
            ? ancestor(X, anna).
            """
        )
        assert [row[0] for row in results[0].rows] == ["anna", "kees", "piet"]
        assert [row[0] for row in results[1].rows] == ["jan", "kees", "piet"]

    def test_ground_query_truth(self):
        engine = PrismalogEngine()
        yes, no = engine.consult(
            """
            parent(a, b).
            ? parent(a, b).
            ? parent(b, a).
            """
        )
        assert yes.is_true
        assert not no.is_true

    def test_repeated_variable_in_query(self):
        engine = PrismalogEngine()
        (result,) = engine.consult("e(1, 1). e(1, 2). ? e(X, X).")
        assert result.rows == [(1,)]

    def test_builtins_filter(self):
        engine = PrismalogEngine()
        (result,) = engine.consult(
            "n(1). n(5). n(9). big(X) :- n(X), X > 3. ? big(X)."
        )
        assert result.rows == [(5,), (9,)]

    def test_edb_relations(self):
        engine = PrismalogEngine(
            edb_tables={"parent": [("a", "b"), ("b", "c")]},
            edb_schemas={"parent": any_schema(2)},
        )
        (result,) = engine.consult(
            "gp(X, Z) :- parent(X, Y), parent(Y, Z). ? gp(X, Z)."
        )
        assert result.rows == [("a", "c")]

    def test_closure_operator_used_and_ablatable(self):
        text = (
            "e(1, 2). e(2, 3). tc(X, Y) :- e(X, Y)."
            " tc(X, Z) :- e(X, Y), tc(Y, Z). ? tc(1, X)."
        )
        fast = PrismalogEngine()
        (result,) = fast.consult(text)
        assert fast.stats.closure_operator_hits == ["tc"]
        slow = PrismalogEngine(use_closure_operator=False)
        (result2,) = slow.consult(text)
        assert slow.stats.closure_operator_hits == []
        assert result.rows == result2.rows

    def test_mutual_recursion(self):
        engine = PrismalogEngine()
        even, odd = engine.consult(
            """
            succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).
            even(0).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
            ? even(X).
            ? odd(X).
            """
        )
        assert even.rows == [(0,), (2,), (4,)]
        assert odd.rows == [(1,), (3,)]

    def test_nonlinear_recursion(self):
        engine = PrismalogEngine()
        (result,) = engine.consult(
            """
            e(1, 2). e(2, 3). e(3, 4).
            t(X, Y) :- e(X, Y).
            t(X, Z) :- t(X, Y), t(Y, Z).
            ? t(1, X).
            """
        )
        assert result.rows == [(2,), (3,), (4,)]

    def test_same_generation(self):
        engine = PrismalogEngine()
        (result,) = engine.consult(
            """
            up(a, p1). up(b, p1). up(c, p2). up(d, p2).
            flat(p1, p2).
            down(p2, x). down(p2, y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).
            ? sg(X, Y).
            """
        )
        assert ("a", "x") in result.rows
        assert ("b", "y") in result.rows
        assert ("p1", "p2") in result.rows

    def test_head_constants(self):
        engine = PrismalogEngine()
        (result,) = engine.consult(
            "n(1). n(2). tagged(fixed, X) :- n(X). ? tagged(Y, X)."
        )
        assert result.rows == [("fixed", 1), ("fixed", 2)]

    def test_ask_after_consult(self):
        engine = PrismalogEngine()
        engine.consult("p(1). p(2). q(X) :- p(X), X > 1.")
        result = engine.ask("q(X)")
        assert result.rows == [(2,)]

    def test_unknown_predicate_in_query(self):
        engine = PrismalogEngine()
        with pytest.raises(PrismalogError):
            engine.consult("? nothing(X).")

    def test_query_arity_mismatch(self):
        engine = PrismalogEngine()
        with pytest.raises(PrismalogError):
            engine.consult("p(1). ? p(X, Y).")

    def test_fixpoint_iterations_reported(self):
        engine = PrismalogEngine(use_closure_operator=False)
        chain = " ".join(f"e({i}, {i + 1})." for i in range(6))
        engine.consult(
            chain + " t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z)."
        )
        assert engine.stats.fixpoint_iterations["t"] == 6


class TestWholeProgramCompilation:
    """Every program compiles: non-recursive predicates to plans, the
    closure pattern to the closure operator, any other recursion to a
    recursive component the dispatch plan runs as a distributed loop."""

    def compile(self, text, schemas=None):
        from repro.prismalog.compile import compile_program

        return compile_program(parse_program(text), schemas or {})

    def test_tc_program_compiles(self):
        compiled = self.compile(
            "e(1, 2). e(2, 3)."
            " tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
            " ? tc(1, X)."
        )
        assert compiled.closure_predicates == ["tc"]
        assert compiled.components == []
        assert len(compiled.query_plans) == 1

    def test_mutual_recursion_compiles_to_one_component(self):
        compiled = self.compile(
            "s(0, 1). even(0). odd(Y) :- even(X), s(X, Y)."
            " even(Y) :- odd(X), s(X, Y). ? even(X)."
        )
        (component,) = compiled.components
        assert component.names == ["even", "odd"]
        assert component.tokens == ["even/1", "odd/1"]
        # s is read from outside, materialized once; each rule has one
        # recursive atom, so one delta variant each.
        assert [token for token, _plan in component.inputs] == ["s/2"]
        assert [len(plans) for plans in component.variants] == [1, 1]
        _query, plan = compiled.query_plans[0]
        assert compiled.components_for(plan) == [component]

    def test_nonlinear_recursion_has_a_variant_per_recursive_atom(self):
        compiled = self.compile(
            "e(1, 2). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z). ? t(1, X)."
        )
        assert compiled.closure_predicates == []
        (component,) = compiled.components
        assert [len(plans) for plans in component.variants] == [2]

    def test_compiled_plans_evaluate_correctly(self):
        from repro.algebra.local_exec import LocalExecutor

        compiled = self.compile(
            """
            p(a, b). p(b, c). p(b, d).
            sib(X, Y) :- p(Z, X), p(Z, Y), X <> Y.
            ? sib(X, Y).
            """
        )
        assert compiled is not None
        _query, plan = compiled.query_plans[0]
        rows = LocalExecutor({}).run(plan)
        assert sorted(rows) == [("c", "d"), ("d", "c")]

    def test_multi_rule_predicate_unions_with_set_semantics(self):
        from repro.algebra.local_exec import LocalExecutor

        compiled = self.compile(
            """
            a(1). a(2).
            b(2). b(3).
            u(X) :- a(X).
            u(X) :- b(X).
            ? u(X).
            """
        )
        _query, plan = compiled.query_plans[0]
        rows = LocalExecutor({}).run(plan)
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_distributed_execution_matches_engine(self):
        from repro import MachineConfig, PrismaDB

        program = (
            "anc(X, Y) :- par(X, Y)."
            " anc(X, Z) :- par(X, Y), anc(Y, Z)."
            " ? anc(X, Y)."
        )
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute("CREATE TABLE par (p STRING, c STRING) FRAGMENTED BY HASH(p) INTO 3")
        db.execute(
            "INSERT INTO par VALUES ('a','b'),('b','c'),('c','d'),('a','e')"
        )
        (result,) = db.execute_prismalog(program)
        assert result.prismalog_stats["compiled_to_algebra"] is True
        engine = PrismalogEngine(
            edb_tables={"par": [("a","b"),("b","c"),("c","d"),("a","e")]},
            edb_schemas={"par": any_schema(2)},
        )
        (expected,) = engine.consult(program)
        assert sorted(result.rows) == sorted(expected.rows)

    def test_general_recursion_reports_its_rounds(self):
        from repro import MachineConfig, PrismaDB

        db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
        (result,) = db.execute_prismalog(
            "s(0, 1). even(0). odd(Y) :- even(X), s(X, Y)."
            " even(Y) :- odd(X), s(X, Y). ? odd(X)."
        )
        assert result.prismalog_stats == {
            "compiled_to_algebra": True,
            "closure_operator_hits": [],
            "fixpoint_iterations": {"even": 2, "odd": 2},
        }
        assert result.rows == [(1,)]
        assert result.report is not None and result.response_time > 0

    def test_closure_route_reports_its_rounds(self):
        from repro import MachineConfig, PrismaDB

        db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
        chain = " ".join(f"e({i}, {i + 1})." for i in range(6))
        (result,) = db.execute_prismalog(
            chain + " t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). ? t(0, X)."
        )
        assert result.prismalog_stats["closure_operator_hits"] == ["t"]
        assert result.prismalog_stats["fixpoint_iterations"] == {"t": 6}
        assert result.response_time > 0
