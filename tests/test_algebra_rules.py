"""Tests for the optimizer's rewrite-rule knowledge base.

Each rule is checked individually, and an end-to-end property asserts
that rule application never changes query results.
"""

import pytest

from repro.exec.expressions import (
    Arithmetic,
    Comparison,
    and_,
    col,
    eq,
    lit,
    or_,
)
from repro.exec.operators import JoinKind
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import (
    DistinctNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SetOpNode,
    SortNode,
    ValuesNode,
)
from repro.algebra.rules import apply_rules
from repro.storage import DataType, Schema

EMP = Schema.of(id=DataType.INT, dept=DataType.STRING, sal=DataType.FLOAT)
DEPT = Schema.of(dname=DataType.STRING, city=DataType.STRING)

TABLES = {
    "emp": [
        (1, "eng", 120.0), (2, "eng", 95.0), (3, "sales", 80.0),
        (4, "sales", 85.0), (5, "hr", 70.0),
    ],
    "dept": [("eng", "ams"), ("sales", "rtm"), ("hr", "utr")],
}


def emp():
    return ScanNode("emp", EMP)


def dept():
    return ScanNode("dept", DEPT)


def run(plan):
    return sorted(LocalExecutor(TABLES).run(plan), key=repr)


def rewrite(plan):
    return apply_rules(plan)


class TestSelectionRules:
    def test_merge_selects(self):
        plan = SelectNode(
            SelectNode(emp(), Comparison(">", col(2), lit(80.0))),
            eq(col(1), lit("eng")),
        )
        rewritten, fired = rewrite(plan)
        assert "merge_selects" in fired
        # Only one Select remains.
        selects = [n for n in rewritten.walk() if isinstance(n, SelectNode)]
        assert len(selects) == 1
        assert run(plan) == run(rewritten)

    def test_true_conjunct_dropped(self):
        plan = SelectNode(emp(), and_(lit(True), eq(col(1), lit("hr"))))
        rewritten, fired = rewrite(plan)
        assert "fold_constant_conjuncts" in fired
        assert run(rewritten) == run(plan)

    def test_false_predicate_empties_plan(self):
        plan = SelectNode(emp(), Comparison("=", lit(1), lit(2)))
        rewritten, fired = rewrite(plan)
        assert isinstance(rewritten, ValuesNode)
        assert rewritten.rows == ()

    def test_all_true_removes_select(self):
        plan = SelectNode(emp(), lit(True))
        rewritten, _ = rewrite(plan)
        assert isinstance(rewritten, ScanNode)

    def test_constant_folding_inside_predicate(self):
        plan = SelectNode(
            emp(), Comparison(">", col(2), Arithmetic("+", lit(40.0), lit(40.0)))
        )
        rewritten, fired = rewrite(plan)
        assert "constant_fold_expressions" in fired
        assert "80.0" in rewritten.label()
        assert run(plan) == run(rewritten)

    def test_parameters_are_not_folded(self):
        # A statement template is optimized with Param leaves: nothing
        # may evaluate them away, and the rewritten plan must give the
        # literal plan's rows once the values are filled in.
        from repro.algebra.plan import substitute_plan_params
        from repro.exec.expressions import Param

        p0, p1 = Param(0, DataType.FLOAT), Param(1, DataType.INT)
        template = SelectNode(
            ProjectNode(emp(), [col(0, "id"), col(2, "sal")], ["id", "sal"]),
            and_(
                Comparison(">", col(1), Arithmetic("+", p0, lit(40.0))),
                Comparison("=", p1, lit(1)),
            ),
        )
        rewritten, fired = rewrite(template)
        assert "fold_constant_conjuncts" not in fired
        assert "push_select_below_project" in fired
        assert "?0" in rewritten.explain() and "?1" in rewritten.explain()
        for params in ((40.0, 1), (40.0, 2), (10.0, 1)):
            assert run(substitute_plan_params(rewritten, params)) == run(
                substitute_plan_params(template, params)
            )
        assert run(substitute_plan_params(rewritten, (40.0, 1))) == [
            (1, 120.0), (2, 95.0), (4, 85.0)
        ]
        # No parameter below: the very same tree comes back.
        assert substitute_plan_params(emp(), (1,)).key() == emp().key()
        plain = SelectNode(emp(), eq(col(1), lit("hr")))
        assert substitute_plan_params(plain, ()) is plain

    def test_select_on_values_folds(self):
        values = ValuesNode(Schema.of(a=DataType.INT), [(1,), (2,), (3,)])
        plan = SelectNode(values, Comparison(">", col(0), lit(1)))
        rewritten, fired = rewrite(plan)
        assert isinstance(rewritten, ValuesNode)
        assert rewritten.rows == ((2,), (3,))

    def test_push_select_below_project(self):
        project = ProjectNode(emp(), [col(1, "dept"), col(2, "sal")], ["dept", "sal"])
        plan = SelectNode(project, Comparison(">", col(1), lit(80.0)))
        rewritten, fired = rewrite(plan)
        assert "push_select_below_project" in fired
        assert isinstance(rewritten, ProjectNode)
        assert isinstance(rewritten.child, SelectNode)
        assert run(plan) == run(rewritten)

    def test_push_select_through_computed_projection(self):
        project = ProjectNode(
            emp(), [Arithmetic("*", col(2), lit(2))], ["double_sal"]
        )
        plan = SelectNode(project, Comparison(">", col(0), lit(170.0)))
        rewritten, _ = rewrite(plan)
        assert run(plan) == run(rewritten)

    def test_push_select_below_inner_join_both_sides(self):
        join = JoinNode(emp(), dept(), eq(col(1), col(3)))
        predicate = and_(
            Comparison(">", col(2), lit(80.0)),  # left only
            eq(col(4), lit("ams")),  # right only
        )
        plan = SelectNode(join, predicate)
        rewritten, fired = rewrite(plan)
        assert "push_select_below_join" in fired
        assert isinstance(rewritten, JoinNode)
        assert isinstance(rewritten.left, SelectNode)
        assert isinstance(rewritten.right, SelectNode)
        assert run(plan) == run(rewritten)

    def test_mixed_conjunct_joins_condition(self):
        join = JoinNode(emp(), dept(), None)  # cross product
        plan = SelectNode(join, eq(col(1), col(3)))
        rewritten, _ = rewrite(plan)
        assert isinstance(rewritten, JoinNode)
        assert rewritten.condition is not None
        assert run(plan) == run(rewritten)

    def test_left_outer_join_right_predicate_not_pushed(self):
        join = JoinNode(emp(), dept(), eq(col(1), col(3)), JoinKind.LEFT_OUTER)
        # Predicate on the right side of a LEFT OUTER must stay above.
        plan = SelectNode(join, eq(col(4), lit("ams")))
        rewritten, _ = rewrite(plan)
        assert run(plan) == run(rewritten)

    def test_left_outer_join_left_predicate_pushed(self):
        join = JoinNode(emp(), dept(), eq(col(1), col(3)), JoinKind.LEFT_OUTER)
        plan = SelectNode(join, Comparison(">", col(2), lit(80.0)))
        rewritten, _ = rewrite(plan)
        assert isinstance(rewritten, JoinNode)
        assert isinstance(rewritten.left, SelectNode)
        assert run(plan) == run(rewritten)

    def test_push_below_setop_distinct_sort(self):
        union = SetOpNode("union", ProjectNode(emp(), [col(1)], ["d"]),
                          ProjectNode(dept(), [col(0)], ["d"]))
        plan = SelectNode(DistinctNode(SortNode(union, [(0, False)])), eq(col(0), lit("eng")))
        rewritten, fired = rewrite(plan)
        assert run(plan) == run(rewritten)
        assert "push_select_below_sort" in fired or "push_select_below_distinct" in fired


class TestProjectionRules:
    def test_identity_project_removed(self):
        plan = ProjectNode(
            emp(), [col(i, n) for i, n in enumerate(EMP.names())], EMP.names()
        )
        rewritten, fired = rewrite(plan)
        assert isinstance(rewritten, ScanNode)
        assert "remove_identity_project" in fired

    def test_merge_projects(self):
        inner = ProjectNode(emp(), [col(2, "sal"), col(0, "id")], ["sal", "id"])
        outer = ProjectNode(inner, [Arithmetic("+", col(0), lit(1.0))], ["sal1"])
        rewritten, fired = rewrite(outer)
        assert "merge_projects" in fired
        projects = [n for n in rewritten.walk() if isinstance(n, ProjectNode)]
        assert len(projects) == 1
        assert run(outer) == run(rewritten)

    def test_project_on_values_folds(self):
        values = ValuesNode(Schema.of(a=DataType.INT), [(1,), (2,)])
        plan = ProjectNode(values, [Arithmetic("*", col(0), lit(10))], ["x"])
        rewritten, _ = rewrite(plan)
        assert isinstance(rewritten, ValuesNode)
        assert rewritten.rows == ((10,), (20,))

    def test_faulty_constants_are_left_to_fail_at_run_time(self):
        # Plan-time folding runs generated code; an expression that
        # raises there stays in the plan, so execution raises as well.
        values = ValuesNode(Schema.of(a=DataType.INT), [(1,), (2,)])
        one_over_zero = Arithmetic("/", lit(1), lit(0))
        for plan, kind in (
            (SelectNode(emp(), Comparison(">", one_over_zero, lit(0))), SelectNode),
            (SelectNode(emp(), Comparison(">", col(2), one_over_zero)), SelectNode),
            (SelectNode(values, Comparison(">", Arithmetic("/", col(0), lit(0)), lit(1))), SelectNode),
            (ProjectNode(values, [Arithmetic("/", col(0), lit(0))], ["x"]), ProjectNode),
        ):
            rewritten, _ = rewrite(plan)
            assert isinstance(rewritten, kind)
            assert "/ 0" in rewritten.explain()

    def test_join_with_empty_side_becomes_empty(self):
        empty = ValuesNode(DEPT, [])
        plan = JoinNode(emp(), empty, eq(col(1), col(3)))
        rewritten, fired = rewrite(plan)
        assert isinstance(rewritten, ValuesNode)
        assert rewritten.rows == ()
        assert "join_with_empty_values" in fired


class TestRewriteSafety:
    """Rewrites must never change results."""

    PLANS = []

    @staticmethod
    def _plans():
        join = JoinNode(emp(), dept(), eq(col(1), col(3)))
        yield SelectNode(join, and_(
            Comparison(">=", col(2), lit(80.0)),
            or_(eq(col(4), lit("ams")), eq(col(4), lit("rtm"))),
            lit(True),
        ))
        yield SelectNode(
            ProjectNode(join, [col(0), col(4), col(2)], ["id", "city", "sal"]),
            Comparison("<", col(2), Arithmetic("+", lit(50.0), lit(45.0))),
        )
        yield DistinctNode(ProjectNode(
            SelectNode(emp(), Comparison("<>", col(1), lit("hr"))),
            [col(1)], ["dept"],
        ))
        yield SelectNode(
            SetOpNode(
                "except",
                ProjectNode(emp(), [col(1)], ["d"]),
                ValuesNode(Schema.of(d=DataType.STRING), [("hr",)]),
            ),
            eq(col(0), col(0)),
        )

    @pytest.mark.parametrize("plan", list(_plans.__func__()))
    def test_rewrite_preserves_results(self, plan):
        rewritten, _ = rewrite(plan)
        assert run(plan) == run(rewritten)
        # Idempotence: rewriting again changes nothing.
        again, fired = rewrite(rewritten)
        assert again.key() == rewritten.key()
