"""Tests for logical plan nodes."""

import pytest

from repro.errors import PlanError
from repro.exec.expressions import Arithmetic, col, eq, lit
from repro.exec.operators import JoinKind
from repro import PrismaDB
from repro.algebra import plan as plan_module
from repro.algebra.plan import (
    AggExpr,
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
    SortNode,
    ValuesNode,
)
from repro.prismalog.parser import parse_program
from repro.prismalog.translate import analyze_program, translate_rule
from repro.storage import DataType, Schema


@pytest.fixture
def emp():
    return ScanNode("emp", Schema.of(id=DataType.INT, dept=DataType.STRING, sal=DataType.FLOAT))


@pytest.fixture
def dept():
    return ScanNode("dept", Schema.of(dname=DataType.STRING, city=DataType.STRING))


class TestSchemas:
    def test_select_preserves_schema(self, emp):
        node = SelectNode(emp, eq(col(0), lit(1)))
        assert node.schema == emp.schema

    def test_select_validates_column_range(self, emp):
        from repro.errors import ExpressionError

        with pytest.raises(ExpressionError):
            SelectNode(emp, eq(col(9), lit(1)))

    def test_project_derives_types(self, emp):
        node = ProjectNode(emp, [col(0), Arithmetic("/", col(2), lit(2))], ["id", "half"])
        assert node.schema.names() == ["id", "half"]
        assert node.schema.types() == [DataType.INT, DataType.FLOAT]

    def test_project_uniquifies_duplicate_names(self, emp):
        node = ProjectNode(emp, [col(0), col(0)], ["x", "x"])
        assert node.schema.names() == ["x", "x_2"]

    def test_project_identity_detection(self, emp):
        identity = ProjectNode(
            emp, [col(i, n) for i, n in enumerate(emp.schema.names())], emp.schema.names()
        )
        assert identity.is_identity()
        assert not ProjectNode(emp, [col(0, "id")], ["id"]).is_identity()

    def test_join_concatenates_and_disambiguates(self, emp, dept):
        node = JoinNode(emp, emp)
        assert node.schema.names() == ["id", "dept", "sal", "id_r", "dept_r", "sal_r"]

    def test_semi_join_keeps_left_schema(self, emp, dept):
        node = JoinNode(emp, dept, eq(col(1), col(3)), JoinKind.SEMI)
        assert node.schema == emp.schema

    def test_aggregate_schema(self, emp):
        node = AggregateNode(
            emp, [1], [AggExpr("count", None), AggExpr("avg", col(2))],
            ["dept", "n", "avg_sal"],
        )
        assert node.schema.names() == ["dept", "n", "avg_sal"]
        assert node.schema.types() == [DataType.STRING, DataType.INT, DataType.FLOAT]

    def test_setop_arity_checked(self, emp, dept):
        with pytest.raises(PlanError):
            SetOpNode("union", emp, dept)

    def test_closure_needs_binary_relation(self, emp, dept):
        ClosureNode(dept)  # binary: fine
        with pytest.raises(PlanError):
            ClosureNode(emp)

    def test_sort_and_limit_validation(self, emp):
        with pytest.raises(PlanError):
            SortNode(emp, [])
        with pytest.raises(PlanError):
            SortNode(emp, [(9, False)])
        with pytest.raises(PlanError):
            LimitNode(emp, -1)

    def test_values_rows_validated(self):
        schema = Schema.of(a=DataType.INT)
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            ValuesNode(schema, [("not-int",)])


class TestIdentityAndRewriting:
    def test_structural_equality(self, emp):
        a = SelectNode(emp, eq(col(0), lit(1)))
        b = SelectNode(
            ScanNode("emp", emp.schema), eq(col(0), lit(1))
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_different_predicates_differ(self, emp):
        assert SelectNode(emp, eq(col(0), lit(1))) != SelectNode(emp, eq(col(0), lit(2)))

    def test_with_children_reuses_unchanged(self, emp):
        node = SelectNode(emp, eq(col(0), lit(1)))
        assert node.with_children([emp]) is node

    def test_with_children_rebuilds(self, emp):
        node = SelectNode(emp, eq(col(0), lit(1)))
        other = ScanNode("emp2", emp.schema)
        rebuilt = node.with_children([other])
        assert rebuilt is not node
        assert rebuilt.child is other

    def test_with_children_arity_checked(self, emp):
        node = SelectNode(emp, eq(col(0), lit(1)))
        with pytest.raises(PlanError):
            node.with_children([])

    def test_walk_preorder(self, emp, dept):
        join = JoinNode(emp, dept)
        top = DistinctNode(join)
        kinds = [type(n).__name__ for n in top.walk()]
        assert kinds == ["DistinctNode", "JoinNode", "ScanNode", "ScanNode"]

    def test_explain_is_indented_tree(self, emp):
        node = SelectNode(emp, eq(col(0, "id"), lit(1)))
        text = node.explain()
        assert "Select[(id = 1)]" in text.splitlines()[0]
        assert text.splitlines()[1].startswith("  Scan(emp)")


class TestEquiKeys:
    def test_simple_equi_join(self, emp, dept):
        join = JoinNode(emp, dept, eq(col(1), col(3)))
        left, right, residual = join.equi_keys()
        assert left == (1,)
        assert right == (0,)
        assert residual is None

    def test_reversed_sides_normalize(self, emp, dept):
        join = JoinNode(emp, dept, eq(col(3), col(1)))
        left, right, _ = join.equi_keys()
        assert left == (1,)
        assert right == (0,)

    def test_residual_kept(self, emp, dept):
        from repro.exec.expressions import Comparison, and_

        condition = and_(eq(col(1), col(3)), Comparison("<", col(2), lit(100.0)))
        join = JoinNode(emp, dept, condition)
        left, right, residual = join.equi_keys()
        assert left == (1,)
        assert residual is not None

    def test_non_equi_only(self, emp, dept):
        from repro.exec.expressions import Comparison

        join = JoinNode(emp, dept, Comparison("<", col(0), col(3)))
        left, right, residual = join.equi_keys()
        assert left == ()
        assert residual is not None

    def test_same_side_equality_is_residual(self, emp, dept):
        join = JoinNode(emp, dept, eq(col(0), col(2)))  # both left side
        left, right, residual = join.equi_keys()
        assert left == ()
        assert residual is not None

    def test_cross_join(self, emp, dept):
        join = JoinNode(emp, dept, None)
        assert join.equi_keys() == ((), (), None)

    def test_computed_once_per_node(self, emp, dept):
        # The executor asks once per part: one split per node, immutable.
        join = JoinNode(emp, dept, eq(col(1), col(3)))
        assert join.equi_keys() is join.equi_keys()
        assert join.equi_keys()[:2] == ((1,), (0,))


class TestEveryNodeHasAnEmitter:
    """A plan node nothing emits is an executor, an estimator row and a
    pruning row nothing reaches: every concrete node class must come out
    of one of the two front ends."""

    SQL = [
        "SELECT 1",
        "SELECT DISTINCT dept FROM emp WHERE sal > 10 ORDER BY dept",
        "SELECT dept, COUNT(*) FROM emp GROUP BY dept LIMIT 3",
        "SELECT id FROM emp ORDER BY sal DESC LIMIT 2",
        # The repeated filtered scan becomes a shared subexpression.
        "SELECT a.id FROM emp a JOIN emp b ON a.id = b.id"
        " WHERE a.sal > 5 AND b.sal > 5",
        "SELECT id FROM emp UNION SELECT src FROM edge",
        "SELECT src, dst FROM CLOSURE(edge)",
    ]
    #: Compiles to algebra (facts, a closure-shaped recursion).
    COMPILED = (
        "link(1, 2). link(2, 3). path(X, Y) :- link(X, Y)."
        " path(X, Y) :- link(X, Z), path(Z, Y). ? path(1, X)."
    )
    #: Needs the engine: non-linear recursion reads delta and total.
    GENERAL = "t(X, Y) :- edge(X, Y). t(X, Y) :- t(X, Z), t(Z, Y)."

    def test_front_ends_emit_every_concrete_node(self):
        db = PrismaDB()
        session = db.session()
        session.execute("CREATE TABLE emp (id INT, dept STRING, sal FLOAT)")
        session.execute("CREATE TABLE edge (src INT, dst INT)")
        gdh = db.gdh
        queries = [gdh.prepare(gdh.parse(text)).dispatch for text in self.SQL]
        queries += gdh.prepare(parse_program(self.COMPILED)).dispatch.queries
        plans = []
        for query in queries:
            plans.append(query.optimized.plan)
            plans.extend(shared.plan for shared in query.optimized.shared)
        analysis = analyze_program(parse_program(self.GENERAL), gdh.catalog.schemas())
        for component in analysis.components:
            for rule in analysis.predicates[component[0]].rules:
                plans.extend(
                    translate_rule(rule, analysis.predicates, set(component)).plans
                )
        emitted = {type(node) for plan in plans for node in plan.walk()}
        concrete = {
            cls
            for cls in vars(plan_module).values()
            if isinstance(cls, type) and issubclass(cls, PlanNode) and cls is not PlanNode
        }
        assert emitted == concrete
