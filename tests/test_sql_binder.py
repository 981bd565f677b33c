"""Tests for SQL name resolution and plan construction."""

import hashlib
import random

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import BindError, PrismaError
from repro.sql import Binder, ast, parse_statement
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import (
    AggregateNode,
    ClosureNode,
    DistinctNode,
    LimitNode,
    SortNode,
)
from repro.storage import DataType, Schema

CATALOG = {
    "emp": Schema.of(id=DataType.INT, name=DataType.STRING, dept=DataType.STRING, sal=DataType.FLOAT),
    "dept": Schema.of(dname=DataType.STRING, city=DataType.STRING),
    "edge": Schema.of(src=DataType.INT, dst=DataType.INT),
}

TABLES = {
    "emp": [
        (1, "ada", "eng", 120.0), (2, "bob", "eng", 95.0),
        (3, "cy", "sales", 80.0), (4, "dee", "sales", 85.0),
        (5, "eve", "hr", 70.0),
    ],
    "dept": [("eng", "ams"), ("sales", "rtm"), ("hr", "utr")],
    "edge": [(1, 2), (2, 3), (3, 4)],
}


@pytest.fixture
def binder():
    return Binder(CATALOG)


def bind_run(binder, sql):
    plan = binder.bind_query(parse_statement(sql))
    return plan, LocalExecutor(TABLES).run(plan)


class TestNameResolution:
    def test_unknown_table(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT x FROM nope"))

    def test_unknown_column(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT bogus FROM emp"))

    def test_ambiguous_column(self, binder):
        with pytest.raises(BindError) as info:
            binder.bind_query(
                parse_statement("SELECT dname FROM dept d1, dept d2")
            )
        assert "ambiguous" in str(info.value)

    def test_qualified_resolution(self, binder):
        plan, rows = bind_run(
            binder,
            "SELECT d1.city FROM dept d1, dept d2 WHERE d1.dname = d2.dname AND d2.city = 'ams'",
        )
        assert rows == [("ams",)]

    def test_duplicate_alias_rejected(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT 1 FROM emp e, dept e"))

    def test_star_expansion(self, binder):
        plan, _ = bind_run(binder, "SELECT * FROM emp")
        assert plan.schema.names() == ["id", "name", "dept", "sal"]

    def test_qualified_star(self, binder):
        plan, _ = bind_run(
            binder, "SELECT d.* FROM emp e JOIN dept d ON e.dept = d.dname"
        )
        assert plan.schema.names() == ["dname", "city"]

    def test_unknown_star_qualifier(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT z.* FROM emp e"))


class TestQueries:
    def test_join_where_order(self, binder):
        _, rows = bind_run(
            binder,
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dname"
            " WHERE d.city = 'rtm' ORDER BY name",
        )
        assert rows == [("cy",), ("dee",)]

    def test_left_join_pads_nulls(self, binder):
        _, rows = bind_run(
            binder,
            "SELECT d.dname, e.name FROM dept d LEFT JOIN emp e"
            " ON d.dname = e.dept AND e.sal > 100 ORDER BY dname, 2",
        )
        assert ("hr", None) in rows
        assert ("eng", "ada") in rows

    def test_closure(self, binder):
        _, rows = bind_run(
            binder, "SELECT dst FROM CLOSURE(edge) WHERE src = 1 ORDER BY dst"
        )
        assert rows == [(2,), (3,), (4,)]

    def test_closure_requires_binary(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT * FROM CLOSURE(emp)"))

    def test_distinct_and_limit(self, binder):
        plan, rows = bind_run(
            binder, "SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2"
        )
        assert isinstance(plan, LimitNode)
        assert rows == [("eng",), ("hr",)]
        assert any(isinstance(n, DistinctNode) for n in plan.walk())

    def test_order_by_position(self, binder):
        _, rows = bind_run(binder, "SELECT name, sal FROM emp ORDER BY 2 DESC LIMIT 1")
        assert rows == [("ada", 120.0)]

    def test_order_by_unknown_column(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(
                parse_statement("SELECT name FROM emp ORDER BY salary_typo")
            )

    def test_order_by_position_out_of_range(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT name FROM emp ORDER BY 5"))

    def test_select_without_from(self, binder):
        _, rows = bind_run(binder, "SELECT 2 + 3 AS five")
        assert rows == [(5,)]

    def test_set_operation(self, binder):
        _, rows = bind_run(
            binder,
            "SELECT dept FROM emp WHERE sal > 100"
            " UNION SELECT dname FROM dept WHERE city = 'utr' ORDER BY 1",
        )
        assert rows == [("eng",), ("hr",)]

    def test_set_operation_arity_mismatch(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(
                parse_statement("SELECT id, name FROM emp UNION SELECT dname FROM dept")
            )


class TestAggregation:
    def test_group_by_with_having(self, binder):
        plan, rows = bind_run(
            binder,
            "SELECT dept, COUNT(*) AS n, AVG(sal) FROM emp"
            " GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept",
        )
        assert rows == [("eng", 2, 107.5), ("sales", 2, 82.5)]
        assert any(isinstance(n, AggregateNode) for n in plan.walk())

    def test_aggregate_arithmetic_in_select(self, binder):
        _, rows = bind_run(binder, "SELECT SUM(sal) / COUNT(*) FROM emp")
        assert rows == [(90.0,)]

    def test_group_expression(self, binder):
        _, rows = bind_run(
            binder,
            "SELECT sal > 90, COUNT(*) FROM emp GROUP BY sal > 90 ORDER BY 1",
        )
        assert rows == [(False, 3), (True, 2)]

    def test_non_grouped_column_rejected(self, binder):
        with pytest.raises(BindError) as info:
            binder.bind_query(
                parse_statement("SELECT name, COUNT(*) FROM emp GROUP BY dept")
            )
        assert "GROUP BY" in str(info.value)

    def test_nested_aggregates_rejected(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT SUM(COUNT(*)) FROM emp"))

    def test_aggregate_in_where_rejected(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(
                parse_statement("SELECT dept FROM emp WHERE COUNT(*) > 1")
            )

    def test_duplicate_aggregates_computed_once(self, binder):
        plan, rows = bind_run(
            binder, "SELECT COUNT(*), COUNT(*) + 1 FROM emp"
        )
        agg = next(n for n in plan.walk() if isinstance(n, AggregateNode))
        assert len(agg.aggregates) == 1
        assert rows == [(5, 6)]

    def test_star_with_group_by_rejected(self, binder):
        with pytest.raises(BindError):
            binder.bind_query(parse_statement("SELECT * FROM emp GROUP BY dept"))


class TestOrderBy:
    """One ORDER BY rule for every query shape: an integer literal is a
    position, an unqualified output name its column, anything else a
    hidden sort column — refused under DISTINCT and in set operations,
    as is a literal that is no integer."""

    @pytest.fixture(scope="class")
    def db(self):
        db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
        db.execute("CREATE TABLE t (a INT, b INT) FRAGMENTED BY HASH(a) INTO 2")
        db.execute("INSERT INTO t VALUES (2, 5), (1, 7), (3, 1), (1, 2)")
        return db

    @pytest.mark.parametrize(
        "target, want",
        [
            ("a", [(1,), (2,), (3,)]),
            ("t.a DESC", [(3,), (2,), (1,)]),
            ("SUM(b)", [(3,), (2,), (1,)]),  # sums 9, 5, 1
            ("a + 0 DESC", [(3,), (2,), (1,)]),
        ],
    )
    def test_grouped_query_sorts_by_a_hidden_target(self, db, target, want):
        result = db.execute(f"SELECT a AS x FROM t GROUP BY a ORDER BY {target}")
        assert result.columns == ["x"]
        assert result.rows == want

    def test_hidden_aggregate_is_collected_once(self, binder):
        plan = binder.bind_query(
            parse_statement(
                "SELECT dept, SUM(sal) FROM emp GROUP BY dept ORDER BY SUM(sal), COUNT(*)"
            )
        )
        (aggregate,) = [n for n in plan.walk() if isinstance(n, AggregateNode)]
        assert [agg.func for agg in aggregate.aggregates] == ["sum", "count"]
        assert plan.schema.names() == ["dept", "sum"]

    def test_grouped_hidden_target_still_needs_a_group_column(self, db):
        with pytest.raises(BindError, match="must appear in GROUP BY"):
            db.execute("SELECT a FROM t GROUP BY a ORDER BY b")

    @pytest.mark.parametrize("target", ["'z'", "1.5"])
    def test_literal_that_is_no_position_is_refused(self, db, target):
        with pytest.raises(BindError):
            db.execute(f"SELECT a FROM t ORDER BY {target}")

    def test_placeholder_that_is_no_position_is_refused(self, db):
        cursor = db.connect().cursor()
        with pytest.raises(BindError):
            cursor.execute("SELECT a FROM t ORDER BY ?", ("x",))
        cursor.execute("SELECT a, b FROM t ORDER BY ? DESC", (2,))
        assert [row[1] for row in cursor.fetchall()] == [7, 5, 2, 1]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT a FROM t ORDER BY b",
            "SELECT DISTINCT a FROM t ORDER BY t.a",
            "SELECT DISTINCT a FROM t GROUP BY a ORDER BY SUM(b)",
            "SELECT a FROM t UNION SELECT b FROM t ORDER BY b",
            "SELECT a FROM t EXCEPT SELECT b FROM t ORDER BY a + 1",
        ],
    )
    def test_distinct_and_set_operations_refuse_hidden_targets(self, db, sql):
        with pytest.raises(BindError):
            db.execute(sql)

    def test_repeated_output_name_orders_by_its_output_column(self, binder):
        plan, rows = bind_run(
            binder, "SELECT DISTINCT name AS n, id AS n FROM emp ORDER BY n_2 DESC"
        )
        assert plan.schema.names() == ["n", "n_2"]
        assert [row[1] for row in rows] == [5, 4, 3, 2, 1]


class TestDmlBinding:
    def test_insert_columns_reordered_and_defaulted(self, binder):
        bound = binder.bind_insert(
            parse_statement("INSERT INTO emp (sal, id) VALUES (50.0, 9)")
        )
        assert bound.rows == [(9, None, None, 50.0)]

    def test_insert_arity_mismatch(self, binder):
        with pytest.raises(BindError):
            binder.bind_insert(parse_statement("INSERT INTO dept VALUES ('x')"))

    def test_insert_non_constant_rejected(self, binder):
        with pytest.raises(BindError):
            binder.bind_insert(parse_statement("INSERT INTO dept VALUES (dname, 'x')"))

    def test_insert_constant_expression_evaluated(self, binder):
        bound = binder.bind_insert(
            parse_statement("INSERT INTO edge VALUES (1 + 1, 2 * 3)")
        )
        assert bound.rows == [(2, 6)]

    def test_update_binding(self, binder):
        bound = binder.bind_update(
            parse_statement("UPDATE emp SET sal = sal * 1.1 WHERE dept = 'eng'")
        )
        assert bound.assignments[0][0] == 3
        assert bound.predicate is not None

    def test_update_duplicate_assignment(self, binder):
        with pytest.raises(BindError):
            binder.bind_update(
                parse_statement("UPDATE emp SET sal = 1.0, sal = 2.0")
            )

    def test_delete_binding(self, binder):
        bound = binder.bind_delete(parse_statement("DELETE FROM emp"))
        assert bound.predicate is None


# -- the bound plans, pinned ---------------------------------------------------

#: Statements over ``CATALOG`` above: the ones the tests in this file
#: bind, and more query shapes that bind.
BINDER_CORPUS = [
    "SELECT d1.city FROM dept d1, dept d2 WHERE d1.dname = d2.dname AND d2.city = 'ams'",
    "SELECT * FROM emp",
    "SELECT d.* FROM emp e JOIN dept d ON e.dept = d.dname",
    "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dname"
    " WHERE d.city = 'rtm' ORDER BY name",
    "SELECT d.dname, e.name FROM dept d LEFT JOIN emp e"
    " ON d.dname = e.dept AND e.sal > 100 ORDER BY dname, 2",
    "SELECT dst FROM CLOSURE(edge) WHERE src = 1 ORDER BY dst",
    "SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2",
    "SELECT name, sal FROM emp ORDER BY 2 DESC LIMIT 1",
    "SELECT 2 + 3 AS five",
    "SELECT dept FROM emp WHERE sal > 100"
    " UNION SELECT dname FROM dept WHERE city = 'utr' ORDER BY 1",
    "SELECT dept, COUNT(*) AS n, AVG(sal) FROM emp"
    " GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept",
    "SELECT SUM(sal) / COUNT(*) FROM emp",
    "SELECT sal > 90, COUNT(*) FROM emp GROUP BY sal > 90 ORDER BY 1",
    "SELECT COUNT(*), COUNT(*) + 1 FROM emp",
    "SELECT name FROM emp ORDER BY sal DESC, id",
    "SELECT name FROM emp e ORDER BY e.sal, name LIMIT 3 OFFSET 1",
    "SELECT name, sal * 2 AS s FROM emp ORDER BY s, dept, abs(id - 3)",
    "SELECT name, name FROM emp ORDER BY name",
    "SELECT dept, SUM(sal) AS total FROM emp GROUP BY dept ORDER BY total DESC",
    "SELECT emp.dept, COUNT(DISTINCT name), MAX(sal) - MIN(sal) FROM emp"
    " WHERE id BETWEEN 1 AND 4 GROUP BY dept"
    " HAVING SUM(sal) > 10 AND dept LIKE 'e%' ORDER BY 3 DESC",
    "SELECT upper(dept), COUNT(*) FROM emp GROUP BY upper(dept) ORDER BY 1",
    "SELECT id % 2, COUNT(*) FROM emp GROUP BY id % 2 HAVING id % 2 IN (0, 1)",
    "SELECT dept IS NULL, NOT (dept = 'hr'), -COUNT(*) FROM emp GROUP BY dept",
    "SELECT 1, COUNT(*), SUM(sal) FROM emp GROUP BY dept"
    " HAVING MAX(sal) NOT BETWEEN 1 AND 2",
    "SELECT DISTINCT dept, city FROM emp, dept WHERE dept = dname ORDER BY city",
    "SELECT DISTINCT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 2, dept",
    "SELECT src FROM edge EXCEPT SELECT dst FROM edge ORDER BY src LIMIT 5",
    "SELECT src, dst FROM edge INTERSECT SELECT dst, src FROM edge",
    "INSERT INTO emp (sal, id) VALUES (50.0, 9)",
    "INSERT INTO edge VALUES (1 + 1, 2 * 3)",
    "UPDATE emp SET sal = sal * 1.1 WHERE dept = 'eng'",
    "DELETE FROM emp",
    "DELETE FROM emp WHERE name NOT LIKE 'a%' OR id IN (1, 2)",
]

#: The repo benchmark's SQL: ``analytic_closure``'s seven SQL templates
#: with their literals fixed, and ``serving_mix``'s four templates.
BENCHMARK_CORPUS = [
    ("SELECT COUNT(*) FROM wisc WHERE onepercent = 7", ()),
    ("SELECT ten, COUNT(*), SUM(unique1) FROM wisc GROUP BY ten", ()),
    (
        "SELECT COUNT(*), SUM(b.twenty) FROM wisc a JOIN wisc b"
        " ON a.unique2 = b.unique2",
        (),
    ),
    (
        "SELECT COUNT(*), SUM(b.unique2) FROM wisc a JOIN wisc b"
        " ON a.unique1 = b.unique1",
        (),
    ),
    ("SELECT DISTINCT onepercent FROM wisc", ()),
    ("SELECT unique1, stringu1 FROM wisc ORDER BY unique1 LIMIT 10", ()),
    ("SELECT COUNT(*) FROM CLOSURE(e)", ()),
    ("SELECT v FROM kv WHERE id = ?", (7,)),
    ("UPDATE kv SET v = v + ? WHERE id = ?", (3, 7)),
    ("INSERT INTO kv VALUES (?, ?)", (90, 5)),
    ("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv", ()),
]

BENCHMARK_DDL = [
    "CREATE TABLE kv (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 4",
    "CREATE TABLE item (id INT PRIMARY KEY, v INT, tag TEXT) FRAGMENTED BY HASH(id) INTO 4",
    "CREATE TABLE d (v INT PRIMARY KEY, label TEXT)",
    "CREATE TABLE wisc (unique1 INT NOT NULL, unique2 INT PRIMARY KEY,"
    " two INT, four INT, ten INT, twenty INT, onepercent INT,"
    " stringu1 STRING, string4 STRING) FRAGMENTED BY HASH(unique2) INTO 8",
    "CREATE TABLE e (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 4",
]


def bound_form(catalog, sql, params=()):
    """What the binder makes of *sql*: the bound plan's key, the bound
    DML command's fields, or the type of the error it raises."""
    binder = Binder(catalog, params)
    statement = parse_statement(sql)
    if isinstance(statement, ast.ExplainStmt):
        statement = statement.target
    try:
        if isinstance(statement, ast.InsertStmt):
            bound = binder.bind_insert(statement)
            return ("insert", bound.table, bound.rows)
        if isinstance(statement, ast.UpdateStmt):
            bound = binder.bind_update(statement)
            return ("update", bound.table, bound.assignments, bound.predicate)
        if isinstance(statement, ast.DeleteStmt):
            bound = binder.bind_delete(statement)
            return ("delete", bound.table, bound.predicate)
        return binder.bind_query(statement).key()
    except PrismaError as error:
        return type(error).__name__


def template_corpus():
    """The template corpus of ``test_statement_templates``, four seeded
    draws a template — less the draws that sort by a literal that is no
    position (``ORDER BY ?`` bound to a string)."""
    from tests.test_statement_templates import CORPUS

    rng = random.Random(42)
    for template, draw in CORPUS:
        for _ in range(4):
            params = draw(rng)
            if "ORDER BY ?" in template and not isinstance(params[0], int):
                continue
            yield template, params


#: sha256 over every corpus statement's bound form, taken before the
#: binder's expression walks and ORDER BY steps were merged.  The front
#: end charges per bound plan node, so equal plans also cost the same.
PLAN_DIGEST = "deab52fc8b4a274b67c10acccd36c1d5b1bac10e08a3b37a010ece2f2a77ec6a"


def test_bound_plans_are_pinned():
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    for ddl in BENCHMARK_DDL:
        db.execute(ddl)
    schemas = db.gdh.catalog.schemas()
    lines = [repr((sql, bound_form(CATALOG, sql))) for sql in BINDER_CORPUS]
    for sql, params in [*BENCHMARK_CORPUS, *template_corpus()]:
        lines.append(repr((sql, params, bound_form(schemas, sql, params))))
    assert len(lines) == 115
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PLAN_DIGEST
