"""Unit tests for the smaller supporting modules: table and result
formatting, the evaluator facade, commit log, DBA statements."""

import pytest

from repro import MachineConfig, PrismaDB
from repro.machine import Machine
from repro.exec.evaluation import INTERPRETATION_FACTOR, Evaluator, expression_weight
from repro.exec.expressions import Arithmetic, Comparison, and_, col, eq, lit
from repro.core.result import QueryResult
from repro.core.twophase import CommitLog
from repro.obs.export import format_table


class TestStatsHelpers:
    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("n")
        assert all(len(line) == len(lines[0]) for line in lines[1:])


class TestEvaluatorFacade:
    def test_weight_counts_nodes(self):
        expr = and_(eq(col(0), lit(1)), Comparison("<", col(1), lit(2)))
        assert expression_weight(expr) == 7  # and + 2 cmp + 4 leaves

    def test_interpreted_weight_penalized(self):
        expr = eq(col(0), lit(1))
        _, compiled_weight = Evaluator(compiled=True).predicate(expr)
        _, interpreted_weight = Evaluator(compiled=False).predicate(expr)
        assert interpreted_weight == compiled_weight * INTERPRETATION_FACTOR

    def test_backends_agree(self):
        expr = Comparison(">", Arithmetic("+", col(0), col(1)), lit(5))
        rows = [(2, 4), (1, 1), (None, 3)]
        compiled_fn, _ = Evaluator(compiled=True).predicate(expr)
        interpreted_fn, _ = Evaluator(compiled=False).predicate(expr)
        assert [compiled_fn(r) for r in rows] == [interpreted_fn(r) for r in rows]

    def test_scalar_helper(self):
        fn, _ = Evaluator().scalar(Arithmetic("*", col(0), lit(3)))
        assert fn((4,)) == 12


class TestQueryResult:
    def test_scalar(self):
        result = QueryResult("select", columns=["n"], rows=[(5,)])
        assert result.scalar() == 5

    def test_scalar_requires_1x1(self):
        with pytest.raises(ValueError):
            QueryResult("select", columns=["n"], rows=[(5,), (6,)]).scalar()
        with pytest.raises(ValueError):
            QueryResult("select", columns=["a", "b"], rows=[(1, 2)]).scalar()

    def test_format_table_renders_nulls_and_truncates(self):
        result = QueryResult(
            "select",
            columns=["a"],
            rows=[(None,)] + [(i,) for i in range(60)],
        )
        text = result.format_table(max_rows=5)
        assert "NULL" in text
        assert "more rows" in text

    def test_message_only_results(self):
        result = QueryResult("ddl", message="done")
        assert result.format_table() == "done"
        assert result.response_time == 0.0


class TestCommitLog:
    def test_outcomes_roundtrip(self):
        machine = Machine(MachineConfig(n_nodes=2, disk_nodes=(0,)))
        log = CommitLog(machine, coordinator_node=1)
        cost = log.record(7, "commit")
        assert cost > 0
        log.record(9, "abort")
        outcomes, scan_cost = log.scan()
        assert outcomes == {7: "commit", 9: "abort"}
        assert outcomes.get(12345, "abort") == "abort"  # presumed abort
        assert scan_cost > 0


class TestDbaStatements:
    @pytest.fixture
    def db(self):
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 2"
        )
        db.bulk_load("t", [(i, i % 4) for i in range(20)])
        return db

    def test_show_fragments(self, db):
        result = db.execute("SHOW FRAGMENTS t")
        assert result.columns == ["fragment", "copy", "element", "ofm", "rows"]
        assert len(result.rows) == 2
        assert sum(row[4] for row in result.rows) == 20

    def test_analyze_updates_distinct_estimates(self, db):
        db.execute("DELETE FROM t WHERE v = 0")
        db.execute("ANALYZE t")
        estimates = db.catalog.table("t").distinct_estimates
        assert estimates["v"] == 3

    def test_analyze_all_tables(self, db):
        db.execute("CREATE TABLE u (x INT)")
        result = db.execute("ANALYZE")
        assert "2 table(s)" in result.message

    def test_show_fragments_unknown_table(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.execute("SHOW FRAGMENTS nope")


class TestExplainOutput:
    def test_explain_reports_estimates_and_lock_footprint(self):
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 4"
        )
        db.bulk_load("t", [(i, i % 3) for i in range(100)])
        lines = [row[0] for row in db.execute(
            "EXPLAIN SELECT v FROM t WHERE id = 5"
        ).rows]
        text = "\n".join(lines)
        assert "estimated rows: 1" in text
        assert "fragments to lock/scan: 1" in text  # point query prunes
        full = "\n".join(
            row[0] for row in db.execute("EXPLAIN SELECT * FROM t").rows
        )
        assert "fragments to lock/scan: 4" in full
