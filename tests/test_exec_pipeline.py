"""The pipeline compiler against its oracle, the row-at-a-time path.

One generated function per operator chain (``repro.exec.pipeline``)
must be invisible: same rows with the same element types, the same
``WorkMeter`` totals per stage, and — through the distributed executor
— the same simulated clocks, busy totals and ``operator.execute`` spans
as running the chain one operator call at a time (the oracle's
``RowEvaluator``, swapped in with ``use_evaluator``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig, PrismaDB, Tracer
from repro.exec.compiler import COMPILER_CACHE_CAPACITY
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import (
    Arithmetic,
    BoolOp,
    Comparison,
    IsNull,
    Negate,
    col,
    lit,
)
from repro.exec.operators import WorkMeter
from repro.exec.pipeline import Pipeline, aggregate_op
from repro.core.dispatch import UpdatePlan
from repro.sql.binder import Binder, BoundUpdate

from tests.oracle import RowEvaluator, use_evaluator

# ---------------------------------------------------------------------------
# (a) Randomized identity: fused chain == row path, element types included.
# ---------------------------------------------------------------------------

#: Column kinds a generated chain tracks, with the values each draws.
#: "int" mixes bools in (what an ANY column may hold), "float" carries
#: the values where summation order and comparisons go wrong first.
VALUES = {
    "int": st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(-(2**40), 2**40)),
    "float": st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e16, -1e16, 1.0]),
        st.floats(-10, 10),
    ),
    "str": st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab", "ü"])),
    "key": st.one_of(st.none(), st.integers(0, 2)),
}
LITERALS = {"int": 1, "float": 0.5, "str": "a", "key": 1}
KINDS = ["int", "float", "str", "key"]


@st.composite
def chains(draw):
    """(rows, stages): 1-4 ops over typed columns, split into stages."""
    kinds = list(KINDS)
    rows = draw(
        st.lists(st.tuples(*(VALUES[k] for k in kinds)), min_size=0, max_size=12)
    )
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        width = len(kinds)
        position = st.integers(0, width - 1)
        kind = draw(st.sampled_from(["select", "project", "aggregate", "topn", "distinct", "sort", "limit"]))
        if kind == "select":
            i = draw(position)
            compare = Comparison(draw(st.sampled_from(["=", "<", ">=", "<>"])), col(i), lit(LITERALS[kinds[i]]))
            predicate = draw(
                st.sampled_from(
                    [
                        compare,
                        IsNull(col(i), negated=draw(st.booleans())),
                        BoolOp("or", (compare, IsNull(col(draw(position))))),
                    ]
                )
            )
            ops.append(("select", predicate))
        elif kind == "project":
            exprs, new_kinds = [], []
            for _ in range(draw(st.integers(1, 3))):
                i = draw(position)
                expr = col(i)
                if kinds[i] in ("int", "float", "key") and draw(st.booleans()):
                    expr = draw(
                        st.sampled_from(
                            [
                                Arithmetic("+", col(i), lit(LITERALS[kinds[i]])),
                                Arithmetic("*", col(i), col(i)),
                                Negate(col(i)),
                            ]
                        )
                    )
                exprs.append(expr)
                new_kinds.append(kinds[i])
            ops.append(("project", tuple(exprs)))
            kinds = new_kinds
        elif kind == "aggregate":
            group_cols = draw(st.lists(position, max_size=2, unique=True))
            specs, agg_kinds = [], []
            for _ in range(draw(st.integers(0 if group_cols else 1, 3))):
                i = draw(position)
                funcs = ["count", "min", "max"]
                if kinds[i] != "str":
                    funcs += ["sum", "avg"]
                func = draw(st.sampled_from(funcs))
                if func == "count" and draw(st.booleans()):
                    specs.append(("count", None))
                else:
                    specs.append((func, col(i), draw(st.booleans())))
                agg_kinds.append(
                    "key" if func == "count" else "float" if func == "avg" else kinds[i]
                )
            ops.append(aggregate_op(group_cols, specs))
            kinds = [kinds[i] for i in group_cols] + agg_kinds
        elif kind in ("topn", "sort"):
            keys = tuple(
                (i, draw(st.booleans()))
                for i in draw(st.lists(position, min_size=1, max_size=2, unique=True))
            )
            if kind == "sort":
                ops.append(("sort", keys))
            else:
                ops.append(("topn", keys, draw(st.integers(0, 5)), draw(st.integers(0, 2))))
        elif kind == "limit":
            ops.append(("limit", draw(st.one_of(st.none(), st.integers(0, 5))), draw(st.integers(0, 2))))
        else:
            ops.append(("distinct",))
    # Cut the op list into stages at random points.
    stages, stage = [], []
    for op in ops:
        stage.append(op)
        if draw(st.booleans()):
            stages.append(tuple(stage))
            stage = []
    if stage:
        stages.append(tuple(stage))
    return rows, tuple(stages)


def _run(evaluator, stages, rows, rescan):
    meters = [WorkMeter() for _ in stages]
    out, outs = evaluator.pipeline(stages).run(rows, meters, rescan=rescan)
    return out, outs, [(m.tuples, m.hashes, m.compares) for m in meters]


@settings(max_examples=400, deadline=None)
@given(chains(), st.booleans())
def test_fused_chain_equals_row_path(chain, rescan):
    rows, stages = chain
    fused, row = Evaluator(), RowEvaluator()
    got = _run(fused, stages, rows, rescan)
    want = _run(row, stages, rows, rescan)
    # repr() tells 1 from True from 1.0 and -0.0 from 0.0, and lets a
    # computed NaN equal a computed NaN.
    assert repr(got) == repr(want)


def test_sum_traps_first_value_sign_and_order():
    """``sum()`` would give 1, 0.0 and (from 3.12 on) a compensated total."""
    ops = (aggregate_op((), [("sum", col(0)), ("avg", col(0)), ("count", col(0))]),)
    for values in ([True], [-0.0], [0.1] * 10, [1e16, 1.0, -1e16, 1.0], [None, None], []):
        rows = [(v,) for v in values]
        got = _run(Evaluator(), (ops,), rows, False)
        want = _run(RowEvaluator(), (ops,), rows, False)
        assert repr(got) == repr(want), values


def test_int_declared_columns_sum_in_c_and_others_do_not():
    exact = ("aggregate", (), (("sum", col(0), False, True),))
    loose = ("aggregate", (), (("sum", col(0), False, False),))
    assert " sum(" in Evaluator().pipeline(((exact,),)).kernel.__prisma_source__
    assert "_reduce(_add" in Evaluator().pipeline(((loose,),)).kernel.__prisma_source__
    rows = [(i,) for i in range(-5, 50)] + [(None,)]
    for op in (exact, loose):
        assert _run(Evaluator(), ((op,),), rows, False)[0] == [(sum(range(-5, 50)),)]


def test_projection_is_composed_not_built():
    stages = ((("project", (col(1),)),), (aggregate_op((), [("sum", col(0))]),))
    source = Evaluator().pipeline(stages).kernel.__prisma_source__
    assert "row[1]" in source and "zip(" not in source and "for row in rows" in source


def test_min_max_keep_first_of_equals_and_skip_nan():
    ops = (aggregate_op((), [("min", col(0)), ("max", col(0))]),)
    for values in ([1, True, 1.0], [True, 1], [math.nan, 1.0, 2.0], [2.0, math.nan, 1.0], ["b", "a", "ü"]):
        rows = [(v,) for v in values]
        got = _run(Evaluator(), (ops,), rows, False)
        want = _run(RowEvaluator(), (ops,), rows, False)
        assert repr(got) == repr(want), values


@settings(max_examples=100, deadline=None)
@given(chains())
def test_every_chain_compiles(chain):
    """DISTINCT aggregates included: the engine has no other chain runner."""
    _rows, stages = chain
    assert isinstance(Evaluator().pipeline(stages), Pipeline)


#: Values equal as set members (1, 1.0, True; -0.0, 0.0), a NULL, and
#: two NaNs: one object twice (a set finds it by identity) and another.
DISTINCT_VALUES = [1, 1.0, True, math.nan, None, -0.0, 1, 0.0, math.nan, 2.5, float("nan")]


def test_distinct_aggregates_match_the_oracle_global_and_grouped():
    """``COUNT(x)`` and ``COUNT(DISTINCT x)`` in one aggregation never
    share a column: the plain column keeps every non-NULL value."""
    specs = [
        ("count", col(1)),
        ("count", col(1), True),
        ("sum", col(1), True),
        ("avg", col(1), True),
        ("min", col(1), True),
        ("max", col(1), True),
        ("sum", col(1)),
    ]
    rows = [(i % 2, v) for i, v in enumerate(DISTINCT_VALUES)]
    for group_cols in ((), (0,)):
        stages = ((aggregate_op(group_cols, specs),),)
        got = _run(Evaluator(), stages, rows, False)
        want = _run(RowEvaluator(), stages, rows, False)
        assert repr(got) == repr(want), group_cols
    (global_row,), _outs, _meters = _run(
        Evaluator(), ((aggregate_op((), specs),),), rows, False
    )
    assert global_row[:2] == (10, 5)


def test_compiler_cache_counts_operator_shapes_not_chains():
    """``uses`` runs of a 2-op chain count what 2 kernels x ``uses`` did."""
    cache = Evaluator().cache
    stages = ((("project", (col(1),)),), (aggregate_op((), [("sum", col(0))]),))
    cache.pipeline(stages, uses=8)
    assert (cache.compilations, cache.hits) == (2, 14)
    cache.pipeline(stages[:1], uses=3)  # a shape seen before, in another chain
    assert (cache.compilations, cache.hits) == (2, 17)


# ---------------------------------------------------------------------------
# (b) + (c) Clock identity through the distributed executor.
# ---------------------------------------------------------------------------

ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y).\n"
    "ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).\n"
    "? ancestor(p0, X).\n"
)


def _statements():
    """200 statements: the serving templates, the analytic templates,
    a HAVING and a DISTINCT aggregate."""
    script = []
    for i in range(20):
        script += [
            f"SELECT v FROM kv WHERE id = {i * 7 % 64}",
            f"UPDATE kv SET v = v + {i % 9 + 1} WHERE id = {i * 5 % 64}",
            f"INSERT INTO kv VALUES ({1000 + i}, {i})",
            "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv",
        ]
    for i in range(12):
        script += [
            f"SELECT COUNT(*) FROM wisc WHERE onepercent = {i}",
            "SELECT ten, COUNT(*), SUM(unique1) FROM wisc GROUP BY ten",
            "SELECT COUNT(*), SUM(b.twenty) FROM wisc a JOIN wisc b ON a.unique2 = b.unique2",
            "SELECT COUNT(*), SUM(b.unique2) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1",
            "SELECT DISTINCT onepercent FROM wisc",
            f"SELECT unique1, stringu1 FROM wisc ORDER BY unique1 LIMIT {i + 1}",
            "SELECT COUNT(*) FROM CLOSURE(e)",
            ANCESTOR,
            "SELECT ten, AVG(unique1) FROM wisc WHERE two = 1 GROUP BY ten HAVING COUNT(*) > 3",
            "SELECT COUNT(DISTINCT twenty), MIN(stringu1) FROM wisc",
        ]
    assert len(script) == 200
    return script


def _twin(batch: bool, n_nodes: int = 16, fragments: int = 4):
    """A loaded database running generated kernels, or (not *batch*)
    the oracle's row-at-a-time loops."""
    tracer = Tracer()
    db = PrismaDB(MachineConfig(n_nodes=n_nodes, disk_nodes=(0,)), tracer=tracer)
    db.execute(f"CREATE TABLE kv (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO {fragments}")
    db.execute(
        "CREATE TABLE wisc (unique1 INT NOT NULL, unique2 INT PRIMARY KEY, two INT,"
        " ten INT, twenty INT, onepercent INT, stringu1 STRING)"
        f" FRAGMENTED BY HASH(unique2) INTO {fragments}"
    )
    db.execute("CREATE TABLE e (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 2")
    db.execute("CREATE TABLE parent (par STRING, child STRING)")
    db.bulk_load("kv", [(i, i * 3 % 17) for i in range(64)])
    db.bulk_load(
        "wisc",
        [
            (u := i * 37 % 300, i, u % 2, u % 10, u % 20, u % 100, f"s{u:05d}")
            for i in range(300)
        ],
    )
    db.bulk_load("e", [(i, i + 1) for i in range(12)] + [(i, i + 3) for i in range(0, 12, 2)])
    db.bulk_load("parent", [(f"p{i}", f"p{i + 1}") for i in range(8)])
    if not batch:
        use_evaluator(db, RowEvaluator())
    return db, tracer


def _state(db, tracer):
    return {
        "sessions": [state.clock for state in db.gdh.sessions.values()],
        "busy": [node.stats.busy_time_s for node in db.machine.nodes],
        "tuples": [node.stats.tuples_processed for node in db.machine.nodes],
        "spans": [record for record in tracer.events if record[2] == "operator.execute"],
    }


def _run_script(db):
    out = []
    for text in _statements():
        if text is ANCESTOR:
            (result,) = db.execute_prismalog(text)
        else:
            result = db.execute(text)
        out.append((sorted(result.rows, key=repr), result.response_time))
    return out


def test_twin_databases_fused_and_row_path_agree_to_the_bit():
    fused, fused_tracer = _twin(batch=True)
    row, row_tracer = _twin(batch=False)
    assert _run_script(fused) == _run_script(row)
    got, want = _state(fused, fused_tracer), _state(row, row_tracer)
    assert len(got["spans"]) > 1000
    assert got == want


def test_two_fragments_on_one_processing_element_charge_stage_major():
    """8 fragments on 3 elements.  An element hosting several parts sums
    its busy time in the order the charges arrive, and float addition
    does not reassociate, so a chain's charges must arrive as they did
    when one operator at a time ran over all parts: stage-major."""
    fused, fused_tracer = _twin(batch=True, n_nodes=3, fragments=8)
    row, row_tracer = _twin(batch=False, n_nodes=3, fragments=8)
    hosts = [ofm.node_id for ofm in fused.gdh.fragment_ofms.values()]
    assert len(hosts) > len(set(hosts))
    for db, tracer in ((fused, fused_tracer), (row, row_tracer)):
        tracer.reset()
        db.execute("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv")
        spans = _state(db, tracer)["spans"]
        assert [record[3] for record in spans] == (
            ["ProjectNode"] * 8  # Project[v], every part
            + ["AggregateNode"] * 8  # then the partial aggregate, every part
            + ["ProjectNode"] * 2  # the merge, the output projection
        )
        assert [record[4] for record in spans[:8]] == [record[4] for record in spans[8:16]]
    assert _run_script(fused) == _run_script(row)
    assert _state(fused, fused_tracer) == _state(row, row_tracer)


# ---------------------------------------------------------------------------
# (d) DML finds its victims through a unique index.
# ---------------------------------------------------------------------------


def _dml_twin(use_index: bool):
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.bulk_load("t", [(i, i % 5, i * 10) for i in range(40)])
    (ofm,) = db.gdh.fragment_ofms.values()
    assert {index.unique for index in ofm.table.indexes.values()} == {True, False}
    if not use_index:
        ofm._index_candidates = lambda *args, **kwargs: None
    return db, ofm


def _row_function(db, ofm, assignments):
    """row -> updated row, as an UPDATE's dispatch plan builds it."""
    plan = UpdatePlan(BoundUpdate("t", assignments, None), ofm.schema)
    return plan.row_function(db.gdh.executor.evaluator)


def _dml_script(db, ofm):
    binder = Binder(db.gdh.catalog.schemas(), ())
    bump = _row_function(db, ofm, [(2, Arithmetic("+", col(2), lit(1)))])
    log = []
    for txn_id, (kind, where) in enumerate(
        [
            ("update", "id = 7"),  # unique index
            ("update", "id = 7 AND w > 50"),  # residual conjunct, passes
            ("update", "id = 8 AND w > 5000"),  # residual conjunct, fails
            ("update", "v = 3"),  # non-unique index: several victims, scan order
            ("update", "id = 999"),  # no such key
            ("delete", "id = 9"),
            ("delete", "v = 4 AND w < 200"),
            ("update", "w >= 0"),  # no index at all
        ],
        start=1,
    ):
        statement = db.gdh.parse(f"DELETE FROM t WHERE {where}")
        predicate = binder.bind_delete(statement).predicate
        if kind == "update":
            log.append(ofm.txn_update_where(txn_id, predicate, bump))
        else:
            log.append(ofm.txn_delete_where(txn_id, predicate))
        ofm.commit(txn_id)
    return log


def test_dml_by_unique_index_matches_the_scan():
    (db_i, by_index), (db_s, by_scan) = _dml_twin(True), _dml_twin(False)
    assert _dml_script(db_i, by_index) == _dml_script(db_s, by_scan)
    assert list(by_index.table.scan()) == list(by_scan.table.scan())
    assert by_index.wal.durable_bytes() == by_scan.wal.durable_bytes() > 0
    assert by_index.wal.forces == by_scan.wal.forces
    assert by_index.ready_at == by_scan.ready_at
    for a, b in zip(db_i.machine.nodes, db_s.machine.nodes):
        assert (a.stats.busy_time_s, a.stats.tuples_processed) == (
            b.stats.busy_time_s,
            b.stats.tuples_processed,
        )
    # The index consumed the equality conjunct: no predicate per key.
    assert len(by_index.evaluator.cache) < len(by_scan.evaluator.cache)


# ---------------------------------------------------------------------------
# The compiler cache is bounded; literal DML is bound once.
# ---------------------------------------------------------------------------


def test_ten_thousand_literals_stay_within_the_compiler_cache_bound():
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.bulk_load("t", [(i, i) for i in range(8)])
    (ofm,) = db.gdh.fragment_ofms.values()
    bump = _row_function(db, ofm, [(1, lit(0))])
    for k in range(10_000):
        # The unique index takes the key: nothing is compiled per literal.
        ofm.txn_update_where(1, Comparison("=", col(0), lit(k)), bump)
    assert len(ofm.evaluator.cache) == 0
    for k in range(10_000):
        ofm.filtered_scan(Comparison("=", col(1), lit(k)))  # no index on v
    cache = ofm.evaluator.cache
    assert len(cache) <= COMPILER_CACHE_CAPACITY
    assert cache.compilations == 10_000
    # Evicted shapes compile again; resident ones still hit.
    ofm.filtered_scan(Comparison("=", col(1), lit(0)))
    ofm.filtered_scan(Comparison("=", col(1), lit(9_999)))
    assert (cache.compilations, cache.hits) == (10_001, 1)


def test_literal_dml_is_bound_once_per_ddl_epoch(monkeypatch):
    calls = []
    original = Binder.bind_update
    monkeypatch.setattr(
        Binder, "bind_update", lambda self, stmt: calls.append(stmt) or original(self, stmt)
    )

    def fresh():
        db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.bulk_load("t", [(i, i) for i in range(8)])
        return db

    text = "UPDATE t SET v = v + 1 WHERE id = 3"
    db, forgetful = fresh(), fresh()
    for _ in range(3):
        db.execute(text)
    assert len(calls) == 1
    for _ in range(3):
        forgetful.gdh.parse_memo.clear()
        forgetful.execute(text)
    assert len(calls) == 4
    # The memo saves host work only: same simulated front-end charge.
    assert db.simulated_time() == forgetful.simulated_time()
    db.execute("CREATE INDEX t_v ON t (v)")  # DDL: the bound form is stale
    db.execute(text)
    assert len(calls) == 5
    assert db.query("SELECT v FROM t WHERE id = 3") == [(7,)]
    # A failing bind is not memoized.
    for _ in range(2):
        try:
            db.execute("UPDATE t SET nope = 1 WHERE id = 3")
        except Exception:
            pass
    assert len(calls) == 7
