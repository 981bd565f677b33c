"""Property: the distributed engine answers exactly like single-site
evaluation, for randomly generated SQL over randomly fragmented data.

Hypothesis generates SELECT statements from a template grammar (filters,
joins, grouping, set operations, ordering) and random small relations;
each query runs against a PrismaDB whose two tables are fragmented by
hash, range, round-robin or a rebalancer-split hash map, and against
the LocalExecutor oracle on the gathered rows.  Any divergence is a bug
in planning, repartitioning, two-phase aggregation, or locking.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import MachineConfig, PrismaDB
from repro.algebra.local_exec import LocalExecutor
from repro.core.executor import BROADCAST_ROWS
from repro.sql import Binder, parse_statement
from repro.storage import DataType, Schema

R_SCHEMA = Schema.of(a=DataType.INT, b=DataType.INT, s=DataType.STRING)
S_SCHEMA = Schema.of(k=DataType.INT, t=DataType.STRING)

_r_rows = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(-5, 5),
        st.sampled_from(["x", "y", "z"]),
    ),
    min_size=0,
    max_size=25,
)
_s_rows = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from(["x", "y", "q"])),
    min_size=0,
    max_size=10,
)

_filters = st.sampled_from(
    [
        "",
        " WHERE a = 3",
        " WHERE b > 0",
        " WHERE a = 3 AND b <= 2",
        " WHERE s = 'x' OR b = -1",
        " WHERE a IN (1, 2, 3)",
        " WHERE s LIKE 'x%'",
        " WHERE a BETWEEN 2 AND 7",
    ]
)

_shapes = st.sampled_from(
    [
        "SELECT * FROM r{filter}",
        "SELECT a, b + 1 AS b1 FROM r{filter}",
        "SELECT DISTINCT s FROM r{filter}",
        "SELECT a, COUNT(*), SUM(b), AVG(b) FROM r{filter} GROUP BY a",
        "SELECT s, MIN(b), MAX(b) FROM r{filter} GROUP BY s HAVING COUNT(*) > 1",
        "SELECT COUNT(*) FROM r{filter}",
        "SELECT r.s, s.t FROM r, s WHERE r.a = s.k",
        "SELECT r.a FROM r JOIN s ON r.a = s.k AND r.s = s.t",
        "SELECT r.a, s.t FROM r LEFT JOIN s ON r.a = s.k{left_filter}",
        "SELECT a FROM r{filter} UNION SELECT k FROM s",
        "SELECT a FROM r{filter} EXCEPT SELECT k FROM s",
        "SELECT s FROM r{filter} INTERSECT SELECT t FROM s",
    ]
)


@st.composite
def queries(draw):
    shape = draw(_shapes)
    filter_clause = draw(_filters)
    return shape.format(filter=filter_clause, left_filter=filter_clause.replace(" WHERE ", " WHERE r."))


def oracle(sql: str, r_rows, s_rows):
    binder = Binder({"r": R_SCHEMA, "s": S_SCHEMA})
    plan = binder.bind_query(parse_statement(sql))
    rows = LocalExecutor({"r": r_rows, "s": s_rows}).run(plan)
    return sorted(rows, key=repr)


#: How a table is fragmented on its key column: the three schemes of
#: CREATE TABLE, and a hash table the rebalancer has split once (its
#: bucket map edited, so it no longer routes like the shuffle hash).
_schemes = st.sampled_from(["hash", "range", "roundrobin", "split"])
#: Range boundaries over the key values 0..9, one fewer than fragments.
_BOUNDARIES = {2: "(5)", 3: "(3, 7)", 5: "(2, 4, 6, 8)"}


def load(db: PrismaDB, table: str, columns: str, key: str, scheme: str, fragments: int, rows):
    """Create *table* in *fragments* fragments by *scheme* on *key*, and
    load *rows* (a split hash table is loaded into one fragment fewer,
    then split)."""
    clause = {
        "hash": f"HASH({key}) INTO {fragments}",
        "split": f"HASH({key}) INTO {fragments - 1}",
        "range": f"RANGE({key}) VALUES {_BOUNDARIES[fragments]}",
        "roundrobin": f"ROUNDROBIN INTO {fragments}",
    }[scheme]
    db.execute(f"CREATE TABLE {table} ({columns}) FRAGMENTED BY {clause}")
    db.bulk_load(table, rows)
    if scheme == "split":
        db.rebalancer.split_fragment(table, 0)


#: Equi-joins alone, drawn as often as the whole grammar: the strategies
#: that keep both sides partitioned (pair the parts, or repartition them)
#: are where the fragmentation scheme decides the answer.
_equi_joins = st.sampled_from(
    [
        "SELECT r.s, s.t FROM r, s WHERE r.a = s.k",
        "SELECT r.a, r.b, s.t FROM r JOIN s ON r.a = s.k",
        "SELECT r.a, s.t FROM r LEFT JOIN s ON r.a = s.k",
        "SELECT s.k, COUNT(*) FROM r JOIN s ON r.a = s.k GROUP BY s.k",
    ]
)


@given(
    sql=st.one_of(queries(), _equi_joins),
    r_rows=_r_rows,
    s_rows=_s_rows,
    fragments=st.sampled_from([2, 3, 5]),
    r_scheme=_schemes,
    s_scheme=_schemes,
    broadcast_rows=st.sampled_from([BROADCAST_ROWS, 0]),
)
@settings(max_examples=150, deadline=None)
def test_distributed_equals_local(sql, r_rows, s_rows, fragments, r_scheme, s_scheme, broadcast_rows):
    """Any two schemes, both tables in as many fragments, so only the
    routing tells a co-partitioned pair from one that merely shares its
    key column and part count.  With ``broadcast_rows`` 0 no join side
    is small enough to broadcast: equi-joins pair parts or repartition."""
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    load(db, "r", "a INT, b INT, s STRING", "a", r_scheme, fragments, r_rows)
    load(db, "s", "k INT, t STRING", "k", s_scheme, fragments, s_rows)
    with mock.patch("repro.core.dispatch.BROADCAST_ROWS", broadcast_rows):
        measured = sorted(db.query(sql), key=repr)
    expected = oracle(sql, r_rows, s_rows)
    assert measured == expected, (sql, r_scheme, s_scheme)


@given(sql=queries(), r_rows=_r_rows, s_rows=_s_rows)
@settings(max_examples=80, deadline=None)
def test_optimizer_never_changes_answers(sql, r_rows, s_rows):
    """The whole optimizer pipeline (rewrites, join ordering, pruning,
    CSE) must be answer-preserving through the full engine."""
    from repro.algebra.optimizer import OptimizerOptions

    results = []
    for options in (
        OptimizerOptions(),
        OptimizerOptions(
            enable_rewrites=False,
            enable_join_reorder=False,
            enable_prune=False,
            enable_cse=False,
        ),
    ):
        db = PrismaDB(
            MachineConfig(n_nodes=8, disk_nodes=(0,)), optimizer_options=options
        )
        db.execute("CREATE TABLE r (a INT, b INT, s STRING) FRAGMENTED BY HASH(a) INTO 3")
        db.execute("CREATE TABLE s (k INT, t STRING)")
        db.bulk_load("r", r_rows)
        db.bulk_load("s", s_rows)
        results.append(sorted(db.query(sql), key=repr))
    assert results[0] == results[1], sql
