"""Prepare once, dispatch per execution.

Oracles for the template front end and the dispatch plan a prepared
statement carries:

* a statement template executed with parameters behaves exactly like
  the same statement with the values written into its text — rows,
  rowcounts, exception types, end state — over a corpus covering every
  place a ``?`` may stand; run from one cached ``Prepared`` it also
  costs the simulated machine exactly what the literal statement costs;
* the parse memo is host-only: a database that never installs the
  serving layer produces byte-identical fingerprints and clocks whether
  the memo is cold or hot;
* a dispatch plan is built once, never instantiates a plan, survives an
  element crash, and is refused once a placement change makes it stale.
"""

import pathlib
import random
import sys
from collections import defaultdict

import pytest

from repro import MachineConfig, PrismaDB
from repro.algebra import plan as plan_module
from repro.algebra.optimizer import OptimizedPlan
from repro.core import dispatch
from repro.core.gdh import GlobalDataHandler
from repro.errors import ParseError, PrismaError, TransactionError
from repro.exec.expressions import Literal, Param, has_params, substitute_params
from repro.serve.params import statement_key
from repro.sql import parse_statement
from repro.sql.binder import BoundDelete, BoundInsert, BoundUpdate

# -- (a) template vs literal ------------------------------------------------

#: The four statements of the repo benchmark's ``serving_mix``.
SERVING_MIX = [
    ("SELECT v FROM kv WHERE id = ?", lambda r: (r.randrange(80),)),
    (
        "UPDATE kv SET v = v + ? WHERE id = ?",
        lambda r: (r.randint(1, 9), r.randrange(80)),
    ),
    (
        "INSERT INTO kv VALUES (?, ?)",
        lambda r: (r.randrange(60, 120), r.randint(0, 99)),  # may collide
    ),
    ("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv", lambda r: ()),
]

NAMES = ["ann", "bob", "cy", "dee", "o'neil", "%", ""]


def _value(r):
    return r.choice([r.randrange(-5, 90), r.random() * 50, None, True, r.choice(NAMES)])


CORPUS = SERVING_MIX + [
    (
        "UPDATE item SET v = ?, tag = ? WHERE id >= ? AND id < ? AND v <> ?",
        lambda r: (r.randint(0, 9), r.choice(NAMES), r.randrange(40), r.randrange(80), 3),
    ),
    (
        "DELETE FROM item WHERE id > ? AND (tag = ? OR v < ?)",
        lambda r: (r.randrange(30, 80), r.choice(NAMES), r.randint(0, 50)),
    ),
    (
        "INSERT INTO item (v, id, tag) VALUES (?, ?, ?), (? + 1, ? * 2, 'lit'), (0, ?, NULL)",
        lambda r: tuple(
            [r.randint(0, 9), r.randrange(200, 400), r.choice(NAMES)]
            + [r.randint(0, 9), r.randrange(200, 400), r.randrange(800, 999)]
        ),
    ),
    (
        "SELECT id FROM item WHERE id IN (?, 3, ?) OR tag NOT IN (?, 'bob')",
        lambda r: (r.randrange(80), r.randrange(80), r.choice(NAMES)),
    ),
    ("SELECT id, tag FROM item WHERE tag LIKE ?", lambda r: (r.choice(["a%", "%", "_o_", "x", 5]),)),
    (
        "SELECT id, v FROM item WHERE v > ? ORDER BY id LIMIT ? OFFSET ?",
        lambda r: (r.randint(0, 50), r.choice([0, 1, 5, 1.5, "2"]), r.randrange(3)),
    ),
    ("SELECT id, v FROM item ORDER BY ? DESC LIMIT 4", lambda r: (r.choice([1, 2, 3, "v"]),)),
    (
        "SELECT item.id, d.label FROM item JOIN d ON item.v = d.v"
        " WHERE d.label <> ? AND item.id BETWEEN ? AND ?",
        lambda r: (r.choice(NAMES), r.randrange(40), r.randrange(80)),
    ),
    (
        "SELECT tag, COUNT(*), SUM(v + ?) FROM item WHERE id < ?"
        " GROUP BY tag HAVING COUNT(*) >= ?",
        lambda r: (r.choice([1, 0.5]), r.randrange(80), r.randint(0, 3)),
    ),
    # (Numbers only under the "+": the literal form is folded at plan
    # time into a typed Values row, which refuses TRUE + 1.)
    (
        "SELECT ? + 1, abs(?), ? IS NULL",
        lambda r: (r.choice([3, 2.5, None]), r.choice([-2, 2.5]), _value(r)),
    ),
    ("SELECT id FROM item WHERE v = ? / ? AND ?", lambda r: (r.randint(0, 9), r.randint(0, 2), True)),
    ("SELECT id FROM item WHERE tag = ? UNION SELECT id FROM item WHERE v = ?",
     lambda r: (r.choice(NAMES), r.randint(0, 9))),
    ("INSERT INTO item VALUES (?, ?, ?)", lambda r: (_value(r), _value(r), _value(r))),
    ("EXPLAIN SELECT v FROM item WHERE id = ?", lambda r: (r.randrange(80),)),
]


def twin():
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 4"
    )
    db.execute(
        "CREATE TABLE item (id INT PRIMARY KEY, v INT, tag TEXT)"
        " FRAGMENTED BY HASH(id) INTO 4"
    )
    db.execute("CREATE TABLE d (v INT PRIMARY KEY, label TEXT)")
    db.bulk_load("kv", [(i, i * 3) for i in range(80)])
    db.bulk_load("item", [(i, i % 10, NAMES[i % len(NAMES)]) for i in range(80)])
    db.bulk_load("d", [(i, NAMES[i % len(NAMES)]) for i in range(10)])
    return db


def splice(template: str, params: tuple) -> str:
    """*template* with each ``?`` replaced by its value's SQL literal."""
    pieces = template.split("?")
    assert len(pieces) == len(params) + 1
    text = pieces[0]
    for value, piece in zip(params, pieces[1:]):
        text += Literal(value).to_sql() + piece
    return text


def outcome(cursor, sql, params=None):
    try:
        cursor.execute(sql, params)
    except PrismaError as error:
        return type(error)
    rows = cursor.fetchall()
    if " ORDER BY " not in sql:
        rows = sorted(rows, key=repr)
    return cursor.description, rows, cursor.rowcount


# (The expression compiler's ``(3) is None`` for ``3 IS NULL``.)
@pytest.mark.filterwarnings('ignore:"is" with:SyntaxWarning')
def test_template_execution_equals_literal_execution():
    templated, literal = twin(), twin()
    with_params, with_text = templated.connect().cursor(), literal.connect().cursor()
    rng = random.Random(12)
    errors = 0
    for round_ in range(12):
        for template, draw in CORPUS:
            params = draw(rng)
            got = outcome(with_params, template, params)
            want = outcome(with_text, splice(template, params))
            assert got == want, (template, params)
            errors += isinstance(got, type)
    assert errors > 10  # the corpus does exercise the failure paths
    for table in ("kv", "item", "d"):
        assert templated.query(f"SELECT * FROM {table}") == literal.query(
            f"SELECT * FROM {table}"
        )
    # The templated twin prepared each template a handful of times
    # (once per combination of parameter types), not once per execution.
    cache = templated.gdh.plan_cache
    assert cache.evictions == 0 and cache.hit_rate > 0.6
    assert literal.gdh.plan_cache.hit_rate < cache.hit_rate


#: Templates whose literal form the optimizer folds further (a constant
#: select list, ``? / ?`` and a bare ``AND ?`` in a predicate): another
#: plan, so other operator charges.  Their rows agree all the same.
FOLDED = {"SELECT ? + 1, abs(?), ? IS NULL", "SELECT id FROM item WHERE v = ? / ? AND ?"}


def simulated(db, session):
    runtime = db.runtime.stats
    busy = [pe.stats.busy_time_s for pe in db.machine.nodes]
    return session.clock, runtime.messages, runtime.bytes_moved, busy


def result_of(run, ordered):
    try:
        result = run()
    except PrismaError as error:
        return type(error)
    rows = result.rows if ordered else sorted(result.rows, key=repr)
    return result.columns, rows, result.affected_rows


# (The expression compiler's ``(3) is None`` for ``3 IS NULL``.)
@pytest.mark.filterwarnings('ignore:"is" with:SyntaxWarning')
def test_a_cached_dispatch_plan_costs_what_the_literal_statement_costs():
    """Each template runs from one Prepared per parameter types, its
    dispatch plan built once; each literal statement is prepared afresh.
    Both take the cache-hit front-end charge, so every other simulated
    figure — the session clock, messages, bytes shipped, each element's
    busy time — must agree after every statement."""
    templated, literal = twin(), twin()
    sessions = templated.gdh.new_session(), literal.gdh.new_session()
    prepared: dict = {}
    executions = 0
    rng = random.Random(21)
    for round_ in range(8):
        for template, draw in CORPUS:
            if template in FOLDED:
                continue
            params = draw(rng)
            gdh = templated.gdh
            statement = gdh.parse(template)
            key = statement_key(template, params, statement.by_value)

            def cached(gdh=gdh, statement=statement, key=key, params=params):
                if key not in prepared:
                    prepared[key] = gdh.prepare(statement, params)
                return gdh.execute_statement(prepared[key], sessions[0], params, cached=True)

            def fresh(gdh=literal.gdh, text=splice(template, params)):
                statement = gdh.prepare(gdh.parse(text))
                return gdh.execute_statement(statement, sessions[1], (), cached=True)

            ordered = " ORDER BY " in template
            assert result_of(cached, ordered) == result_of(fresh, ordered), (template, params)
            executions += 1
            assert simulated(templated, sessions[0]) == simulated(literal, sessions[1]), (
                template, params,
            )
    assert len(prepared) * 4 < executions


@pytest.mark.parametrize("template, draw", SERVING_MIX)
def test_instantiated_serving_plans_equal_freshly_optimized_ones(template, draw):
    gdh = twin().gdh
    rng = random.Random(5)
    prepared = gdh.prepare(gdh.parse(template), draw(rng))
    evaluator = gdh.executor.evaluator
    for _ in range(5):
        params = draw(rng)
        fresh = gdh.prepare(gdh.parse(splice(template, params)))
        # One execution routes to what the literal statement routes to:
        # the same lock set, and the same arguments for the body.
        resources, args = prepared.dispatch.route(gdh.catalog, params)
        fresh_resources, fresh_args = fresh.dispatch.route(gdh.catalog, ())
        assert resources == fresh_resources
        if template.startswith("SELECT"):
            bound = prepared.dispatch.optimized.with_params(params)
            literal = fresh.dispatch.optimized
            assert bound.plan.key() == literal.plan.key()
            assert [s.plan.key() for s in bound.shared] == [s.plan.key() for s in literal.shared]
            assert bound.estimated_rows == literal.estimated_rows
            assert args[0].routes == fresh_args[0].routes
        elif template.startswith("UPDATE"):
            assert args[:2] + args[3:] == fresh_args[:2] + fresh_args[3:]
            predicate = substitute_params(prepared.dispatch.predicate, params)
            assert predicate == fresh.dispatch.predicate
            update = prepared.dispatch.row_function(evaluator, params)
            literal = fresh.dispatch.row_function(evaluator)
            for row in [(1, 2), (3, -7), (4, None)]:
                assert update(row) == literal(row)
        else:
            assert args == fresh_args


def test_a_prepared_plan_holds_no_value():
    gdh = twin().gdh
    statement = gdh.parse("SELECT v + ? FROM item WHERE id = ? AND tag IN (?, 'x')")
    prepared = gdh.prepare(statement, (1, 2, "a"))
    exprs = [
        expr
        for node in prepared.dispatch.optimized.plan.walk()
        for expr in (getattr(node, "predicate", None), *getattr(node, "exprs", ()))
        if expr is not None
    ]
    assert sum(has_params(expr) for expr in exprs) == 2
    instantiated = prepared.dispatch.optimized.with_params((1, 2, "a")).plan
    assert not any(
        has_params(expr)
        for node in instantiated.walk()
        for expr in (getattr(node, "predicate", None), *getattr(node, "exprs", ()))
        if expr is not None
    )
    assert Param(0, None) != Literal(0)


def test_placeholders_parse_where_a_constant_may_stand():
    statement = parse_statement(
        "SELECT id FROM kv WHERE v = ? AND tag LIKE ? AND id IN (?, ?)"
        " ORDER BY ? LIMIT ? OFFSET ?"
    )
    assert statement.n_params == 7
    assert statement.by_value == (4, 5, 6)
    assert parse_statement("SELECT 1").n_params == 0
    assert parse_statement("SELECT 1").n_tokens == 3
    for text in (
        "CREATE TABLE t (id INT) FRAGMENTED BY HASH(id) INTO ?",
        "SELECT id FROM kv WHERE id IN (-?)",
        "SELECT ? ?",
    ):
        with pytest.raises(ParseError):
            parse_statement(text)


# -- (c) the parse memo changes no simulated figure -------------------------

SCRIPT = [
    "SELECT v FROM kv WHERE id = 7",
    "UPDATE kv SET v = v + 1 WHERE id = 7",
    "SELECT v FROM kv WHERE id = 7",
    "INSERT INTO item VALUES (500, 1, 'new')",
    "SELECT tag, COUNT(*) FROM item GROUP BY tag",
    "DELETE FROM item WHERE id = 500",
    "SELECT item.id FROM item JOIN d ON item.v = d.v WHERE d.label = 'bob'",
    "UPDATE kv SET v = v + 1 WHERE id = 7",
]


def run_script(db):
    sessions = [db.session(), db.session()]
    for index, text in enumerate(SCRIPT * 3):
        sessions[index % 2].execute(text)
    db.execute_prismalog("big(X) :- item(X, V, T), V > 7. ? big(X).")
    return db.observe().fingerprint(), [s.clock for s in sessions], db.simulated_time()


def test_parse_memo_hot_or_cold_is_invisible_to_the_simulation():
    cold, hot = twin(), twin()
    for text in SCRIPT:
        hot.gdh.parse(text)
    assert len(hot.gdh.parse_memo) == len(set(SCRIPT)) + len(cold.gdh.parse_memo)
    assert hot.gdh.plan_cache is None and cold.gdh.plan_cache is None
    assert run_script(cold) == run_script(hot)
    assert cold.gdh.parse_memo.keys() == hot.gdh.parse_memo.keys()
    # Memoized: the same text is the same statement object.
    assert hot.gdh.parse(SCRIPT[0]) is hot.gdh.parse(SCRIPT[0])


# -- (d) the dispatch plan: built once, routed per execution ----------------


def test_n_executions_of_one_prepared_build_its_dispatch_plan_once(monkeypatch):
    db = twin()
    built = []
    for plan in (dispatch.QueryPlan, dispatch.UpdatePlan, dispatch.InsertPlan):
        original = plan.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(plan, "__init__", counting)
    cursor = db.connect().cursor()
    for key in range(20):
        assert cursor.execute("SELECT v FROM kv WHERE id = ?", (key,)).fetchall() == [
            (key * 3,)
        ]
        cursor.execute("UPDATE kv SET v = v + ? WHERE id = ?", (key, key))
        cursor.execute("INSERT INTO kv VALUES (?, ?)", (1000 + key, key))
        cursor.execute("SELECT COUNT(*), SUM(v) FROM kv")
    assert sorted(built) == ["InsertPlan", "QueryPlan", "QueryPlan", "UpdatePlan"]
    assert db.query("SELECT v FROM kv WHERE id = 5") == [(20,)]


def test_a_cached_statement_never_instantiates_its_plan(monkeypatch):
    db = twin()
    cursor = db.connect().cursor()
    statements = [
        ("SELECT v FROM kv WHERE id = ?", (3,)),
        ("SELECT tag, SUM(v + ?) FROM item WHERE id < ? GROUP BY tag", (1, 40)),
        ("SELECT item.id FROM item JOIN d ON item.v = d.v WHERE d.label <> ?", ("bob",)),
        ("UPDATE kv SET v = v + ? WHERE id = ?", (2, 3)),
        ("DELETE FROM item WHERE id > ? AND tag = ?", (70, "ann")),
        ("INSERT INTO item VALUES (?, ?, ?)", (900, 1, "x")),
    ]
    for sql, params in statements:  # prepared (and cached) here
        cursor.execute(sql, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("a cached statement instantiated its plan")

    monkeypatch.setattr(OptimizedPlan, "with_params", forbidden)
    monkeypatch.setattr(plan_module, "substitute_plan_params", forbidden)
    assert not hasattr(GlobalDataHandler, "_scan_resources")
    assert not any(hasattr(bound, "with_params") for bound in (BoundInsert, BoundUpdate, BoundDelete))
    hits = db.gdh.plan_cache.hits
    for sql, params in statements[:-1]:
        cursor.execute(sql, params)
    assert db.gdh.plan_cache.hits == hits + len(statements) - 1


def test_a_parameterized_read_reports_its_literal_plan():
    db = twin()
    got = db.connect().cursor().execute("SELECT v FROM kv WHERE id = ?", (7,))
    want = db.execute("SELECT v FROM kv WHERE id = 7")
    assert got.result.report.plan_text == want.report.plan_text
    assert "(id = 7)" in got.result.report.plan_text


def replicated():
    db = PrismaDB(MachineConfig(n_nodes=12, disk_nodes=(0, 6)))
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(id) INTO 3 WITH 2 REPLICAS"
    )
    db.bulk_load("t", [(i, i % 5) for i in range(60)])
    return db


def test_a_cached_statement_fails_over_to_a_replica_like_a_fresh_one():
    """One twin keeps the Prepared it made before an element crash, the
    other prepares every statement afresh on the surviving placement;
    both take the cache-hit front-end charge."""
    cached, fresh = replicated(), replicated()
    sessions = cached.gdh.new_session(), fresh.gdh.new_session()
    kept: dict = {}  # the cached twin's Prepared, one per statement

    def run(sql, params):
        outcomes = []
        for db, session in zip((cached, fresh), sessions):
            gdh = db.gdh
            prepared = kept.get(sql) if db is cached else None
            if prepared is None:
                prepared = gdh.prepare(gdh.parse(sql), params)
                if db is cached:
                    kept[sql] = prepared
            result = gdh.execute_statement(prepared, session, params, cached=True)
            outcomes.append((result.rows, result.affected_rows, *simulated(db, session)))
        assert outcomes[0] == outcomes[1], (sql, params)

    read, update = "SELECT v FROM t WHERE id = ?", "UPDATE t SET v = v + ? WHERE id = ?"
    run(read, (4,))
    run(update, (1, 4))
    before = dict(kept)
    for db in (cached, fresh):
        info = db.catalog.table("t")
        fragment = info.fragments[info.pruned_fragments(((0, Literal(4)),))[0]]
        db.crash_element(fragment.node_id)  # the primary's element
    for key in (4, 5, 4, 33):
        run(read, (key,))
        run(update, (10, key))
    assert all(kept[sql] is prepared for sql, prepared in before.items())
    assert cached.query("SELECT id, v FROM t") == fresh.query("SELECT id, v FROM t")


@pytest.mark.parametrize("change", ["migrate", "split", "recreate"])
def test_a_plan_prepared_before_a_placement_change_is_refused_and_reprepared(change):
    db = replicated()
    gdh = db.gdh
    cursor = db.connect().cursor()
    read = "SELECT v FROM t WHERE id = ?"
    assert cursor.execute(read, (7,)).fetchall() == [(2,)]
    held = gdh.prepare(gdh.parse(read), (7,))
    if change == "migrate":
        db.rebalancer.migrate_fragment("t", 0)
    elif change == "split":
        db.rebalancer.split_fragment("t", 1)
    else:
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 5")
        db.bulk_load("t", [(i, i % 5) for i in range(60)])
    with pytest.raises(TransactionError, match="stale"):
        gdh.execute_statement(held, db.session()._state, (7,))
    misses = gdh.plan_cache.lookups - gdh.plan_cache.hits
    for key in range(60):
        assert cursor.execute(read, (key,)).fetchall() == [(key % 5,)]
    assert gdh.plan_cache.lookups - gdh.plan_cache.hits == misses + 1
    # Routed by the new placement: one fragment read, the others pruned.
    report = cursor.execute(read, (7,)).result.report
    fragments = len(db.catalog.table("t").fragments)
    assert (report.fragments_scanned, report.fragments_pruned) == (1, fragments - 1)


def test_a_cached_statement_calls_every_layer_through_its_class(monkeypatch):
    """The repo benchmark wraps layer methods by name on their classes;
    a dispatch plan built before the wrappers went in must still reach
    every one of them, i.e. hold no bound method of its own."""
    e2e = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(e2e))
    import hosttrace

    db = twin()
    cursor = db.connect().cursor()
    statements = [
        ("SELECT v FROM kv WHERE id = ?", (3,)),
        ("SELECT COUNT(*), SUM(v) FROM kv", ()),
        ("UPDATE kv SET v = v + ? WHERE id = ?", (2, 3)),
        ("DELETE FROM item WHERE id = ?", (5,)),
        ("INSERT INTO kv VALUES (?, ?)", (900, 1)),
    ]
    for sql, params in statements:  # prepared and cached before wrapping
        cursor.execute(sql, params)
    host = hosttrace.HostTracer()
    hosttrace.install_layer_wrappers(host, defaultdict(float))
    try:
        for sql, params in statements[:-1]:
            cursor.execute(sql, params)
    finally:
        host.uninstall()
        sys.modules.pop("hosttrace", None)
    assert {
        "core.gdh:execute_statement",
        "core.locks:acquire",
        "core.locks:release_all",
        "core.executor:execute",
        "core.twophase:commit",
        "ofm.subplan:filtered_scan",
        "ofm.subplan:scan_rows",
        "ofm.write:txn_update_where",
        "ofm.write:txn_delete_where",
        "pool.send:send",
        "pool.spawn:spawn",
        "ofm.wal:force",
    } <= set(host.summary())
