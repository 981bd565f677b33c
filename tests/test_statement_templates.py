"""Prepare once, bind per execution (ISSUE 12).

Two oracles for the template front end:

* a statement template executed with parameters behaves exactly like
  the same statement with the values written into its text — rows,
  rowcounts, exception types, end state — over a corpus covering every
  place a ``?`` may stand;
* the parse memo is host-only: a database that never installs the
  serving layer produces byte-identical fingerprints and clocks whether
  the memo is cold or hot.
"""

import random

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import ParseError, PrismaError
from repro.exec.expressions import Literal, Param, has_params
from repro.sql import parse_statement

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


@pytest.mark.parametrize("template, draw", SERVING_MIX)
def test_instantiated_serving_plans_equal_freshly_optimized_ones(template, draw):
    gdh = twin().gdh
    rng = random.Random(5)
    prepared = gdh.prepare(gdh.parse(template), draw(rng))
    for _ in range(5):
        params = draw(rng)
        bound = prepared.bound.with_params(params) if params else prepared.bound
        fresh = gdh.prepare(gdh.parse(splice(template, params))).bound
        if template.startswith("SELECT"):
            assert bound.plan.key() == fresh.plan.key()
            assert [s.plan.key() for s in bound.shared] == [
                s.plan.key() for s in fresh.shared
            ]
            assert bound.estimated_rows == fresh.estimated_rows
        else:
            assert bound == fresh


def test_a_prepared_plan_holds_no_value():
    gdh = twin().gdh
    statement = gdh.parse("SELECT v + ? FROM item WHERE id = ? AND tag IN (?, 'x')")
    prepared = gdh.prepare(statement, (1, 2, "a"))
    exprs = [
        expr
        for node in prepared.bound.plan.walk()
        for expr in (getattr(node, "predicate", None), *getattr(node, "exprs", ()))
        if expr is not None
    ]
    assert sum(has_params(expr) for expr in exprs) == 2
    instantiated = prepared.bound.with_params((1, 2, "a")).plan
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
