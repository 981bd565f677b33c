"""E7 — PRISMAlog: Datalog-class expressive power, set-oriented
evaluation via relational algebra (Section 2.3).

Checks (a) equivalence: PRISMAlog answers equal hand-built algebra /
SQL answers on the same data; (b) the recursion-depth scaling of the
set-oriented fixpoint; (c) the dedicated closure operator vs generic
fixpoint evaluation; (d) the closure operator vs the general
distributed fixpoint through the whole database; (e) same-generation and
even/odd recursion on the distributed loop at 4 and 16 fragments.  (b)
and (c) run the one-site oracle evaluator of ``tests/oracle``, which (e)
checks its answers and rounds against.
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.workloads import chain, genealogy, load_edges

from _harness import report
from tests.oracle import PrismalogEngine


def small_db() -> PrismaDB:
    return PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))


ANCESTOR_PROGRAM = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
? ancestor(X, Y).
"""


def test_e7_equivalence_with_sql(benchmark):
    """ancestor == SQL CLOSURE(parent) on a genealogy."""
    pairs, _people = genealogy(5, 3, seed=2)
    db = small_db()
    load_edges(db, "parent", pairs, fragments=2)

    def prismalog_answers():
        (result,) = db.execute_prismalog(ANCESTOR_PROGRAM)
        return sorted(result.rows)

    sql_rows = sorted(
        db.query("SELECT src, dst FROM CLOSURE(parent)")
    )
    logic_rows = prismalog_answers()
    assert logic_rows == sql_rows
    report(
        "E7a",
        "PRISMAlog vs SQL closure on a 5-generation genealogy",
        ["interface", "ancestor pairs"],
        [("PRISMAlog", len(logic_rows)), ("SQL CLOSURE()", len(sql_rows))],
        notes="Identical answers through both Section 2.1 interfaces.",
    )
    benchmark.pedantic(prismalog_answers, rounds=1, iterations=1)


def test_e7_recursion_depth_scaling(benchmark):
    """Fixpoint rounds equal recursion depth; work stays near-linear
    for the semi-naive evaluator."""
    depths = [8, 16, 32, 64, 128]
    rows = []
    results = {}
    for depth in depths:
        engine = PrismalogEngine(use_closure_operator=False)
        facts = " ".join(f"parent({i}, {i + 1})." for i in range(depth))
        engine.consult(facts + ANCESTOR_PROGRAM.replace("? ancestor(X, Y).", ""))
        iterations = engine.stats.fixpoint_iterations["ancestor"]
        work = engine.stats.meter.tuples + engine.stats.meter.hashes
        pairs = engine.stats.materialized_rows["ancestor"]
        results[depth] = (iterations, work, pairs)
        rows.append((depth, iterations, f"{work:,.0f}", pairs))
    report(
        "E7b",
        "recursion depth vs fixpoint rounds (generic semi-naive path)",
        ["chain depth", "rounds", "work units", "ancestor pairs"],
        rows,
        notes="Rounds track depth exactly; pairs grow quadratically.",
    )
    for depth in depths:
        assert results[depth][0] == depth
        assert results[depth][2] == depth * (depth + 1) // 2
    benchmark.pedantic(
        lambda: PrismalogEngine(use_closure_operator=False).consult(
            " ".join(f"parent({i}, {i + 1})." for i in range(64))
            + "ancestor(X, Y) :- parent(X, Y)."
            " ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z)."
        ),
        rounds=1, iterations=1,
    )


def test_e7_closure_operator_vs_generic_fixpoint(benchmark):
    """The OFM closure operator (detected TC pattern) vs generic
    semi-naive rule evaluation, through the whole PRISMAlog engine."""
    edges = chain(200)
    facts = " ".join(f"e({a}, {b})." for a, b in edges)
    program = (
        facts
        + " tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z). ? tc(0, X)."
    )

    def run(use_operator: bool):
        engine = PrismalogEngine(use_closure_operator=use_operator)
        (result,) = engine.consult(program)
        work = engine.stats.meter.tuples + engine.stats.meter.hashes
        return len(result.rows), work, engine.stats.closure_operator_hits

    operator_answers, operator_work, hits = run(True)
    generic_answers, generic_work, no_hits = run(False)
    assert operator_answers == generic_answers == 200
    assert hits == ["tc"] and no_hits == []
    report(
        "E7c",
        "dedicated closure operator vs generic fixpoint (chain of 200)",
        ["evaluation path", "answers", "work units"],
        [("closure operator", operator_answers, f"{operator_work:,.0f}"),
         ("generic semi-naive rules", generic_answers, f"{generic_work:,.0f}")],
        notes=(
            "Both compute the same relation; the dedicated operator avoids"
            " per-round join re-derivation through plan machinery."
        ),
    )
    assert operator_work <= generic_work
    benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)


def test_e7_same_generation_non_tc_recursion(benchmark):
    """A recursion the closure operator cannot express still evaluates
    set-orientedly (same-generation)."""
    def run():
        engine = PrismalogEngine()
        (result,) = engine.consult(
            """
            up(a1, b1). up(a2, b1). up(b1, c1). up(b2, c1).
            flat(c1, c1).
            down(c1, b3). down(b3, a3).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).
            ? sg(X, Y).
            """
        )
        return result.rows

    rows = run()
    assert ("c1", "c1") in rows
    assert ("b1", "b3") in rows  # one level down on both sides
    benchmark.pedantic(run, rounds=1, iterations=1)


def test_e7_compiled_distributed_vs_gathered(benchmark):
    """Both recursion shapes run fragment-parallel through the
    distributed executor (Section 2.3's semantics-via-algebra): the
    TC-shaped program on the closure operator, a non-linear program
    computing the same relation on the general semi-naive loop."""
    pairs, _people = genealogy(6, 4, seed=12)
    db = PrismaDB(MachineConfig(n_nodes=16, disk_nodes=(0,)))
    load_edges(db, "parent", pairs, fragments=4)
    db.quiesce()

    program = (
        "anc(X, Y) :- parent(X, Y)."
        " anc(X, Z) :- parent(X, Y), anc(Y, Z)."
        " ? anc(X, Y)."
    )

    (compiled_result,) = db.execute_prismalog(program)
    assert compiled_result.prismalog_stats["closure_operator_hits"] == ["anc"]
    compiled_time = compiled_result.report.response_time

    # Non-linear recursion: the closure pattern does not match, so the
    # general loop runs it.
    general_program = (
        "anc(X, Y) :- parent(X, Y)."
        " anc(X, Z) :- anc(X, Y), anc(Y, Z)."
        " ? anc(X, Y)."
    )
    db.quiesce()
    (general_result,) = db.execute_prismalog(general_program)
    assert general_result.prismalog_stats["closure_operator_hits"] == []
    general_time = general_result.report.response_time

    assert sorted(compiled_result.rows) == sorted(general_result.rows)
    report(
        "E7d",
        "PRISMAlog recursion: closure operator vs general distributed"
        " fixpoint (6-generation genealogy, 4 fragments)",
        ["path", "answers", "simulated s"],
        [
            ("closure operator (linear rules)", len(compiled_result.rows),
             f"{compiled_time:.4f}"),
            ("general semi-naive loop (non-linear)", len(general_result.rows),
             f"{general_time:.4f}"),
        ],
        notes=(
            "Identical answers; both keep base scans fragment-parallel."
            " The closure operator builds its edge table once; the general"
            " loop runs each rule's delta variants as ordinary repartition"
            " joins every round."
        ),
    )
    benchmark.pedantic(
        lambda: db.execute_prismalog(program), rounds=1, iterations=1
    )


SAME_GENERATION = (
    "sg(X, Y) :- parent(P, X), parent(P, Y)."
    " sg(X, Y) :- parent(A, X), sg(A, B), parent(B, Y)."
    " ? sg(X, Y)."
)
EVEN_ODD = (
    "even(0). odd(Y) :- even(X), e(X, Y). even(Y) :- odd(X), e(X, Y)."
    " ? even(X). ? odd(X)."
)


def run_program(program: str, table: str, edges, fragments: int):
    db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0,)))
    load_edges(db, table, edges, fragments=fragments)
    db.quiesce()
    return db, db.execute_prismalog(program)


def test_e7_general_recursion_by_fragments(benchmark):
    """Same-generation (a three-way join each round) and even/odd (mutual
    recursion, read by two queries) on the general distributed loop:
    answers and rounds equal the one-site oracle's."""
    pairs, _people = genealogy(6, 4, seed=12)
    cases = [
        ("same-generation (genealogy)", SAME_GENERATION, "parent", pairs),
        ("even/odd (chain of 48)", EVEN_ODD, "e", chain(48)),
    ]
    rows = []
    for label, program, table, edges in cases:
        for fragments in (4, 16):
            db, results = run_program(program, table, edges, fragments)
            oracle = PrismalogEngine({table: edges}, {table: db.catalog.table(table).schema})
            expected = oracle.consult(program)
            assert [sorted(r.rows) for r in results] == [sorted(e.rows) for e in expected]
            rounds = results[0].prismalog_stats["fixpoint_iterations"]
            assert rounds == oracle.stats.fixpoint_iterations
            rows.append((
                label,
                fragments,
                sum(len(r.rows) for r in results),
                max(rounds.values()),
                f"{sum(r.response_time for r in results):.4f}",
            ))
    report(
        "E7e",
        "general recursion on the distributed semi-naive loop, by fragments",
        ["program", "fragments", "answers", "rounds", "simulated s"],
        rows,
        notes=(
            "Answers and rounds equal the one-site oracle's. Simulated s sums"
            " the program's queries; even/odd's second query reads the loop"
            " its first ran. Same-generation's rounds carry enough rows that"
            " 16 owners beat 4; even/odd's deltas are a few rows a round, so"
            " 16 owners pay more messages per round than 4 and lose."
        ),
    )
    benchmark.pedantic(
        run_program, args=(SAME_GENERATION, "parent", pairs, 4), rounds=1, iterations=1
    )
