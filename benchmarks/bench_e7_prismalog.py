"""E7 — PRISMAlog: Datalog-class expressive power, set-oriented
evaluation via relational algebra (Section 2.3).

Checks (a) equivalence: PRISMAlog answers equal hand-built algebra /
SQL answers on the same data; (b) the recursion-depth scaling of the
set-oriented fixpoint; (c) the dedicated closure operator vs generic
fixpoint evaluation; (d) the closure operator vs the general
distributed fixpoint through the whole database.  (b) and (c) run the
one-site oracle evaluator of ``tests/oracle``.
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
