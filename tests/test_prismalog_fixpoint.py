"""The distributed semi-naive loop against the one-site oracle.

Every recursion runs as a fixpoint over the fragment sites, transitive
closure (PRISMAlog's TC rule pair or SQL's ``CLOSURE``) as its
one-predicate instance.  Its answers, and the rounds each recursive
predicate took, must equal the one-site evaluator's (``tests/oracle``)
whatever the layout: one, two or four fragments, or two fragments with
two replicas while one copy's element is down.
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.core.dispatch import CLOSURE
from repro.core.executor import DistributedExecutor
from tests.oracle import PrismalogEngine

#: A graph with a cycle (3 -> ... -> 10 -> 3), a back edge and a shortcut.
EDGES = [(i, i + 1) for i in range(10)] + [(10, 3), (4, 0), (2, 7)]
FLAT = [(3, 3), (5, 6), (1, 8)]

PROGRAMS = {
    "even_odd": (
        "even(0). odd(Y) :- even(X), e(X, Y). even(Y) :- odd(X), e(X, Y)."
        " ? even(X). ? odd(X)."
    ),
    "same_generation": (
        "sg(X, Y) :- f(X, Y). sg(X, Y) :- e(A, X), sg(A, B), e(B, Y). ? sg(X, Y)."
    ),
    "nonlinear_ancestor": (
        "anc(X, Y) :- e(X, Y). anc(X, Z) :- anc(X, Y), anc(Y, Z). ? anc(X, Y). ? anc(4, X)."
    ),
    "three_way_mutual": (
        "a(X, Y) :- e(X, Y). b(X, Z) :- a(X, Y), e(Y, Z). c(X, Z) :- b(X, Y), e(Y, Z)."
        " a(X, Z) :- c(X, Y), e(Y, Z). ? a(X, Y). ? c(0, X)."
    ),
    # The closure operator's rule pair, in both linear forms.
    "right_linear_tc": "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z). ? tc(X, Y).",
    "left_linear_tc": "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z). ? tc(X, Y). ? tc(4, X).",
    # A fact row: the pattern is declined, the step is still the closure's.
    "tc_with_fact": (
        "tc(0, 0). tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z). ? tc(X, Y)."
    ),
    # The closure step's join under a constant head column: not the step.
    "constant_head": "q(X, Y) :- e(X, Y). q(0, Z) :- q(X, Y), e(Y, Z). ? q(X, Y).",
}

#: layout -> (fragments, replicas, crash the element of fragment 0's primary)
LAYOUTS = {
    "one_fragment": (1, 1, False),
    "two_fragments": (2, 1, False),
    "four_fragments": (4, 1, False),
    "replica_after_crash": (2, 2, True),
}


def load(fragments: int, replicas: int, crash: bool) -> PrismaDB:
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    copies = f" WITH {replicas} REPLICAS" if replicas > 1 else ""
    for table, rows in (("e", EDGES), ("f", FLAT)):
        db.execute(
            f"CREATE TABLE {table} (src INT, dst INT)"
            f" FRAGMENTED BY HASH(src) INTO {fragments}{copies}"
        )
        db.bulk_load(table, rows)
    if crash:
        db.crash_element(db.catalog.table("e").fragments[0].node_id)
    return db


def consult(program: str, db: PrismaDB):
    """The oracle, after running *program*, and its answers."""
    schemas = {table: db.catalog.table(table).schema for table in ("e", "f")}
    oracle = PrismalogEngine({"e": EDGES, "f": FLAT}, schemas)
    return oracle, oracle.consult(program)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_distributed_fixpoint_matches_the_oracle(name, layout):
    program = PROGRAMS[name]
    db = load(*LAYOUTS[layout])
    oracle, expected = consult(program, db)
    results = db.execute_prismalog(program)
    assert [sorted(r.rows) for r in results] == [sorted(e.rows) for e in expected]
    for result in results:
        stats = result.prismalog_stats
        assert stats["closure_operator_hits"] == oracle.stats.closure_operator_hits
        rounds = stats["fixpoint_iterations"]
        assert rounds and all(oracle.stats.fixpoint_iterations[p] == n for p, n in rounds.items())
        assert result.response_time > 0


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sql_closure_matches_the_oracle(layout):
    # CLOSURE(e) is the plan the TC programs above compile to; no
    # predicate names it, so its rounds are reported as the loop's.
    db = load(*LAYOUTS[layout])
    oracle, (expected,) = consult(PROGRAMS["right_linear_tc"], db)
    result = db.execute("SELECT src, dst FROM CLOSURE(e)")
    assert sorted(result.rows) == sorted(expected.rows)
    assert result.report.rounds == {CLOSURE: oracle.stats.fixpoint_iterations["tc"]}
    assert result.response_time > 0


def test_a_recursion_two_queries_read_runs_once(monkeypatch):
    program = (
        "even(0). odd(Y) :- even(X), e(X, Y). even(Y) :- odd(X), e(X, Y). ? odd(X). ? even(X)."
    )
    db = load(3, 1, False)
    oracle, expected = consult(program, db)
    checks = []
    dedup = DistributedExecutor.dedup_at_owners

    def counted(self, relation, seen):
        checks.append(len(seen))
        return dedup(self, relation, seen)

    monkeypatch.setattr(DistributedExecutor, "dedup_at_owners", counted)
    results = db.execute_prismalog(program)
    assert [sorted(r.rows) for r in results] == [sorted(e.rows) for e in expected]
    rounds = oracle.stats.fixpoint_iterations
    assert rounds["even"] == rounds["odd"] > 1
    for result in results:
        assert result.prismalog_stats["fixpoint_iterations"] == rounds
    # Each predicate's owners check its seed and each round's rows once.
    assert len(checks) == 2 * (rounds["even"] + 1)
