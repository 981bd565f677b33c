"""The distributed semi-naive loop against the one-site oracle.

Every recursion the closure operator cannot express runs as a fixpoint
over the fragment sites.  Its answers, and the rounds each recursive
predicate took, must equal the one-site evaluator's (``tests/oracle``)
whatever the layout: one, two or four fragments, or two fragments with
two replicas while one copy's element is down.
"""

import pytest

from repro import MachineConfig, PrismaDB
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


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_distributed_fixpoint_matches_the_oracle(name, layout):
    program = PROGRAMS[name]
    db = load(*LAYOUTS[layout])
    schemas = {table: db.catalog.table(table).schema for table in ("e", "f")}
    oracle = PrismalogEngine({"e": EDGES, "f": FLAT}, schemas)
    expected = oracle.consult(program)
    results = db.execute_prismalog(program)
    assert [sorted(r.rows) for r in results] == [sorted(e.rows) for e in expected]
    for result in results:
        stats = result.prismalog_stats
        assert stats["closure_operator_hits"] == []
        rounds = stats["fixpoint_iterations"]
        assert rounds and all(oracle.stats.fixpoint_iterations[p] == n for p, n in rounds.items())
        assert result.response_time > 0
