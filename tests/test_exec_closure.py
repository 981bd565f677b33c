"""Tests for the transitive-closure operator and its baselines (E6)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import MachineConfig, PrismaDB
from repro.exec.closure import seminaive_closure
from repro.exec.operators import WorkMeter

from tests.oracle import naive_closure, reachable_from, smart_closure

ALGORITHMS = [naive_closure, seminaive_closure, smart_closure]

#: A 3-cycle plus edges with a NULL endpoint.  NULL equals nothing, so
#: (NULL,5) o (5,NULL) derives (NULL,NULL) through 5 = 5, but
#: (5,NULL) o (NULL,5) derives nothing: there is no (5,5).
NULL_EDGES = [(1, 2), (2, 3), (3, 1), (None, 5), (5, None)]
NULL_CLOSURE = sorted(
    [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    + [(None, 5), (5, None), (None, None)],
    key=repr,
)


def chain(n):
    return [(i, i + 1) for i in range(n)]


def expected_closure(edges):
    graph = nx.DiGraph(edges)
    return sorted(nx.transitive_closure(graph).edges())


class TestClosureCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_chain(self, algorithm):
        result = algorithm(chain(8), WorkMeter())
        assert result.rows == expected_closure(chain(8))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cycle(self, algorithm):
        edges = [(0, 1), (1, 2), (2, 0)]
        result = algorithm(edges, WorkMeter())
        assert result.rows == sorted((a, b) for a in range(3) for b in range(3))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty(self, algorithm):
        assert algorithm([], WorkMeter()).rows == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dag_with_shared_substructure(self, algorithm):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        assert algorithm(edges, WorkMeter()).rows == expected_closure(edges)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_duplicate_edges_tolerated(self, algorithm):
        edges = [(0, 1), (0, 1), (1, 2)]
        assert algorithm(edges, WorkMeter()).rows == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_string_nodes(self, algorithm):
        edges = [("a", "b"), ("b", "c")]
        assert algorithm(edges, WorkMeter()).rows == [
            ("a", "b"), ("a", "c"), ("b", "c"),
        ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_null_endpoints_never_join(self, algorithm):
        assert algorithm(NULL_EDGES, WorkMeter()).rows == NULL_CLOSURE


class TestIterationCounts:
    def test_smart_uses_logarithmically_fewer_rounds(self):
        edges = chain(64)
        semi = seminaive_closure(edges, WorkMeter())
        smart = smart_closure(edges, WorkMeter())
        assert semi.iterations >= 64
        assert smart.iterations <= 8  # ~log2(64) + 1

    def test_seminaive_does_less_work_than_naive(self):
        edges = chain(48)
        naive_meter, semi_meter = WorkMeter(), WorkMeter()
        naive_closure(edges, naive_meter)
        seminaive_closure(edges, semi_meter)
        assert semi_meter.tuples < naive_meter.tuples / 2


class TestReachableFrom:
    def test_single_source(self):
        edges = [(0, 1), (1, 2), (3, 4)]
        result = reachable_from(edges, [0], WorkMeter())
        assert result.rows == [1, 2]

    def test_multiple_sources(self):
        edges = [(0, 1), (2, 3)]
        assert reachable_from(edges, [0, 2], WorkMeter()).rows == [1, 3]

    def test_cycle_terminates(self):
        edges = [(0, 1), (1, 0)]
        assert reachable_from(edges, [0], WorkMeter()).rows == [0, 1]

    def test_matches_full_closure_selection(self):
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (4, 0)]
        full = seminaive_closure(edges, WorkMeter())
        from_zero = sorted(b for a, b in full.rows if a == 0)
        assert reachable_from(edges, [0], WorkMeter()).rows == from_zero

    def test_null_source_reaches_nothing(self):
        assert reachable_from(NULL_EDGES, [5], WorkMeter()).rows == [None]
        assert reachable_from(NULL_EDGES, [None], WorkMeter()).rows == []


@pytest.mark.parametrize("fragments", [1, 4])
def test_null_closure_is_independent_of_fragmentation(fragments):
    """SQL and PRISMAlog agree with the local operator at any fragment
    count, and the statement ends its transaction either way."""
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    db.execute(
        f"CREATE TABLE e (a INT, b INT) FRAGMENTED BY HASH(a) INTO {fragments}"
    )
    db.bulk_load("e", NULL_EDGES)
    assert sorted(db.execute("SELECT * FROM CLOSURE(e)").rows, key=repr) == NULL_CLOSURE
    program = "p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), e(Y,Z). ? p(5, X)."
    assert db.execute_prismalog(program)[0].rows == [(None,)]
    assert not db.gdh.txns.active
    db.session().execute("UPDATE e SET b = 6 WHERE a = 5")


# ---------------------------------------------------------------------------
# Property: all three algorithms agree with networkx on random graphs.
# ---------------------------------------------------------------------------

_edges = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1]),
    max_size=30,
)


@given(edges=_edges)
@settings(max_examples=80, deadline=None)
def test_property_closures_agree_with_networkx(edges):
    expected = expected_closure(edges)
    for algorithm in ALGORITHMS:
        assert algorithm(edges, WorkMeter()).rows == expected
