"""E6 — the transitive-closure operator (Section 2.5).

"More specifically, they support a transitive closure operator for
dealing with recursive queries."  We compare the three closure
algorithms on graphs of growing depth and on a parts-explosion
hierarchy, counting abstract work (tuples derived) and rounds — the
quantities that separate the algorithms regardless of hardware.
"""

import pytest

from repro.exec.closure import seminaive_closure
from repro.exec.operators import WorkMeter
from repro.workloads import binary_tree, chain, parts_explosion, random_dag

from _harness import report
from tests.oracle import naive_closure, reachable_from, smart_closure

ALGORITHMS = {
    "naive": naive_closure,
    "semi-naive": seminaive_closure,
    "smart": smart_closure,
}

GRAPHS = {
    "chain(64)": chain(64),
    "chain(256)": chain(256),
    "tree(d=8)": binary_tree(8),
    "dag(300,900)": random_dag(300, 900, seed=4),
    "parts(2x3x5)": [(a, b) for a, b, _ in parts_explosion(2, 3, 5)],
}


def run_algorithm(name: str, edges) -> tuple[int, float, int]:
    meter = WorkMeter()
    result = ALGORITHMS[name](edges, meter)
    return result.iterations, meter.tuples + meter.hashes, len(result.rows)


@pytest.fixture(scope="module")
def results():
    table = {}
    for graph_name, edges in GRAPHS.items():
        table[graph_name] = {
            algorithm: run_algorithm(algorithm, edges)
            for algorithm in ALGORITHMS
        }
    return table


def test_e6_closure_algorithms(results, benchmark):
    rows = []
    for graph_name, by_algorithm in results.items():
        pairs = by_algorithm["semi-naive"][2]
        rows.append(
            (
                graph_name,
                pairs,
                *[
                    f"{by_algorithm[a][0]}r/{by_algorithm[a][1]:,.0f}w"
                    for a in ALGORITHMS
                ],
            )
        )
    report(
        "E6",
        "closure algorithms: rounds (r) and abstract work units (w)",
        ["graph", "tc pairs", "naive", "semi-naive", "smart"],
        rows,
        notes=(
            "Semi-naive strictly dominates naive in work; smart trades"
            " more work per round for logarithmically fewer rounds —"
            " attractive when rounds cost a distributed barrier."
        ),
    )
    for graph_name, by_algorithm in results.items():
        naive_rounds, naive_work, naive_pairs = by_algorithm["naive"]
        semi_rounds, semi_work, semi_pairs = by_algorithm["semi-naive"]
        smart_rounds, smart_work, smart_pairs = by_algorithm["smart"]
        assert naive_pairs == semi_pairs == smart_pairs, graph_name
        assert semi_work < naive_work, graph_name
        assert smart_rounds < semi_rounds or semi_rounds <= 3, graph_name
    # The gap grows with depth: chains are the worst case for naive.
    gap_64 = results["chain(64)"]["naive"][1] / results["chain(64)"]["semi-naive"][1]
    gap_256 = results["chain(256)"]["naive"][1] / results["chain(256)"]["semi-naive"][1]
    assert gap_256 > gap_64 > 2
    benchmark.pedantic(
        run_algorithm, args=("semi-naive", GRAPHS["chain(256)"]),
        rounds=1, iterations=1,
    )


def test_e6_bound_argument_fast_path(benchmark):
    """ancestor(jan, X): walking from the bound constant beats computing
    the full closure first (the optimizer's selection push)."""
    edges = random_dag(400, 1200, seed=8)

    def full_then_filter():
        meter = WorkMeter()
        result = seminaive_closure(edges, meter)
        rows = [b for a, b in result.rows if a == 0]
        return meter.tuples + meter.hashes, rows

    def bound_walk():
        meter = WorkMeter()
        result = reachable_from(edges, [0], meter)
        return meter.tuples + meter.hashes, result.rows

    full_work, full_rows = full_then_filter()
    bound_work, bound_rows = bound_walk()
    assert sorted(full_rows) == sorted(bound_rows)
    assert bound_work < full_work / 5
    report(
        "E6b",
        "bound-argument closure: full TC + filter vs reachability walk",
        ["strategy", "work units", "answers"],
        [("full closure then filter", f"{full_work:,.0f}", len(full_rows)),
         ("reachable_from(0)", f"{bound_work:,.0f}", len(bound_rows))],
    )
    benchmark.pedantic(bound_walk, rounds=1, iterations=1)
