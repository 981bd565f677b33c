"""E5 — the generative approach vs interpretation (Section 2.5).

"each OFM is equipped with an expression compiler to generate routines
dynamically [...] it avoids the otherwise excessive interpretation
overhead incurred by a query expression interpreter."

Two measurements:

* **wall-clock** (real Python time): evaluating the same predicates over
  the same rows through the compiled routine vs the tree-walking
  interpreter — the honest, hardware-independent form of the claim;
* **simulated**: the same SELECT through two default PrismaDB
  instances, one of them running the test-side oracle's interpreted
  evaluator (``tests.oracle``), charged its interpretation penalty.
"""

import time

import pytest

from repro import MachineConfig, PrismaDB
from repro.exec.compiler import compile_predicate
from repro.exec.expressions import (
    Arithmetic,
    Comparison,
    InList,
    Like,
    and_,
    col,
    eq,
    lit,
    or_,
)
from repro.workloads import generate_rows, load_wisconsin

from _harness import report
from tests.oracle import InterpretedPredicate, RowEvaluator, use_evaluator

PREDICATES = {
    "simple": Comparison(">", col(0), lit(5000)),
    "conjunctive": and_(
        Comparison(">=", col(0), lit(100)),
        Comparison("<", col(0), lit(9000)),
        eq(col(3), lit(2)),
    ),
    "arithmetic": Comparison(
        "<", Arithmetic("%", Arithmetic("+", col(0), col(1)), lit(97)), lit(31)
    ),
    "disjunctive": or_(
        eq(col(4), lit(3)), eq(col(4), lit(7)), InList(col(5), (1, 2, 3))
    ),
    "string": Like(col(13), "A%A"),
}

N_ROWS = 10_000


def wall_clock(fn, rows) -> float:
    start = time.perf_counter()
    for row in rows:
        fn(row)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def wisconsin_rows():
    return list(generate_rows(N_ROWS, seed=9))


@pytest.fixture(scope="module")
def wall_results(wisconsin_rows):
    results = {}
    for label, predicate in PREDICATES.items():
        compiled = compile_predicate(predicate)
        interpreted = InterpretedPredicate(predicate)
        # Warm both paths (regex caches etc.), then measure.
        wall_clock(compiled, wisconsin_rows[:100])
        wall_clock(interpreted, wisconsin_rows[:100])
        compiled_s = wall_clock(compiled, wisconsin_rows)
        interpreted_s = wall_clock(interpreted, wisconsin_rows)
        results[label] = (compiled_s, interpreted_s)
    return results


def test_e5_wall_clock_speedup(wall_results, benchmark):
    rows = [
        (
            label,
            f"{compiled_s * 1e9 / N_ROWS:.0f}",
            f"{interpreted_s * 1e9 / N_ROWS:.0f}",
            f"{interpreted_s / compiled_s:.1f}x",
        )
        for label, (compiled_s, interpreted_s) in wall_results.items()
    ]
    report(
        "E5a",
        f"per-row predicate evaluation over {N_ROWS} Wisconsin rows"
        " (real wall-clock, ns/row)",
        ["predicate", "compiled ns", "interpreted ns", "interp/compiled"],
        rows,
        notes=(
            "The generative approach wins on every shape; the gap is the"
            " 'excessive interpretation overhead' of Section 2.5."
        ),
    )
    for label, (compiled_s, interpreted_s) in wall_results.items():
        assert interpreted_s > compiled_s, label
    geometric = 1.0
    for compiled_s, interpreted_s in wall_results.values():
        geometric *= interpreted_s / compiled_s
    geometric **= 1.0 / len(wall_results)
    assert geometric > 2.0  # a solid multiple on average
    benchmark.pedantic(
        wall_clock,
        args=(compile_predicate(PREDICATES["conjunctive"]),
              list(generate_rows(2000, seed=9))),
        rounds=3,
        iterations=1,
    )


def test_e5_simulated_query_cost(benchmark):
    def run(compiled: bool) -> float:
        config = MachineConfig(n_nodes=8, disk_nodes=(0,))
        db = PrismaDB(config)
        load_wisconsin(db, "wisc", 2000, fragments=4)
        if not compiled:
            use_evaluator(db, RowEvaluator(interpreted=True))
        result = db.execute(
            "SELECT COUNT(*) FROM wisc WHERE unique1 % 97 < 31 AND ten = 3"
        )
        return result.response_time

    compiled_time = run(True)
    interpreted_time = run(False)
    report(
        "E5b",
        "full SELECT through the engine (simulated seconds)",
        ["mode", "response s"],
        [("compiled", f"{compiled_time:.4f}"),
         ("interpreted", f"{interpreted_time:.4f}"),
         ("ratio", f"{interpreted_time / compiled_time:.2f}x")],
    )
    assert interpreted_time > compiled_time
    benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)


def test_e5_compiler_cache_hit_rate(benchmark):
    """E5c — structurally equal predicates share one compiled routine.

    The compiler cache is keyed by the expression's *structural* hash,
    so re-running the same statement text (a fresh parse and plan every
    time) must hit the cache after the first execution.
    """
    config = MachineConfig(n_nodes=8, disk_nodes=(0,))
    db = PrismaDB(config)
    load_wisconsin(db, "wisc", 1000, fragments=4)
    cache = db.gdh.executor.evaluator.cache
    statements = [
        "SELECT COUNT(*) FROM wisc WHERE unique1 % 97 < 31 AND ten = 3",
        "SELECT onepercent, SUM(unique1) FROM wisc GROUP BY onepercent",
        "SELECT COUNT(*) FROM wisc WHERE stringu1 LIKE 'A%A'",
    ]
    samples = []
    repeats = 10
    for statement in statements:
        label = statement.split("FROM")[0].strip()[:40]
        before = cache.stats()
        db.execute(statement)
        after_first = cache.stats()
        for _ in range(repeats - 1):
            db.execute(statement)
        after = cache.stats()
        samples.append(
            (
                label,
                int(after_first["compilations"] - before["compilations"]),
                int(after["compilations"] - after_first["compilations"]),
                int(after["hits"] - before["hits"]),
            )
        )
    report(
        "E5c",
        f"compiler cache over {repeats} repeats of each statement"
        f" (overall hit rate {cache.hit_rate:.0%})",
        ["statement", "first-run compiles", "repeat compiles", "hits"],
        [
            (label, str(first), str(rest), str(hits))
            for label, first, rest, hits in samples
        ],
        notes=(
            "Each shape compiles during its first execution only; every"
            " repeat is served from the structural-hash cache."
        ),
    )
    for label, first_compilations, repeat_compilations, hits in samples:
        assert repeat_compilations == 0, label
        assert hits >= (repeats - 1) * first_compilations, label
    assert cache.hit_rate > 0.5
    benchmark.pedantic(
        lambda: db.execute(statements[0]), rounds=3, iterations=1
    )
