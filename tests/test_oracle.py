"""The test-side oracle's own contract: its interpreted back-end agrees
with the compiler and is charged the interpretation penalty, and
``use_evaluator`` reaches every evaluator a statement runs through."""

from repro import MachineConfig, PrismaDB
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import Arithmetic, Comparison, col, eq, lit

from tests.oracle import INTERPRETATION_FACTOR, RowEvaluator, use_evaluator


class TestRowEvaluator:
    def test_interpreted_weight_penalized(self):
        expr = eq(col(0), lit(1))
        _, compiled_weight = Evaluator().predicate(expr)
        _, interpreted_weight = RowEvaluator(interpreted=True).predicate(expr)
        assert interpreted_weight == compiled_weight * INTERPRETATION_FACTOR
        assert RowEvaluator().predicate(expr)[1] == compiled_weight

    def test_backends_agree(self):
        expr = Comparison(">", Arithmetic("+", col(0), col(1)), lit(5))
        rows = [(2, 4), (1, 1), (None, 3)]
        compiled_fn, _ = Evaluator().predicate(expr)
        interpreted_fn, _ = RowEvaluator(interpreted=True).predicate(expr)
        assert [compiled_fn(r) for r in rows] == [interpreted_fn(r) for r in rows]

    def test_scalar_helper(self):
        for evaluator in (RowEvaluator(), RowEvaluator(interpreted=True)):
            fn, _ = evaluator.scalar(Arithmetic("*", col(0), lit(3)))
            assert fn((4,)) == 12


def test_use_evaluator_swaps_the_executor_and_every_fragment_manager():
    db = PrismaDB(MachineConfig(n_nodes=4, disk_nodes=(0,)))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 3")
    db.bulk_load("t", [(i, i % 4) for i in range(30)])
    want = db.query("SELECT v, COUNT(*) FROM t WHERE id > 3 GROUP BY v")
    interpreted = RowEvaluator(interpreted=True)
    use_evaluator(db, interpreted)
    assert db.gdh.executor.evaluator is interpreted
    assert all(ofm.evaluator is interpreted for ofm in db.gdh.fragment_ofms.values())
    assert db.query("SELECT v, COUNT(*) FROM t WHERE id > 3 GROUP BY v") == want
