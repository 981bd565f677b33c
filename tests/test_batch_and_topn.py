"""Batch kernels + fused heap top-N (PR 7).

Three layers of coverage:

* compiled batch kernels against their row-at-a-time references on
  randomized mixed-type data (the batch engine's contract is *identical
  rows, identical order*);
* ``top_n_rows`` against the ``sort_rows`` + ``limit_rows`` oracle
  across key types, tie-breaking, direction mixes, and offsets, plus
  the LIMIT/OFFSET edge cases and charge accounting;
* the single-column join kernel's unique-key build and the raw-value
  top-N cut against the paths they short-cut, on the values where
  Python's equality is surprising (``1 == 1.0 == True``, NaN, ``-0.0``);
* plan-level rewrites (``fuse_sort_limit``, limit/top-N pushdown) and
  the distributed payoff: a fused top-N ships strictly fewer bytes
  than sort-then-limit for LIMIT < partition size.
"""

import heapq
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import MachineConfig, PrismaDB
from repro.errors import ExecutionError
from repro.exec.batch import (
    compile_agg_kernel,
    compile_batch_predicate,
    compile_batch_projector,
    compile_join_kernel,
)
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import Arithmetic, Comparison, col, lit
from repro.exec.operators import (
    WorkMeter,
    charge_top_n,
    hash_join,
    hash_join_batch,
    sort_rows,
    top_n_rows,
)
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import (
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
)
from repro.algebra.rules import KNOWLEDGE_BASE, apply_rules
from repro.storage import DataType, Schema
from repro.workloads.wisconsin import load_wisconsin

from tests.oracle import (
    INTERPRETATION_FACTOR,
    AggSpec,
    RowEvaluator,
    aggregate_rows,
    limit_rows,
    project_rows,
    select_rows,
)

# ---------------------------------------------------------------------------
# Batch kernels vs row-at-a-time references
# ---------------------------------------------------------------------------


def _mixed_rows(seed, n=300, width=4):
    rng = random.Random(seed)

    def value():
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randrange(-50, 50)
        if kind == 2:
            return round(rng.uniform(-5, 5), 3)
        if kind == 3:
            return rng.choice("abcdef")
        return rng.randrange(10)

    return [tuple(value() for _ in range(width)) for _ in range(n)]


class TestBatchKernels:
    def test_predicate_matches_row_filter(self):
        rows = [(i, i % 7) for i in range(200)]
        expr = Comparison(">", col(1), lit(3))
        kernel = compile_batch_predicate(expr)
        fn, _ = Evaluator().predicate(expr)
        assert kernel(rows) == select_rows(rows, fn, WorkMeter())

    def test_projector_matches_row_projector(self):
        rows = [(i, i + 1, "x") for i in range(50)]
        exprs = [Arithmetic("+", col(0), col(1)), col(2)]
        kernel = compile_batch_projector(exprs)
        fn, _ = Evaluator().projector(exprs)
        assert kernel(rows) == project_rows(rows, fn, WorkMeter())

    @pytest.mark.parametrize("indices", [(1,), (2, 0), (0, 1, 2)])
    def test_pass_through_projector(self, indices):
        rows = [(i, str(i), i * 0.5) for i in range(40)]
        exprs = [col(i) for i in indices]
        kernel = compile_batch_projector(exprs)
        assert kernel(rows) == [tuple(row[i] for i in indices) for row in rows]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_join_kernel_matches_hash_join_single_key(self, seed):
        rng = random.Random(seed)
        left = [(rng.randrange(20), i) for i in range(80)]
        right = [(rng.randrange(20), -i) for i in range(60)]
        left += [(None, 999)]
        right += [(None, -999)]
        kernel = compile_join_kernel((0,), (0,))
        expected = hash_join(
            left, right, lambda r: (r[0],), lambda r: (r[0],), WorkMeter()
        )
        assert kernel(left, right) == expected

    def test_join_kernel_matches_hash_join_multi_key(self):
        rng = random.Random(7)
        left = [(rng.randrange(4), rng.randrange(4), i) for i in range(60)]
        right = [(rng.randrange(4), rng.randrange(4), -i) for i in range(60)]
        left += [(None, 1, 0), (1, None, 0)]
        right += [(None, 1, 0), (1, None, 0)]
        kernel = compile_join_kernel((0, 1), (0, 1))
        expected = hash_join(
            left,
            right,
            lambda r: (r[0], r[1]),
            lambda r: (r[0], r[1]),
            WorkMeter(),
        )
        assert kernel(left, right) == expected

    @pytest.mark.parametrize("seed", [11, 12])
    def test_agg_kernel_matches_aggregate_rows_grouped(self, seed):
        rng = random.Random(seed)
        rows = [
            (rng.randrange(5), rng.choice([None, rng.randrange(100)]))
            for _ in range(300)
        ]
        aggregates = [
            ("count", None),
            ("count", col(1)),
            ("sum", col(1)),
            ("avg", col(1)),
            ("min", col(1)),
            ("max", col(1)),
        ]
        kernel = compile_agg_kernel((0,), aggregates)
        specs = [
            AggSpec(func, None if arg is None else (lambda r: r[1]))
            for func, arg in aggregates
        ]
        expected = aggregate_rows(rows, lambda r: (r[0],), specs, WorkMeter())
        assert kernel(rows) == expected

    def test_agg_kernel_global_empty_input(self):
        aggregates = [("count", None), ("sum", col(0)), ("min", col(0))]
        kernel = compile_agg_kernel((), aggregates)
        specs = [
            AggSpec(func, None if arg is None else (lambda r: r[0]))
            for func, arg in aggregates
        ]
        expected = aggregate_rows([], None, specs, WorkMeter())
        assert kernel([]) == expected == [(0, None, None)]

    def test_count_star_shortcut_counts_rows(self):
        kernel = compile_agg_kernel((), [("count", None)])
        assert kernel([]) == [(0,)]
        assert kernel([(None,), (1,), (2,)]) == [(3,)]
        twice = compile_agg_kernel((), [("count", None), ("count", None)])
        assert twice([(1,)] * 5) == [(5, 5)]


# ---------------------------------------------------------------------------
# Generated kernels vs the oracle's row loops at the local-executor level
# ---------------------------------------------------------------------------


class TestBatchRowEquivalence:
    SCHEMA = Schema.of(k=DataType.INT, g=DataType.INT, v=DataType.FLOAT)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_same_rows_same_charges(self, compiled):
        """Against compiled row loops the charges are identical; the
        interpreted ones charge the projection's compares times
        ``INTERPRETATION_FACTOR`` (the sort has no expression)."""
        rng = random.Random(5)
        rows = [
            (rng.randrange(40), rng.randrange(6), round(rng.uniform(0, 9), 2))
            for _ in range(250)
        ]
        scan = ScanNode("t", self.SCHEMA)
        plan = ProjectNode(SortNode(scan, [(0, False)]), [col(0), col(1)])

        def run(evaluator):
            meter = WorkMeter()
            out = LocalExecutor({"t": rows}, evaluator=evaluator, meter=meter).run(plan)
            return out, meter.tuples, meter.compares

        got, tuples, compares = run(Evaluator())
        want, row_tuples, row_compares = run(RowEvaluator(interpreted=not compiled))
        assert (got, tuples) == (want, row_tuples)
        projected = 2 * len(rows)  # weight 1 per column reference
        factor = 1.0 if compiled else INTERPRETATION_FACTOR
        assert row_compares - compares == projected * (factor - 1)


# ---------------------------------------------------------------------------
# top_n_rows vs the sort+limit oracle
# ---------------------------------------------------------------------------


def _oracle(rows, positions, limit, offset, descending):
    return limit_rows(
        sort_rows(rows, positions, descending), limit, offset
    )


class TestTopNOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sort_limit_on_mixed_types(self, seed):
        rows = _mixed_rows(seed, n=120)
        rng = random.Random(seed + 100)
        positions = rng.sample(range(4), rng.randrange(1, 4))
        descending = [rng.random() < 0.5 for _ in positions]
        limit = rng.randrange(0, 140)
        offset = rng.choice([0, 1, 5, 130])
        expected = _oracle(rows, positions, limit, offset, descending)
        got = top_n_rows(rows, positions, limit, offset, descending)
        assert got == expected

    def test_ties_keep_original_order(self):
        # Every key equal: top-N must behave like a stable sort prefix.
        rows = [(1, i) for i in range(20)]
        assert top_n_rows(rows, [0], 5) == rows[:5]
        assert top_n_rows(rows, [0], 5, descending=[True]) == rows[:5]
        assert top_n_rows(rows, [0], 5, offset=3) == rows[3:8]

    def test_nulls_sort_first_ascending_last_descending(self):
        rows = [(3,), (None,), (1,), (None,), (2,)]
        assert top_n_rows(rows, [0], 3) == [(None,), (None,), (1,)]
        assert top_n_rows(rows, [0], 3, descending=[True]) == [
            (3,),
            (2,),
            (1,),
        ]

    def test_limit_zero_and_offset_past_end(self):
        rows = [(2,), (1,)]
        assert top_n_rows(rows, [0], 0) == []
        assert top_n_rows(rows, [0], 5, offset=10) == []

    def test_negative_limit_or_offset_raises(self):
        with pytest.raises(ExecutionError):
            top_n_rows([(1,)], [0], -1)
        with pytest.raises(ExecutionError):
            top_n_rows([(1,)], [0], 1, offset=-2)

    def test_mismatched_directions_raise(self):
        with pytest.raises(ExecutionError):
            top_n_rows([(1, 2)], [0, 1], 1, descending=[True])

    def test_charges_bounded_heap_not_full_sort(self):
        rows = [(i,) for i in range(1000)]
        meter = WorkMeter()
        top_n_rows(rows, [0], 10, meter=meter)
        assert meter.tuples == 1000
        assert meter.compares == pytest.approx(1000 * math.log2(10))
        # Degenerate keep >= n charges the full-sort formula.
        full = WorkMeter()
        top_n_rows(rows, [0], 5000, meter=full)
        assert full.compares == pytest.approx(1000 * math.log2(1000))
        # A bounded heap is strictly cheaper than sorting everything.
        sort_meter = WorkMeter()
        sort_rows(rows, [0], meter=sort_meter)
        assert meter.compares < sort_meter.compares


# ---------------------------------------------------------------------------
# Single-column join kernel: unique-key build vs list-per-key build
# ---------------------------------------------------------------------------

#: One NaN object shared by several rows: dict lookups match it by identity.
SHARED_NAN = float("nan")
#: Probe and duplicate-build keys: NULL, the colliding 1 / 1.0 / True,
#: -0.0 == 0.0, strings, the shared NaN and fresh NaNs (each its own key).
_KEYS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([1.0, True, False, 0.0, -0.0, "a", "b", SHARED_NAN]),
    st.builds(float, st.just("nan")),
)


@st.composite
def _unique_build(draw):
    """Distinct non-NULL keys (fresh NaNs are distinct) plus 0, 1 or 3 NULLs."""
    keys = draw(
        st.lists(st.one_of(st.integers(-20, 20), st.text("ab", max_size=2)), unique=True)
    )
    keys += [float("nan") for _ in range(draw(st.integers(0, 2)))]
    keys += [None] * draw(st.sampled_from([0, 1, 3]))
    return draw(st.permutations(keys))


@st.composite
def _join_inputs(draw, unique):
    build = draw(_unique_build()) if unique else draw(st.lists(_KEYS, max_size=30))
    own = st.sampled_from(build) if build else _KEYS
    probe = draw(st.lists(st.one_of(own, _KEYS), max_size=40))
    left = [(key, i) for i, key in enumerate(probe)]
    right = [(-i, key) for i, key in enumerate(build)]
    return left, right


def _join_both_ways(left, right):
    """(rows, meter) from the kernel and from the row-path hash join."""
    kernel_meter, row_meter = WorkMeter(), WorkMeter()
    got = hash_join_batch(left, right, compile_join_kernel((0,), (1,)), kernel_meter)
    want = hash_join(left, right, lambda r: (r[0],), lambda r: (r[1],), row_meter)
    return (got, kernel_meter.stats()), (want, row_meter.stats())


class TestSingleColumnJoinKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans().flatmap(_join_inputs))
    def test_matches_hash_join(self, inputs):
        kernel, row = _join_both_ways(*inputs)
        assert kernel == row

    def test_duplicate_build_keys_take_the_list_per_key_fallback(self):
        # 1, 1.0 and True are one dict key: only the list-per-key build
        # can emit all three matches for one probe row, in build order.
        right = [(0, 1), (1, None), (2, 1.0), (3, None), (4, True)]
        left = [(1, "x"), (None, "y"), (2, "z")]
        (got, meter), want = _join_both_ways(left, right)
        assert got == [(1, "x", 0, 1), (1, "x", 2, 1.0), (1, "x", 4, True)]
        assert (got, meter) == want
        assert meter == {"tuples": 3, "hashes": 8, "compares": 0.0}

    def test_unique_build_with_nulls_and_nans_matches_by_identity(self):
        fresh = float("nan")
        right = [(0, None), (1, SHARED_NAN), (2, 5), (3, None), (4, fresh), (5, -0.0)]
        left = [(SHARED_NAN, "a"), (float("nan"), "b"), (None, "c"), (0, "d"), (5.0, "e")]
        (got, _), want = _join_both_ways(left, right)
        assert got == [(SHARED_NAN, "a", 1, SHARED_NAN), (0, "d", 5, -0.0), (5.0, "e", 2, 5)]
        assert got == want[0]


# ---------------------------------------------------------------------------
# top-N: the raw-value cut vs an independent reference
# ---------------------------------------------------------------------------


def _reference_key(value):
    """NULLs, then bools, then numbers, then strings (the engine's order)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def _sorted_cut(rows, limit, offset, descending=False):
    """A stable sort on the null-safe key of column 0, then a slice."""
    ordered = sorted(rows, key=lambda row: _reference_key(row[0]), reverse=descending)
    return ordered[offset : offset + limit]


def _heap_cut(rows, limit, offset):
    """A bounded heap on (null-safe key, position): the engine's general path.

    With a NaN in the column the order is partial, so which rows a
    bounded heap keeps can differ from a full sort's prefix; there the
    identity that matters is with this heap."""
    best = heapq.nsmallest(
        offset + limit, enumerate(rows), key=lambda item: (_reference_key(item[1][0]), item[0])
    )
    return [row for _index, row in best[offset:]]


def _cut_both_ways(rows, keys, limit, offset):
    """(rows, meter) from ``top_n_rows`` and from a compiled topn chain."""
    positions, directions = [p for p, _ in keys], [d for _, d in keys]
    row_meter = WorkMeter()
    direct = top_n_rows(rows, positions, limit, offset, directions, row_meter)
    chain_meter = WorkMeter()
    pipeline = Evaluator().pipeline(((("topn", tuple(keys), limit, offset),),))
    chained, outs = pipeline.run(rows, [chain_meter])
    expected_meter = WorkMeter()
    charge_top_n(expected_meter, len(rows), offset + limit, len(keys))
    assert outs == [len(chained)]
    assert row_meter.stats() == chain_meter.stats() == expected_meter.stats()
    assert chained == direct
    return direct


NAN_ROWS = [(0.5, 0), (SHARED_NAN, 1), (-0.0, 2), (float("nan"), 3), (0.0, 4), (-1.5, 5)]


class TestRawValueTopN:
    @pytest.mark.parametrize(
        "column",
        [
            pytest.param([5, -2, 7, 0, -2, 3, 9, 1], id="ints"),
            pytest.param([0.0, 2.5, -0.0, -1.0, 0.0, -0.0, 3.25], id="signed-zeros"),
            pytest.param([1, 1.0, 0, 1, 0.0, 1.0, 2], id="int-float-ties"),
            pytest.param(["pear", "fig", "", "apple", "fig", "Z"], id="strings"),
            pytest.param([3, 1, True, 2, 0], id="one-bool-fallback"),
            pytest.param([3, 1, None, 2, 0], id="one-null-fallback"),
            pytest.param(["b", "a", None, "c"], id="null-among-strings-fallback"),
        ],
    )
    @pytest.mark.parametrize("limit, offset", [(3, 0), (2, 2), (0, 0), (4, 10), (100, 1)])
    def test_matches_stable_sort_then_slice(self, column, limit, offset):
        rows = [(value, i) for i, value in enumerate(column)]
        got = _cut_both_ways(rows, [(0, False)], limit, offset)
        assert got == _sorted_cut(rows, limit, offset)

    @pytest.mark.parametrize("limit, offset", [(1, 0), (2, 1), (3, 0), (0, 0), (6, 0), (3, 6)])
    def test_nan_column_matches_the_decorated_heap(self, limit, offset):
        got = _cut_both_ways(NAN_ROWS, [(0, False)], limit, offset)
        assert got == _heap_cut(NAN_ROWS, limit, offset)

    @pytest.mark.parametrize("limit, offset", [(3, 0), (2, 2), (10, 0)])
    def test_descending_and_two_key_cuts_fall_back(self, limit, offset):
        rows = [(v % 3, v % 2, v) for v in (5, 2, 8, 3, 3, 0, 7, 1)]
        got = _cut_both_ways(rows, [(0, True)], limit, offset)
        assert got == _sorted_cut(rows, limit, offset, descending=True)
        two = _cut_both_ways(rows, [(0, False), (1, False)], limit, offset)
        assert two == limit_rows(sort_rows(rows, [0, 1]), limit, offset)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-5, 5), st.floats(allow_nan=True, width=16)), max_size=30),
        st.integers(0, 8),
        st.integers(0, 4),
    )
    def test_numbers_with_nans_match_the_decorated_heap(self, column, limit, offset):
        rows = [(value, i) for i, value in enumerate(column)]
        assert _cut_both_ways(rows, [(0, False)], limit, offset) == _heap_cut(rows, limit, offset)


# ---------------------------------------------------------------------------
# limit_rows / LimitNode edge cases (satellite: charge accounting)
# ---------------------------------------------------------------------------


class TestLimitEdgeCases:
    ROWS = [(i,) for i in range(10)]

    def test_offset_past_end_is_empty_and_charges_len(self):
        meter = WorkMeter()
        assert limit_rows(self.ROWS, 3, offset=50, meter=meter) == []
        # The slice never runs past the rows that exist.
        assert meter.tuples == 10

    def test_offset_plus_limit_overflow_clamps(self):
        meter = WorkMeter()
        out = limit_rows(self.ROWS, 10**9, offset=8, meter=meter)
        assert out == [(8,), (9,)]
        assert meter.tuples == 10

    def test_limit_zero_touches_nothing(self):
        meter = WorkMeter()
        assert limit_rows(self.ROWS, 0, meter=meter) == []
        assert meter.tuples == 0

    def test_charge_equals_rows_touched(self):
        meter = WorkMeter()
        limit_rows(self.ROWS, 3, offset=2, meter=meter)
        assert meter.tuples == 5  # offset rows + emitted rows
        unlimited = WorkMeter()
        limit_rows(self.ROWS, None, meter=unlimited)
        assert unlimited.tuples == 10

    def test_limit_node_runs_edge_cases(self):
        schema = Schema.of(x=DataType.INT)
        scan = ScanNode("t", schema)
        executor = LocalExecutor({"t": self.ROWS})
        assert executor.run(LimitNode(scan, 0)) == []
        assert executor.run(LimitNode(scan, 3, offset=50)) == []
        assert executor.run(LimitNode(scan, 10**6, offset=8)) == [(8,), (9,)]


# ---------------------------------------------------------------------------
# Rewrite rules: fusion and pushdown
# ---------------------------------------------------------------------------

EMP = Schema.of(id=DataType.INT, dept=DataType.STRING, sal=DataType.FLOAT)
TABLES = {
    "emp": [
        (1, "eng", 120.0),
        (2, "eng", 95.0),
        (3, "sales", 80.0),
        (4, "sales", 85.0),
        (5, "hr", 70.0),
    ]
}


def emp():
    return ScanNode("emp", EMP)


def run(plan):
    return LocalExecutor(TABLES).run(plan)


class TestTopNRules:
    def test_fuse_sort_limit(self):
        plan = LimitNode(SortNode(emp(), [(2, True)]), 2)
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" in fired
        top = [n for n in rewritten.walk() if isinstance(n, TopNNode)]
        assert len(top) == 1
        assert top[0].keys == ((2, True),)
        assert top[0].limit == 2
        assert run(rewritten) == run(plan) == [(1, "eng", 120.0), (2, "eng", 95.0)]

    def test_unbounded_limit_not_fused(self):
        plan = LimitNode(SortNode(emp(), [(0, False)]), None, offset=1)
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" not in fired
        assert not any(isinstance(n, TopNNode) for n in rewritten.walk())
        assert run(rewritten) == run(plan)

    def test_push_limit_below_project(self):
        # Non-narrowing computed projection: width 3 in, width 3 out.
        plan = LimitNode(
            ProjectNode(
                emp(), [col(0), col(1), Arithmetic("*", col(2), lit(2.0))]
            ),
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "push_limit_below_project" in fired
        # The projection is now outermost: limit applies before the
        # multiply, so only 2 rows are ever projected.
        assert isinstance(rewritten, ProjectNode)
        assert run(rewritten) == run(plan)

    def test_push_topn_below_plain_projection(self):
        # Full-width permutation: pushing below it costs no shipped
        # width, and the heap then cuts rows before any copying.
        plan = LimitNode(
            SortNode(
                ProjectNode(emp(), [col(2), col(0), col(1)]), [(0, True)]
            ),
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "fuse_sort_limit" in fired
        assert "push_topn_below_project" in fired
        # TopN now sits under the projection, keyed by the source column.
        projects = [n for n in rewritten.walk() if isinstance(n, ProjectNode)]
        assert projects and isinstance(projects[0].child, TopNNode)
        assert projects[0].child.keys == ((2, True),)
        assert run(rewritten) == run(plan)

    def test_topn_not_pushed_below_computed_projection(self):
        plan = TopNNode(
            ProjectNode(
                emp(), [Arithmetic("*", col(2), lit(-1.0)), col(0), col(1)]
            ),
            [(0, False)],
            2,
        )
        rewritten, fired = apply_rules(plan)
        assert "push_topn_below_project" not in fired
        assert run(rewritten) == run(plan)

    def test_pushes_blocked_below_narrowing_projection(self):
        # Cutting below a narrowing projection would make every site
        # ship wide pre-projection rows: both pushes must stay put.
        narrow = ProjectNode(emp(), [col(2)])
        limit_plan = LimitNode(narrow, 2)
        _, fired = apply_rules(limit_plan)
        assert "push_limit_below_project" not in fired
        topn_plan = TopNNode(ProjectNode(emp(), [col(2)]), [(0, False)], 2)
        rewritten, fired = apply_rules(topn_plan)
        assert "push_topn_below_project" not in fired
        assert run(rewritten) == run(topn_plan)


# ---------------------------------------------------------------------------
# Distributed: fused top-N ships fewer bytes than sort-then-limit
# ---------------------------------------------------------------------------


def _small_db():
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    load_wisconsin(db, "wisc", 400, fragments=4, seed=3)
    db.quiesce()
    return db


def _without_topn_rules():
    dropped = {"fuse_sort_limit", "push_limit_below_project", "push_topn_below_project"}
    return tuple(r for r in KNOWLEDGE_BASE if r.name not in dropped)


class TestDistributedTopN:
    SQL = "SELECT unique1 FROM wisc ORDER BY unique1 LIMIT 10"

    def _run(self, monkeypatch, rules):
        import repro.core.gdh as gdh_module
        from repro.algebra.optimizer import Optimizer

        real = Optimizer
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options: real(stats, options, rules=rules),
        )
        db = _small_db()
        result = db.execute(self.SQL)
        return result

    def test_fused_ships_strictly_less(self, monkeypatch):
        fused = self._run(monkeypatch, KNOWLEDGE_BASE)
        unfused = self._run(monkeypatch, _without_topn_rules())
        assert fused.rows == unfused.rows
        assert len(fused.rows) == 10
        assert "TopN" in fused.report.plan_text
        assert "TopN" not in unfused.report.plan_text
        # Each site ships only its best 10 rows instead of a full
        # 100-row partition: strictly fewer bytes on the wire.
        assert fused.report.bytes_shipped < unfused.report.bytes_shipped

    def test_offset_and_ties_match_unfused_plan(self, monkeypatch):
        sql = "SELECT ten, unique1 FROM wisc ORDER BY ten LIMIT 7 OFFSET 5"
        import repro.core.gdh as gdh_module
        from repro.algebra.optimizer import Optimizer

        real = Optimizer
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options: real(stats, options, rules=KNOWLEDGE_BASE),
        )
        db = _small_db()
        fused = db.execute(sql)
        monkeypatch.setattr(
            gdh_module,
            "Optimizer",
            lambda stats, options, _r=_without_topn_rules(): real(
                stats, options, rules=_r
            ),
        )
        db2 = _small_db()
        unfused = db2.execute(sql)
        # `ten` has 40 ties per value: global stability across sites
        # must reproduce the unfused stable sort exactly.
        assert fused.rows == unfused.rows
