"""Tests for the physical relational operators, and for the row-at-a-time
ones of the test-side oracle that the generated kernels are held to."""

import pytest

from repro.errors import ExecutionError
from repro.exec.expressions import col
from repro.exec.operators import (
    JoinKind,
    WorkMeter,
    difference_rows,
    hash_join,
    intersect_rows,
    nested_loop_join,
    sort_rows,
    union_all_rows,
    union_rows,
)
from repro.exec.pipeline import aggregate_op

from tests.oracle import (
    AggSpec,
    aggregate_rows,
    distinct_rows,
    limit_rows,
    project_rows,
    select_rows,
)


def key0(row):
    return (row[0],)


class TestSelectProject:
    def test_select_filters_and_meters(self):
        meter = WorkMeter()
        out = select_rows([(1,), (2,), (3,)], lambda r: r[0] > 1, meter)
        assert out == [(2,), (3,)]
        assert meter.tuples == 3

    def test_select_eval_weight_scales_compares(self):
        meter = WorkMeter()
        select_rows([(1,)] * 10, lambda r: True, meter, eval_weight=3.0)
        assert meter.compares == 30.0

    def test_select_wraps_runtime_faults(self):
        with pytest.raises(ExecutionError):
            select_rows([(1,)], lambda r: r[0] < "x", WorkMeter())

    def test_project(self):
        meter = WorkMeter()
        out = project_rows([(1, "a")], lambda r: (r[1], r[0] * 2), meter)
        assert out == [("a", 2)]

    def test_project_wraps_faults(self):
        with pytest.raises(ExecutionError):
            project_rows([(1,)], lambda r: (r[0] / 0,), WorkMeter())


class TestHashJoin:
    LEFT = [(1, "a"), (2, "b"), (3, "c")]
    RIGHT = [(1, "x"), (1, "y"), (4, "z")]

    def test_inner(self):
        out = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter())
        assert sorted(out) == [(1, "a", 1, "x"), (1, "a", 1, "y")]

    def test_left_outer_pads_with_nulls(self):
        out = hash_join(
            self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
            kind=JoinKind.LEFT_OUTER, right_width=2,
        )
        assert (2, "b", None, None) in out
        assert (3, "c", None, None) in out
        assert len(out) == 4

    def test_left_outer_requires_width(self):
        with pytest.raises(ExecutionError):
            hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                      kind=JoinKind.LEFT_OUTER)

    def test_semi_and_anti(self):
        semi = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                         kind=JoinKind.SEMI)
        assert semi == [(1, "a")]
        anti = hash_join(self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
                         kind=JoinKind.ANTI)
        assert anti == [(2, "b"), (3, "c")]

    def test_null_keys_never_match(self):
        left = [(None, "l")]
        right = [(None, "r")]
        assert hash_join(left, right, key0, key0, WorkMeter()) == []

    def test_residual_condition(self):
        out = hash_join(
            self.LEFT, self.RIGHT, key0, key0, WorkMeter(),
            residual=lambda row: row[3] == "y",
        )
        assert out == [(1, "a", 1, "y")]

    def test_meter_counts_hash_work(self):
        meter = WorkMeter()
        hash_join(self.LEFT, self.RIGHT, key0, key0, meter)
        assert meter.hashes == len(self.LEFT) + len(self.RIGHT)


class TestOtherJoins:
    def test_nested_loop_non_equi(self):
        left = [(1,), (5,)]
        right = [(3,), (4,)]
        out = nested_loop_join(left, right, lambda row: row[0] < row[1], WorkMeter())
        assert sorted(out) == [(1, 3), (1, 4)]

    def test_nested_loop_cross_product(self):
        out = nested_loop_join([(1,), (2,)], [("a",)], None, WorkMeter())
        assert sorted(out) == [(1, "a"), (2, "a")]

    def test_nested_loop_left_outer(self):
        out = nested_loop_join(
            [(1,), (9,)], [(3,)], lambda row: row[0] < row[1], WorkMeter(),
            kind=JoinKind.LEFT_OUTER, right_width=1,
        )
        assert sorted(out, key=repr) == [(1, 3), (9, None)]

    def test_nested_loop_semi_anti(self):
        left = [(1,), (9,)]
        right = [(3,)]
        condition = lambda row: row[0] < row[1]  # noqa: E731
        assert nested_loop_join(left, right, condition, WorkMeter(),
                                kind=JoinKind.SEMI) == [(1,)]
        assert nested_loop_join(left, right, condition, WorkMeter(),
                                kind=JoinKind.ANTI) == [(9,)]


class TestSort:
    def test_single_key_ascending(self):
        out = sort_rows([(3,), (1,), (2,)], [0])
        assert out == [(1,), (2,), (3,)]

    def test_descending(self):
        out = sort_rows([(3,), (1,), (2,)], [0], descending=[True])
        assert out == [(3,), (2,), (1,)]

    def test_mixed_directions(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
        out = sort_rows(rows, [0, 1], descending=[False, True])
        assert out == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_nulls_sort_first(self):
        out = sort_rows([(2,), (None,), (1,)], [0])
        assert out == [(None,), (1,), (2,)]

    def test_sort_is_stable(self):
        rows = [(1, "first"), (1, "second")]
        assert sort_rows(rows, [0]) == rows

    def test_direction_length_mismatch(self):
        with pytest.raises(ExecutionError):
            sort_rows([(1,)], [0], descending=[True, False])


class TestDistinctLimitSetOps:
    def test_distinct_preserves_first_occurrence_order(self):
        out = distinct_rows([(2,), (1,), (2,), (3,), (1,)], WorkMeter())
        assert out == [(2,), (1,), (3,)]

    def test_limit_offset(self):
        rows = [(i,) for i in range(10)]
        assert limit_rows(rows, 3) == [(0,), (1,), (2,)]
        assert limit_rows(rows, 3, offset=8) == [(8,), (9,)]
        assert limit_rows(rows, None, offset=7) == [(7,), (8,), (9,)]
        with pytest.raises(ExecutionError):
            limit_rows(rows, -1)

    def test_limit_charges_touched_rows(self):
        rows = [(i,) for i in range(10)]
        meter = WorkMeter()
        limit_rows(rows, 3, meter=meter)
        assert meter.tuples == 3  # stops at the cap, not the full input
        meter = WorkMeter()
        limit_rows(rows, 3, offset=8, meter=meter)
        assert meter.tuples == 10  # offset walks the skipped rows too
        meter = WorkMeter()
        limit_rows(rows, None, offset=7, meter=meter)
        assert meter.tuples == 10  # no cap: the whole input is touched

    def test_union_deduplicates(self):
        out = union_rows([(1,), (2,)], [(2,), (3,)], WorkMeter())
        assert sorted(out) == [(1,), (2,), (3,)]

    def test_union_all_keeps_duplicates(self):
        out = union_all_rows([(1,)], [(1,)], WorkMeter())
        assert out == [(1,), (1,)]

    def test_intersect(self):
        out = intersect_rows([(1,), (2,), (2,)], [(2,), (3,)], WorkMeter())
        assert out == [(2,)]

    def test_difference(self):
        out = difference_rows([(1,), (2,), (1,)], [(2,)], WorkMeter())
        assert out == [(1,)]


class TestAggregation:
    ROWS = [("eng", 100.0), ("eng", 80.0), ("hr", 50.0)]

    def test_group_by_with_all_functions(self):
        out = aggregate_rows(
            self.ROWS,
            lambda r: (r[0],),
            [
                AggSpec("count"),
                AggSpec("sum", lambda r: r[1]),
                AggSpec("avg", lambda r: r[1]),
                AggSpec("min", lambda r: r[1]),
                AggSpec("max", lambda r: r[1]),
            ],
            WorkMeter(),
        )
        by_group = {row[0]: row[1:] for row in out}
        assert by_group["eng"] == (2, 180.0, 90.0, 80.0, 100.0)
        assert by_group["hr"] == (1, 50.0, 50.0, 50.0, 50.0)

    def test_global_aggregate_on_empty_input(self):
        out = aggregate_rows(
            [], None,
            [AggSpec("count"), AggSpec("sum", lambda r: r[0]),
             AggSpec("min", lambda r: r[0])],
            WorkMeter(),
        )
        assert out == [(0, None, None)]

    def test_group_by_empty_input_has_no_groups(self):
        out = aggregate_rows([], lambda r: (r[0],), [AggSpec("count")], WorkMeter())
        assert out == []

    def test_nulls_ignored_by_aggregates(self):
        rows = [(1,), (None,), (3,)]
        out = aggregate_rows(
            rows, None,
            [AggSpec("count", lambda r: r[0]), AggSpec("sum", lambda r: r[0]),
             AggSpec("avg", lambda r: r[0])],
            WorkMeter(),
        )
        assert out == [(2, 4, 2.0)]

    def test_count_star_counts_nulls(self):
        out = aggregate_rows([(None,), (1,)], None, [AggSpec("count")], WorkMeter())
        assert out == [(2,)]

    def test_distinct_aggregate(self):
        rows = [(1,), (1,), (2,)]
        out = aggregate_rows(
            rows, None,
            [AggSpec("count", lambda r: r[0], distinct=True),
             AggSpec("sum", lambda r: r[0], distinct=True)],
            WorkMeter(),
        )
        assert out == [(2, 3)]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ExecutionError, match="unknown aggregate"):
            aggregate_op((), [("median", col(0))])
        with pytest.raises(ExecutionError, match="SUM needs an argument"):
            aggregate_op((0,), [("sum", None, True)])
        assert aggregate_op((), [("count", None)])[2] == (("count", None, False, False),)
