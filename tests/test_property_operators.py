"""Property tests: physical operators against naive Python oracles,
fragmentation routing invariants, and WAL round-trips."""

from hypothesis import given, settings, strategies as st

from repro.exec.compiler import compile_key
from repro.exec.operators import (
    JoinKind,
    WorkMeter,
    difference_rows,
    hash_join,
    intersect_rows,
    nested_loop_join,
    sort_rows,
    union_rows,
)
from repro.core.fragmentation import (
    HashFragmentation,
    RangeFragmentation,
    stable_hash,
)

from tests.oracle import AggSpec, aggregate_rows, distinct_rows

_values = st.one_of(st.integers(-20, 20), st.sampled_from(["a", "b", "c"]))
_int_rows = st.lists(st.tuples(st.integers(0, 6), st.integers(-9, 9)), max_size=20)


def key0(row):
    return (row[0],)


class TestJoinProperties:
    @given(left=_int_rows, right=_int_rows)
    @settings(max_examples=150, deadline=None)
    def test_hash_join_matches_nested_loop(self, left, right):
        from repro.exec.expressions import Comparison, col

        hashed = hash_join(left, right, key0, key0, WorkMeter())
        condition = lambda row: row[0] == row[2]  # noqa: E731
        looped = nested_loop_join(left, right, condition, WorkMeter())
        assert sorted(hashed) == sorted(looped)

    @given(left=_int_rows, right=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_semi_plus_anti_partition_left(self, left, right):
        semi = hash_join(left, right, key0, key0, WorkMeter(), JoinKind.SEMI)
        anti = hash_join(left, right, key0, key0, WorkMeter(), JoinKind.ANTI)
        assert sorted(semi + anti) == sorted(left)
        right_keys = {key0(r) for r in right}
        assert all(key0(row) in right_keys for row in semi)
        assert all(key0(row) not in right_keys for row in anti)

    @given(left=_int_rows, right=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_left_outer_covers_left(self, left, right):
        out = hash_join(
            left, right, key0, key0, WorkMeter(), JoinKind.LEFT_OUTER, right_width=2
        )
        assert sorted(row[:2] for row in out if row[2] is not None) == sorted(
            row[:2]
            for row in hash_join(left, right, key0, key0, WorkMeter())
        )
        # Every left row appears at least once.
        assert {row[:2] for row in out} >= set(left)


class TestSetAndSortProperties:
    @given(left=_int_rows, right=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_set_operations_match_python_sets(self, left, right):
        left_set, right_set = set(left), set(right)
        assert set(union_rows(left, right, WorkMeter())) == left_set | right_set
        assert set(intersect_rows(left, right, WorkMeter())) == left_set & right_set
        assert set(difference_rows(left, right, WorkMeter())) == left_set - right_set

    @given(rows=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_distinct_matches_set(self, rows):
        out = distinct_rows(rows, WorkMeter())
        assert set(out) == set(rows)
        assert len(out) == len(set(rows))

    @given(rows=_int_rows, descending=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sort_matches_sorted(self, rows, descending):
        out = sort_rows(rows, [0, 1], [descending, descending])
        assert out == sorted(rows, reverse=descending)

    @given(rows=st.lists(st.tuples(st.one_of(st.none(), st.integers(-5, 5))), max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_sort_nulls_first(self, rows):
        out = sort_rows(rows, [0])
        nulls = [row for row in out if row[0] is None]
        assert out[: len(nulls)] == nulls


class TestAggregateProperties:
    @given(rows=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_grouped_sums_match_python(self, rows):
        out = aggregate_rows(
            rows,
            compile_key([0]),
            [AggSpec("count", None), AggSpec("sum", lambda r: r[1])],
            WorkMeter(),
        )
        expected = {}
        for group, value in rows:
            count, total = expected.get(group, (0, 0))
            expected[group] = (count + 1, total + value)
        assert {row[0]: (row[1], row[2]) for row in out} == expected

    @given(rows=_int_rows)
    @settings(max_examples=100, deadline=None)
    def test_min_max_bound_the_data(self, rows):
        out = aggregate_rows(
            rows, None,
            [AggSpec("min", lambda r: r[1]), AggSpec("max", lambda r: r[1])],
            WorkMeter(),
        )
        (minimum, maximum), = [tuple(row) for row in out]
        if rows:
            assert minimum == min(r[1] for r in rows)
            assert maximum == max(r[1] for r in rows)
        else:
            assert minimum is None and maximum is None


class TestFragmentationProperties:
    @given(
        value=_values,
        n=st.integers(1, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_hash_routing_deterministic_and_prunable(self, value, n):
        scheme = HashFragmentation(0, n)
        home = scheme.fragment_of((value,))
        assert 0 <= home < n
        assert scheme.fragment_of((value,)) == home
        if value is not None:
            assert scheme.prunable_fragments(0, value) == [home]

    @given(
        boundaries=st.lists(
            st.integers(-50, 50), min_size=1, max_size=5, unique=True
        ).map(sorted),
        value=st.integers(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_routing_orders_values(self, boundaries, value):
        scheme = RangeFragmentation(0, tuple(boundaries))
        home = scheme.fragment_of((value,))
        assert 0 <= home < len(boundaries) + 1
        # Values below the first boundary land in fragment 0; at or above
        # the last boundary, in the last fragment.
        if value < boundaries[0]:
            assert home == 0
        if value >= boundaries[-1]:
            assert home == len(boundaries)
        assert scheme.prunable_fragments(0, value) == [home]

    @given(value=_values)
    @settings(max_examples=200, deadline=None)
    def test_stable_hash_is_non_negative(self, value):
        assert stable_hash(value) >= 0


class TestWalRoundTrip:
    _records = st.lists(
        st.tuples(
            st.sampled_from("IDUPCA"),
            st.integers(1, 9),
            st.integers(0, 50),
            st.tuples(st.integers(-5, 5), st.sampled_from(["x", "y"])),
        ),
        max_size=15,
    )

    @given(spec=_records, chunks=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_any_record_sequence_survives(self, spec, chunks):
        from repro.machine import Machine, MachineConfig
        from repro.ofm.wal import (
            AbortRecord,
            CommitRecord,
            DeleteRecord,
            InsertRecord,
            PrepareRecord,
            UpdateRecord,
            WriteAheadLog,
        )

        machine = Machine(MachineConfig(n_nodes=2, disk_nodes=(0,)))
        wal = WriteAheadLog(machine, 1, "prop")
        written = []
        for index, (kind, txn, rid, row) in enumerate(spec):
            record = {
                "I": lambda: InsertRecord(txn, rid, row),
                "D": lambda: DeleteRecord(txn, rid, row),
                "U": lambda: UpdateRecord(txn, rid, row, row),
                "P": lambda: PrepareRecord(txn),
                "C": lambda: CommitRecord(txn),
                "A": lambda: AbortRecord(txn),
            }[kind]()
            wal.append(record)
            written.append(record)
            if index % chunks == chunks - 1:
                wal.force()
        wal.force()
        recovered, _ = wal.read_records()
        assert recovered == written
        wal.wipe()
