"""The compiled shuffle path: splitter/hash equivalence, repartition
invariants, and direct-ship broadcast cost.

The splitter must assign every row to the same bucket as the interpreted
reference hash (the oracle's ``reference_bucket``) for every value type the engine
ships — that equivalence is what makes the single-pass repartition
bit-identical to the per-row implementation it replaced.
"""

import pytest

from repro import PrismaDB
from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog
from repro.core.executor import DistRelation, DistributedExecutor, Part
from repro.core.fragmentation import stable_hash
from repro.exec.shuffle import SplitterCache, compile_splitter
from repro.machine import Machine, MachineConfig
from repro.pool import PoolProcess, PoolRuntime

from tests.oracle import reference_bucket

#: Every value family stable_hash distinguishes: small/large/negative
#: ints, bools (an int subclass with its own routing), floats, strings
#: (FNV-1a), the empty string, non-ASCII, and NULL.
VALUES = [0, 1, -1, 7, 2**40, -(2**35), True, False, 3.14, -2.5, 0.0,
          "abc", "", "ü", "name7", None]


def _rows(width: int) -> list[tuple]:
    rows = []
    for i, value in enumerate(VALUES):
        rows.append(tuple(VALUES[(i + j) % len(VALUES)] for j in range(width)))
        rows.append((value,) * width)
    return rows


class TestCompiledSplitter:
    @pytest.mark.parametrize("key_cols", [(0,), (1,), (0, 1), (2, 1, 0)])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
    def test_matches_reference_bucket(self, key_cols, k):
        rows = _rows(3)
        buckets = compile_splitter(key_cols, k)(rows)
        assert len(buckets) == k
        for index, bucket in enumerate(buckets):
            for row in bucket:
                assert reference_bucket(row, key_cols, k) == index
        # Partition: every row lands in exactly one bucket, source order
        # preserved within each bucket.
        for index, bucket in enumerate(buckets):
            expected = [r for r in rows if reference_bucket(r, key_cols, k) == index]
            assert bucket == expected

    def test_single_int_column_agrees_with_stable_hash(self):
        # The inline int fast path must match stable_hash exactly.
        rows = [(v,) for v in (0, 1, -1, 5, 123456789, 2**33, -(2**31))]
        buckets = compile_splitter((0,), 8)(rows)
        for index, bucket in enumerate(buckets):
            for row in bucket:
                assert stable_hash(row[0]) % 8 == index

    def test_empty_key_routes_everything_to_bucket_zero(self):
        rows = _rows(2)
        buckets = compile_splitter((), 4)(rows)
        assert buckets[0] == rows
        assert buckets[1] == buckets[2] == buckets[3] == []

    def test_rejects_nonpositive_bucket_count(self):
        with pytest.raises(ValueError):
            compile_splitter((0,), 0)

    def test_cache_compiles_each_shape_once(self):
        cache = SplitterCache()
        first = cache.splitter((0,), 4)
        assert cache.splitter((0,), 4) is first
        assert (cache.compilations, cache.hits) == (1, 1)
        cache.splitter((0,), 8)
        cache.splitter((0, 1), 4)
        assert (cache.compilations, cache.hits) == (3, 1)


# ---------------------------------------------------------------------------
# Executor-level invariants.  _repartition and _broadcast only need live
# processes and the runtime, so a minimal harness suffices.
# ---------------------------------------------------------------------------


class TestNonFiniteKeys:
    def test_non_finite_floats_hash_to_fixed_buckets(self):
        assert stable_hash(float("inf")) == stable_hash(1e308 * 10) == stable_hash(1e300)
        assert stable_hash(float("-inf")) == stable_hash(-1e300)
        assert stable_hash(float("inf")) != stable_hash(float("-inf"))
        assert stable_hash(float("nan")) == stable_hash(-float("nan"))
        # Finite values that scale to an int keep their hash.
        for value in (3.14, -2.5, 0.0, 1e290, -1e290):
            assert stable_hash(value) == int(value * 2654435761) & 0x7FFFFFFF

    @staticmethod
    def db_with_overflowing_products() -> PrismaDB:
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
        db.execute("CREATE TABLE t (a INT, x REAL) FRAGMENTED BY HASH(a) INTO 4")
        db.bulk_load("t", [(i, float(i % 3) - 1.0) for i in range(24)])
        return db

    def test_distinct_over_infinite_values(self):
        db = self.db_with_overflowing_products()
        rows = db.execute("SELECT DISTINCT x * 1e308 * 10 FROM t").rows
        assert sorted(rows) == [(float("-inf"),), (0.0,), (float("inf"),)]

    def test_group_by_over_infinite_values(self):
        db = self.db_with_overflowing_products()
        rows = db.execute(
            "SELECT x * 1e308 * 10, COUNT(*) FROM t GROUP BY x * 1e308 * 10"
        ).rows
        assert sorted(rows) == [(float("-inf"), 8), (0.0, 8), (float("inf"), 8)]


class ShuffleHarness:
    def __init__(self, n_procs: int = 4):
        config = MachineConfig(n_nodes=8, disk_nodes=(0,))
        self.runtime = PoolRuntime(Machine(config))
        self.executor = DistributedExecutor(
            self.runtime, Catalog(), DataAllocationManager(self.runtime)
        )
        self.query_process = self.runtime.spawn(PoolProcess, name="qp", node=0)
        self.executor.query_process = self.query_process
        self.executor._dispatched = set()
        self.procs = [
            self.runtime.spawn(PoolProcess, name=f"p{i}", node=i + 1)
            for i in range(n_procs)
        ]

    def dispatch_all(self) -> None:
        """Pre-pay the subplan messages so stats deltas isolate data."""
        for proc in self.procs:
            self.executor._dispatch(proc)


class TestRepartitionInvariants:
    def test_delta_dst_meets_edge_src_at_the_same_site(self):
        # The distributed closure relies on this: repartitioning edges on
        # src and deltas on dst with the same targets co-locates every
        # joinable pair, for any k.
        harness = ShuffleHarness(4)
        ex = harness.executor
        edge_rows = [(i % 11, (i * 7) % 11) for i in range(40)]
        delta_rows = [((i * 3) % 11, i % 11) for i in range(25)]
        edges = DistRelation(
            [Part(p, edge_rows[i::4]) for i, p in enumerate(harness.procs)], None
        )
        edges_by_src = ex.repartition(edges, (0,))
        sites = [part.process for part in edges_by_src.parts]
        delta = DistRelation([Part(harness.procs[0], delta_rows)], None)
        delta_by_dst = ex.repartition(delta, (1,), targets=sites)

        edge_site = {}
        for index, part in enumerate(edges_by_src.parts):
            for row in part.rows:
                assert edge_site.setdefault(row[0], index) == index
        for index, part in enumerate(delta_by_dst.parts):
            for row in part.rows:
                if row[1] in edge_site:
                    assert edge_site[row[1]] == index

    def test_resident_rows_never_traverse_the_network(self):
        harness = ShuffleHarness(4)
        ex = harness.executor
        harness.dispatch_all()
        # Place every row at the process its key already hashes to.
        rows = [(i, i * 2) for i in range(50)]
        parts = [
            Part(p, [r for r in rows if reference_bucket(r, (0,), 4) == i])
            for i, p in enumerate(harness.procs)
        ]
        stats = self.runtime_stats(harness)
        shuffled = ex.repartition(DistRelation(parts, None), (0,))
        assert self.runtime_stats(harness) == stats  # no messages, no bytes
        assert [p.rows for p in shuffled.parts] == [p.rows for p in parts]
        assert shuffled.partition_cols == (0,)

    def test_empty_buckets_still_appear_in_output(self):
        harness = ShuffleHarness(4)
        ex = harness.executor
        rows = [(42, i) for i in range(10)]  # one key: one bucket gets all
        relation = DistRelation([Part(harness.procs[0], rows)], None)
        shuffled = ex.repartition(relation, (0,), targets=harness.procs)
        assert len(shuffled.parts) == 4
        assert [p.process for p in shuffled.parts] == harness.procs
        target = reference_bucket(rows[0], (0,), 4)
        for index, part in enumerate(shuffled.parts):
            assert part.rows == (rows if index == target else [])

    @staticmethod
    def runtime_stats(harness: ShuffleHarness) -> tuple[int, int]:
        return (harness.runtime.stats.messages, harness.runtime.stats.bytes_moved)


class TestBroadcastDirectShip:
    def test_every_target_receives_the_whole_relation(self):
        harness = ShuffleHarness(4)
        ex = harness.executor
        parts = [
            Part(p, [(i, j) for j in range(5)])
            for i, p in enumerate(harness.procs[:3])
        ]
        relation = DistRelation(parts, None)
        expected = relation.all_rows()
        copies = ex.broadcast(relation, harness.procs)
        assert copies == [expected] * 4

    def test_direct_ship_charges_part_bytes_and_drops_the_gather_hop(self):
        harness = ShuffleHarness(4)
        ex = harness.executor
        harness.dispatch_all()
        parts = [
            Part(p, [(i, j) for j in range(5 + i)])
            for i, p in enumerate(harness.procs[:3])
        ]
        relation = DistRelation(parts, None)
        targets = harness.procs
        before = harness.runtime.stats.bytes_moved
        ex.broadcast(relation, targets)
        shipped = harness.runtime.stats.bytes_moved - before

        # Cost equivalence per target: exactly the bytes of the parts not
        # already resident there, shipped straight from their sources.
        expected = sum(
            ex._row_bytes(part.rows)
            for target in targets
            for part in parts
            if part.process is not target
        )
        assert shipped == expected

        # The old strategy gathered at parts[0] first: same fan-out bytes
        # plus a full extra hop for every non-resident row.
        gather_hop = sum(ex._row_bytes(p.rows) for p in parts[1:])
        old_fan_out = sum(
            ex._row_bytes(relation.all_rows())
            for target in targets
            if target is not parts[0].process
        )
        assert shipped < gather_hop + old_fan_out
