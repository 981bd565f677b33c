"""The compiled shuffle path: splitter/hash equivalence, repartition
invariants, and direct-ship broadcast cost.

The splitter must assign every row to the same bucket as the interpreted
reference hash (the oracle's ``reference_bucket``) for every value type the engine
ships — that equivalence is what makes the single-pass repartition
bit-identical to the per-row implementation it replaced.
"""

import random

import pytest

from repro import PrismaDB
from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog
from repro.core.dispatch import CLOSURE, closure_loop
from repro.core.executor import DistRelation, DistributedExecutor, Part
from repro.core.fragmentation import stable_hash
from repro.exec.closure import seminaive_closure
from repro.exec.operators import WorkMeter
from repro.exec.shuffle import SplitterCache, compile_splitter
from repro.machine import Machine, MachineConfig
from repro.pool import PoolProcess, PoolRuntime

from tests.oracle import reference_bucket

#: Every value family stable_hash distinguishes: small/large/negative
#: ints (either side of 2**31), bools (an int subclass with its own
#: routing), integral and other floats, infinities and NaN, strings
#: (FNV-1a), the empty string, non-ASCII, and NULL.
VALUES = [0, 1, -1, 7, 2**31 - 1, 2**31, 2**40, -(2**31), -(2**35), True, False,
          3.14, -2.5, 0.0, 7.0, -1e300, float("inf"), float("-inf"), float("nan"),
          "abc", "", "ü", "name7", None]

#: Bucket counts: the power-of-two path (1 included) and the modulo path.
BUCKET_COUNTS = [1, 2, 3, 4, 5, 7, 8, 16, 64]


def _rows(width: int) -> list[tuple]:
    rows = []
    for i, value in enumerate(VALUES):
        rows.append(tuple(VALUES[(i + j) % len(VALUES)] for j in range(width)))
        rows.append((value,) * width)
    return rows


class TestCompiledSplitter:
    @pytest.mark.parametrize("key_cols", [(0,), (1,), (0, 1), (2, 1, 0)])
    @pytest.mark.parametrize("k", BUCKET_COUNTS)
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

    @pytest.mark.parametrize("k", BUCKET_COUNTS)
    def test_random_mixed_batches_match_reference_bucket(self, k):
        rng = random.Random(k)
        for _ in range(60):
            key_cols = tuple(rng.sample(range(3), rng.randint(1, 3)))
            rows = [
                tuple(
                    rng.choice(VALUES) if rng.random() < 0.5
                    else rng.randint(-(2**40), 2**40)
                    for _ in range(3)
                )
                for _ in range(12)
            ]
            for index, bucket in enumerate(compile_splitter(key_cols, k)(rows)):
                for row in bucket:
                    assert reference_bucket(row, key_cols, k) == index

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 64])
    @pytest.mark.parametrize("key_cols", [(0,), (1, 0), (2, 0, 1)])
    def test_power_of_two_split_keeps_low_bits_without_modulo(self, key_cols, k):
        source = compile_splitter(key_cols, k).__prisma_source__
        assert "%" not in source
        assert f" & {k - 1}](row)" in source

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
        assert stable_hash(float("inf")) == stable_hash(1e308 * 10) == 1
        assert stable_hash(float("-inf")) == 2
        assert stable_hash(float("nan")) == stable_hash(-float("nan")) == 0
        # An integral float hashes as the int it equals, however large.
        for value in (0.0, -3.0, 2.0**40, 1e290, -1e290, 1e300):
            assert stable_hash(value) == stable_hash(int(value)) == int(value) & 0x7FFFFFFF
        # Other finite values hash their scaled product.
        for value in (3.14, -2.5, 1e-300):
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


class TestEqualValuesShareABucket:
    """``1 == 1.0 == True``, so a shuffle must not separate them."""

    @staticmethod
    def db_with(fragments_a: int, fragments_b: int) -> PrismaDB:
        db = PrismaDB(MachineConfig(n_nodes=16, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE a (id INT PRIMARY KEY, i INT)"
            f" FRAGMENTED BY HASH(id) INTO {fragments_a}"
        )
        db.execute(
            "CREATE TABLE b (id INT PRIMARY KEY, f FLOAT)"
            f" FRAGMENTED BY HASH(id) INTO {fragments_b}"
        )
        db.bulk_load("a", [(k, k % 50) for k in range(1000)])
        db.bulk_load("b", [(k, float(k % 50)) for k in range(1000)])
        return db

    @pytest.mark.parametrize("fragments", [1, 2, 3, 4, 5, 6, 32])
    def test_int_float_equi_join_keeps_every_pair(self, fragments):
        db = self.db_with(fragments, fragments)
        rows = db.execute("SELECT COUNT(*) FROM a JOIN b ON a.i = b.f").rows
        assert rows == [(20 * 20 * 50,)]

    def test_int_float_union_removes_equal_values(self):
        db = self.db_with(1, 4)
        rows = db.execute(
            "SELECT i FROM a WHERE i < 5 UNION SELECT f FROM b WHERE f < 5"
        ).rows
        assert sorted(rows) == [(0,), (1,), (2,), (3,), (4,)]

    def test_group_by_merges_int_float_and_bool(self):
        db = PrismaDB(MachineConfig(n_nodes=16, disk_nodes=(0,)))
        db.execute(
            "CREATE TABLE g (id INT PRIMARY KEY, v ANY) FRAGMENTED BY HASH(id) INTO 3"
        )
        db.bulk_load("g", [(k, [1, 1.0, True, 2, 2.0][k % 5]) for k in range(30)])
        rows = db.execute("SELECT v, COUNT(*) FROM g GROUP BY v").rows
        assert sorted(rows) == [(1, 18), (2, 12)]


class ShuffleHarness:
    def __init__(self, n_procs: int = 4):
        config = MachineConfig(n_nodes=max(8, n_procs + 1), disk_nodes=(0,))
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

    def test_one_target_gathers_every_part(self):
        harness = ShuffleHarness(4)
        ex = harness.executor
        harness.dispatch_all()
        parts = [
            Part(p, [(i, j) for j in range(3 + i)]) for i, p in enumerate(harness.procs)
        ]
        relation = DistRelation(parts, None)
        expected = relation.all_rows()
        messages = harness.runtime.stats.messages
        shuffled = ex.repartition(relation, (0,), targets=[harness.procs[0]])
        assert [p.process for p in shuffled.parts] == [harness.procs[0]]
        assert shuffled.parts[0].rows == expected
        assert harness.runtime.stats.messages - messages == 3  # one per remote part

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


# ---------------------------------------------------------------------------
# The distributed closure's exchange: rows against the single-site
# operator, and its messages, bytes and per-PE busy time pinned.  The
# benchmark only runs all-int closures over 8 fragments, so this covers
# one site (the gather), non-int values and bucket counts that are not
# powers of two.
# ---------------------------------------------------------------------------

#: Ints, non-integral floats, strings, NULL sources and targets, a
#: duplicate edge and self-loops.
MIXED_EDGES = [
    (1, 2), (2, 3), (3, 1), (3, "x"), ("x", "y"), ("y", 2.5), (2.5, 4),
    (4, 4), ("y", "y"), (None, 1), (4, None), (1, 2), (2.5, "x"),
    (-7, 1), (2**40, -7), ("ü", 2**40), (0.5, "ü"), (5, 0.5),
]
#: All-int edges, the only kind the benchmark runs.
INT_EDGES = [(i % 13, (i * 5 + 3) % 13) for i in range(30)] + [(-4, 2**33), (2**33, 0)]


def _closure_run(edges: list, n_sites: int):
    harness = ShuffleHarness(n_sites)
    relation = DistRelation(
        [Part(p, edges[i::n_sites]) for i, p in enumerate(harness.procs)], None
    )
    # The loop itself, not the ClosureNode step: that step would hand a
    # one-part input to the one-site operator.
    harness.executor.shared[CLOSURE] = relation
    (result,), _rounds = closure_loop()(harness.executor)
    busy = [node.stats.busy_time_s for node in harness.runtime.machine.nodes]
    stats = harness.runtime.stats
    return result.all_rows(), (stats.messages, stats.bytes_moved, busy)


#: (edges, sites) -> (messages, bytes moved, every PE's busy seconds).
CLOSURE_PINS = {
    ("mixed", 1): (
        1,
        512,
        [
            0.00102, 0.009309000000000001, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0,
        ],
    ),
    ("mixed", 3): (
        102,
        4527,
        [
            0.0010600000000000002, 0.005058000000000001, 0.006607999999999999,
            0.006403000000000001, 0.0, 0.0,
            0.0, 0.0,
        ],
    ),
    ("mixed", 4): (
        137,
        5708,
        [
            0.0010800000000000002, 0.006576000000000002, 0.004233000000000004,
            0.005035000000000006, 0.0046050000000000015, 0.0,
            0.0, 0.0,
        ],
    ),
    ("mixed", 8): (
        206,
        9005,
        [
            0.0011600000000000004, 0.0030910000000000043, 0.003833000000000003,
            0.004915000000000005, 0.0031570000000000044, 0.005385000000000004,
            0.0019000000000000024, 0.001720000000000002, 0.0031280000000000045,
        ],
    ),
    ("ints", 1): (
        1,
        512,
        [
            0.00102, 0.007898000000000002, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0,
        ],
    ),
    ("ints", 3): (
        54,
        3720,
        [
            0.0010600000000000002, 0.005485000000000002, 0.004244000000000001,
            0.004839000000000003, 0.0, 0.0,
            0.0, 0.0,
        ],
    ),
    ("ints", 4): (
        83,
        4792,
        [
            0.0010800000000000002, 0.004612000000000002, 0.003774000000000003,
            0.004221000000000002, 0.004101000000000002, 0.0,
            0.0, 0.0,
        ],
    ),
    ("ints", 8): (
        140,
        7936,
        [
            0.0011600000000000004, 0.003173000000000002, 0.0026460000000000025,
            0.0034390000000000037, 0.0032990000000000033, 0.0030990000000000037,
            0.0024680000000000027, 0.0024020000000000027, 0.0023820000000000026,
        ],
    ),
}


class TestClosureExchangePinned:
    @pytest.mark.parametrize("n_sites", [1, 3, 4, 8])
    @pytest.mark.parametrize("name", ["mixed", "ints"])
    def test_rows_and_charges(self, name, n_sites):
        edges = MIXED_EDGES if name == "mixed" else INT_EDGES
        rows, charges = _closure_run(edges, n_sites)
        expected = seminaive_closure(edges, WorkMeter()).rows
        assert len(rows) == len(expected)
        assert set(rows) == set(expected)
        assert charges == CLOSURE_PINS[name, n_sites]
