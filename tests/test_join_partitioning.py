"""A join's answer does not depend on how its inputs are fragmented.

The executor pairs two tables' fragments by index (the co-partitioned
join) only when each table's scheme routes rows exactly as the shuffle
hash does: a fresh hash map (``FragmentationScheme.shuffle_key``).  A
range table, or a hash table the rebalancer has split, shares the key
column but not the routing, so the join must repartition.  Each table
here is 300 rows ``(i, i)``, above ``BROADCAST_ROWS``, so neither side
is broadcast.
"""

from repro import MachineConfig, PrismaDB

ROWS = [(i, i) for i in range(300)]


def two_tables(a_fragmentation: str, b_fragmentation: str) -> PrismaDB:
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0,)))
    db.execute(f"CREATE TABLE a (k INT, v INT) FRAGMENTED BY {a_fragmentation}")
    db.execute(f"CREATE TABLE b (k INT, v INT) FRAGMENTED BY {b_fragmentation}")
    db.bulk_load("a", ROWS)
    db.bulk_load("b", ROWS)
    return db


def test_range_joins_hash_on_the_key():
    db = two_tables("RANGE(k) VALUES (150)", "HASH(k) INTO 2")
    assert db.query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k") == [(300,)]


def test_range_left_joins_hash_without_lost_partners():
    db = two_tables("RANGE(k) VALUES (150)", "HASH(k) INTO 2")
    assert db.query(
        "SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS NULL"
    ) == [(0,)]


def test_split_hash_joins_fresh_hash():
    db = two_tables("HASH(k) INTO 2", "HASH(k) INTO 3")
    db.rebalancer.split_fragment("a", 0)
    assert len(db.catalog.table("a").fragments) == 3
    assert db.query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k") == [(300,)]
