"""Online re-fragmentation (ISSUE 10): scheme editing, the three-phase
migrate/split/merge protocol, read failover, the fault
facade, and the shared benchmark CLI builder."""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro import MachineConfig, PrismaDB
from repro.core.fragmentation import (
    FragmentationScheme,
    HashFragmentation,
    stable_hash,
)
from repro.core.gdh import GDH_NODE
from repro.core.rebalance import Rebalancer
from repro.errors import CatalogError, RebalanceError, RecoveryError
from repro.serve import install_serving
from tests.test_stateful_durability import assert_placement_agrees

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def make_db(n_nodes=12, replicas=0, rows=60, topology="mesh"):
    db = PrismaDB(
        MachineConfig(n_nodes=n_nodes, disk_nodes=(0, n_nodes // 2),
                      topology=topology)
    )
    ddl = (
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(id) INTO 3"
    )
    if replicas:
        ddl += f" WITH {replicas} REPLICAS"
    db.execute(ddl)
    db.bulk_load("t", [(i, i * 7) for i in range(rows)])
    db.quiesce()
    return db


def stable_keys(db, copy_name):
    """The ``wal/<name>/...`` and ``snap/<name>`` keys of one copy, on
    every disk."""
    return [
        key
        for element in db.machine.disk_nodes()
        for key in element.disk.keys("wal/") + element.disk.keys("snap/")
        if key.split("/")[1] == copy_name
    ]


def row_multiset(db, table="t"):
    """Every row on every primary copy, with duplicates preserved."""
    rows = []
    for fragment in db.catalog.table(table).fragments:
        ofm = db.gdh.fragment_ofms[fragment.ofm_name]
        rows.extend(tuple(row) for _rid, row in ofm.table.scan())
    return sorted(rows)


# ---------------------------------------------------------------------------
# HashFragmentation's bucket map: the one the rebalancer edits.
# ---------------------------------------------------------------------------


class TestRebalancedScheme:
    def test_registered_and_spec_roundtrip(self):
        scheme = HashFragmentation(0, 3).split(1, 3)
        spec = scheme.to_spec()
        assert spec["kind"] == "hash" and "bucket_map" in spec
        rebuilt = FragmentationScheme.from_spec(spec)
        assert isinstance(rebuilt, HashFragmentation)
        assert rebuilt.bucket_map == scheme.bucket_map
        assert rebuilt.n_fragments == 4

    def test_fresh_map_is_plain_hash(self):
        # A fresh map routes like stable_hash % n, and describes and
        # persists exactly as hash fragmentation always has.
        hashed = HashFragmentation(0, 5)
        for key in range(500):
            assert hashed.fragment_of((key, 0)) == stable_hash(key) % 5
        assert hashed.describe() == "hash(col0) into 5"
        assert hashed.to_spec() == {"kind": "hash", "column": 0, "n_fragments": 5}
        assert hashed.shuffle_key() == (0,)

    def test_edited_map_leaves_the_shuffle(self):
        scheme = HashFragmentation(0, 3).split(0, 3)
        assert scheme.shuffle_key() is None
        assert scheme.key_columns() == (0,)
        # Merging the split back restores the fresh map.
        assert scheme.merge(3, 0).shuffle_key() == (0,)

    def test_pruning_matches_routing(self):
        scheme = HashFragmentation(0, 4).split(2, 4)
        for key in range(100):
            assert scheme.prunable_fragments(0, key) == [
                scheme.fragment_of((key, 0))
            ]

    def test_split_moves_half_the_buckets(self):
        scheme = HashFragmentation(0, 3)
        after = scheme.split(1, 3)
        old = scheme.fragment_buckets(1)
        assert sorted(after.fragment_buckets(1) + after.fragment_buckets(3)) == old
        assert after.fragment_buckets(3) == old[1::2]
        # Untouched fragments route identically.
        assert after.fragment_buckets(0) == scheme.fragment_buckets(0)

    def test_merge_rehomes_every_bucket(self):
        scheme = HashFragmentation(0, 3)
        after = scheme.merge(2, 0)
        assert after.fragment_buckets(2) == []
        assert after.n_fragments == 2

    def test_editing_errors(self):
        with pytest.raises(CatalogError):
            HashFragmentation(0, 0)
        with pytest.raises(CatalogError):
            HashFragmentation(0, 3, (0, 1))  # the map routes to 2
        single = HashFragmentation(0, 2, (0, 1))
        with pytest.raises(RebalanceError):
            single.split(0, 2)  # one bucket cannot split
        with pytest.raises(RebalanceError):
            single.merge(0, 0)
        with pytest.raises(RebalanceError):
            single.merge(5, 0)  # owns no buckets


# ---------------------------------------------------------------------------
# The three-phase protocol: migrate / split / merge.
# ---------------------------------------------------------------------------


class TestMigrate:
    def test_migrate_preserves_rows_and_flips_catalog(self):
        db = make_db()
        before = row_multiset(db)
        fragment = db.catalog.table("t").fragments[0]
        old_node, old_name = fragment.node_id, fragment.ofm_name
        action = db.rebalancer.migrate_fragment("t", 0)
        assert action is not None and action[0] == "migrate"
        assert fragment.node_id != old_node
        assert old_name not in db.gdh.fragment_ofms
        assert fragment.ofm_name in db.gdh.fragment_ofms
        assert row_multiset(db) == before
        assert sorted(db.query("SELECT id FROM t WHERE id < 5")) == [
            (i,) for i in range(5)
        ]

    def test_migrate_bumps_ddl_epoch(self):
        db = make_db()
        epoch = db.gdh.ddl_epoch
        db.rebalancer.migrate_fragment("t", 0)
        assert db.gdh.ddl_epoch == epoch + 1

    def test_migrate_invalidates_plan_cache(self):
        db = make_db()
        install_serving(db)
        cursor = db.connect().cursor()
        cursor.execute("SELECT v FROM t WHERE id = ?", (1,))
        cursor.execute("SELECT v FROM t WHERE id = ?", (2,))
        assert len(db.gdh.plan_cache) > 0
        db.rebalancer.migrate_fragment("t", 0)
        assert len(db.gdh.plan_cache) == 0
        # A cached plan pruned to the old placement must not resurface.
        cursor.execute("SELECT v FROM t WHERE id = ?", (1,))
        assert cursor.fetchall() == [(7,)]

    def test_placement_changes_invalidate_template_entries(self):
        # One template entry serves every key, so a stale one would
        # misroute all of them: each kind of flip must drop it, and the
        # re-prepared template must find every row at its new home.
        db = make_db()
        cursor = db.connect().cursor()
        cache = db.gdh.plan_cache
        read = "SELECT v FROM t WHERE id = ?"
        write = "UPDATE t SET v = v + ? WHERE id = ?"

        def exercise(bump):
            for key in range(60):
                cursor.execute(write, (bump, key))
                assert cursor.rowcount == 1
            for key in range(60):
                assert cursor.execute(read, (key,)).fetchall() == [
                    (key * 7 + exercise.total + bump,)
                ]
            exercise.total += bump
            assert len(cache) == 2

        exercise.total = 0
        exercise(1)
        for flip in (
            lambda: db.rebalancer.migrate_fragment("t", 0),
            lambda: db.rebalancer.split_fragment("t", 0),
            lambda: db.rebalancer.merge_fragments("t", 1, 2),
        ):
            epoch, invalidations = db.gdh.ddl_epoch, cache.invalidations
            flip()
            assert db.gdh.ddl_epoch > epoch
            assert cache.invalidations > invalidations and len(cache) == 0
            exercise(1)

    def test_migrate_rejects_occupied_target(self):
        db = make_db(replicas=2)
        fragment = db.catalog.table("t").fragments[0]
        replica_node = fragment.replicas[0][0]
        with pytest.raises(RebalanceError):
            db.rebalancer.migrate_fragment("t", 0, target_node=replica_node)

    def test_migrate_survives_crash_and_restart(self):
        db = make_db()
        before = row_multiset(db)
        db.rebalancer.migrate_fragment("t", 0)
        db.crash()
        db.restart()
        assert row_multiset(db) == before

    def test_failover_mid_outage_migrates_off_dead_element(self):
        """Crash the primary's element, then migrate the lost copy away,
        fed by the surviving replica: zero rows lost or duplicated."""
        db = make_db(replicas=2)
        expected = sorted(db.query("SELECT id, v FROM t"))
        fragment = db.catalog.table("t").fragments[0]
        victim, lost_copy = fragment.node_id, fragment.ofm_name
        assert stable_keys(db, lost_copy)
        db.crash_element(victim)
        action = db.rebalancer.migrate_fragment("t", 0)
        assert action is not None
        assert fragment.node_id != victim
        new_primary = db.gdh.fragment_ofms[fragment.ofm_name]
        assert new_primary.alive and new_primary.node_id == fragment.node_id
        assert sorted(db.query("SELECT id, v FROM t")) == expected
        # The lost copy is retired although no process was left to do
        # it: nothing of it on any disk, nothing for restart to replay.
        assert stable_keys(db, lost_copy) == []
        assert_placement_agrees(db)
        db.restart_element(victim)
        db.crash()
        db.restart()
        assert_placement_agrees(db)
        assert sorted(db.query("SELECT id, v FROM t")) == expected


class TestSplit:
    def test_split_adds_fragment_and_preserves_rows(self):
        db = make_db()
        before = row_multiset(db)
        action = db.rebalancer.split_fragment("t", 0)
        assert action[0] == "split"
        info = db.catalog.table("t")
        assert len(info.fragments) == 4
        assert row_multiset(db) == before
        # Every row now lives where the edited scheme routes it.
        for fragment in info.fragments:
            ofm = db.gdh.fragment_ofms[fragment.ofm_name]
            for _rid, row in ofm.table.scan():
                assert info.scheme.fragment_of(row) == fragment.fragment_id

    def test_split_keeps_point_query_pruning(self):
        db = make_db()
        db.rebalancer.split_fragment("t", 1)
        for key in (0, 7, 23, 59):
            assert db.query(f"SELECT v FROM t WHERE id = {key}") == [(key * 7,)]

    def test_split_replicated_fragment_places_replicas(self):
        db = make_db(replicas=2)
        db.rebalancer.split_fragment("t", 0)
        new_fragment = db.catalog.table("t").fragments[-1]
        nodes = [node for node, _name in new_fragment.all_copies()]
        assert len(new_fragment.all_copies()) == 2
        assert len(set(nodes)) == 2


class TestMerge:
    def test_merge_folds_rows_and_retires_fragment(self):
        db = make_db()
        before = row_multiset(db)
        action = db.rebalancer.merge_fragments("t", 1, 2)
        assert action[0] == "merge" and action[4] > 0
        info = db.catalog.table("t")
        assert sorted(f.fragment_id for f in info.fragments) == [0, 2]
        assert row_multiset(db) == before

    def test_merge_leaves_gapped_ids_queryable(self):
        db = make_db()
        db.rebalancer.merge_fragments("t", 1, 0)
        for key in (0, 13, 37, 59):
            assert db.query(f"SELECT v FROM t WHERE id = {key}") == [(key * 7,)]
        db.execute("INSERT INTO t VALUES (1000, -1)")
        assert db.query("SELECT v FROM t WHERE id = 1000") == [(-1,)]

    def test_merge_keeps_replica_copies_identical(self):
        db = make_db(replicas=2)
        db.rebalancer.merge_fragments("t", 2, 1)
        dest = db.catalog.table("t").fragment(1)
        scans = [
            sorted(db.gdh.fragment_ofms[name].table.scan())
            for _node, name in dest.all_copies()
        ]
        assert scans[0] == scans[1]

    def test_merge_retires_a_dead_source_copy(self):
        """One copy of the source fragment died with its element: the
        merge reads the survivor and still wipes both copies' stable
        storage, so the restarted element brings nothing back."""
        db = make_db(replicas=2)
        expected = sorted(db.query("SELECT id, v FROM t"))
        source = db.catalog.table("t").fragment(2)
        retired = [name for _node, name in source.all_copies()]
        assert all(stable_keys(db, name) for name in retired)
        victim = source.replicas[0][0]
        db.crash_element(victim)
        db.rebalancer.merge_fragments("t", 2, 1)
        assert [stable_keys(db, name) for name in retired] == [[], []]
        assert_placement_agrees(db)
        db.restart_element(victim)
        db.crash()
        db.restart()
        assert_placement_agrees(db)
        assert sorted(db.query("SELECT id, v FROM t")) == expected


class TestControlLoop:
    def test_step_splits_the_hot_fragment(self):
        db = make_db(rows=120)
        info = db.catalog.table("t")
        hot = info.fragments[0].fragment_id
        tracker = db.gdh.executor.access
        for fragment in info.fragments:
            weight = 200 if fragment.fragment_id == hot else 10
            tracker.record("t", fragment.fragment_id, weight)
        actions = db.rebalancer.step("t")
        assert actions and actions[0][0] == "split" and actions[0][2] == hot

    def test_step_ignores_quiet_windows(self):
        db = make_db()
        db.gdh.executor.access.record("t", 0, 3)
        assert db.rebalancer.step("t") == []

    def test_step_forgets_the_heat_of_retired_fragments(self):
        """The tracker keeps counting by (table, fragment id); a round
        considers only fragments the dictionary still lists."""
        db = make_db(rows=120)
        db.gdh.executor.access.record("t", 2, 500)
        db.rebalancer.merge_fragments("t", 2, 0)
        assert db.rebalancer.step("t") == []  # fragment 2 is history
        # The same for a dropped table's heat under a re-used name.
        db.gdh.executor.access.record("t", 2, 500)
        db.execute("DROP TABLE t")
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(id) INTO 2"
        )
        assert db.rebalancer.step("t") == []

    def test_report_fingerprint_is_deterministic(self):
        def run():
            db = make_db()
            rebalancer = Rebalancer(db.gdh)
            rebalancer.split_fragment("t", 0)
            rebalancer.migrate_fragment("t", 1)
            return rebalancer.report.fingerprint()

        assert run() == run()


# ---------------------------------------------------------------------------
# Which copy a read uses.
# ---------------------------------------------------------------------------


def _copies_read(db, info):
    """The copy a full scan of *info* from element 0 reads, per fragment."""
    executor = db.gdh.executor
    return [executor._copy_to_read(info, fragment, 0) for fragment in info.fragments]


class TestNearestRouting:
    def test_reads_skip_dead_copies(self):
        db = make_db(n_nodes=16, replicas=2)
        expected = sorted(db.query("SELECT id, v FROM t"))
        victim = db.catalog.table("t").fragments[0].node_id
        db.crash_element(victim)
        assert sorted(db.query("SELECT id, v FROM t")) == expected
        info = db.catalog.table("t")
        picked = _copies_read(db, info)
        ofms = db.gdh.fragment_ofms
        for fragment, choice in zip(info.fragments, picked):
            live = [ofms[name] for _node, name in fragment.all_copies() if name in ofms]
            assert choice is min(live, key=lambda c: (c.ready_at, c.name))
        assert all(ofm.alive and ofm.node_id != victim for ofm in picked)

    def test_default_policy_is_unchanged(self):
        db = make_db(n_nodes=16, replicas=2)
        info = db.catalog.table("t")
        picked = _copies_read(db, info)
        for fragment, choice in zip(info.fragments, picked):
            live = [
                db.gdh.fragment_ofms[name]
                for _node, name in fragment.all_copies()
            ]
            assert choice is min(live, key=lambda c: (c.ready_at, c.name))


# ---------------------------------------------------------------------------
# The fault facade: db.faults.scope.
# ---------------------------------------------------------------------------


class TestFaultFacade:
    def test_scope_restores_on_exception(self):
        db = make_db(n_nodes=8, topology="ring")
        victim = db.catalog.table("t").fragments[0].node_id
        link = (victim, (victim + 1) % 8)
        with pytest.raises(RuntimeError):
            with db.faults.scope(nodes=[victim], links=[link]):
                assert not db.machine.node_is_up(victim)
                assert db.machine.active_faults() == {
                    "nodes": [victim],
                    "links": [link],
                }
                raise RuntimeError("boom")
        assert db.machine.node_is_up(victim)
        assert db.machine.active_faults() == {"nodes": [], "links": []}
        assert all(ofm.alive for ofm in db.gdh.fragment_ofms.values())
        # Undone in reverse order: the link first, then the element.
        assert [entry[0] for entry in db.faults.injections] == [
            "crash_element", "fail_link", "restore_link", "restore_element",
        ]
        # A fault that fails on entry undoes the ones before it.
        with pytest.raises(RecoveryError):
            with db.faults.scope(nodes=[victim, GDH_NODE]):
                pass
        assert db.machine.active_faults() == {"nodes": [], "links": []}

    def test_scope_leaves_preexisting_faults_alone(self):
        db = make_db(n_nodes=8, topology="ring")
        db.crash_element(2)
        db.faults.fail_link(0, 1)
        with db.faults.scope(nodes=[2, 5], links=[(0, 1), (3, 4)]):
            assert not db.machine.node_is_up(5)
        assert not db.machine.node_is_up(2)  # was down on entry, stays down
        assert db.machine.node_is_up(5)
        assert db.machine.active_faults() == {"nodes": [2], "links": [(0, 1)]}

    def test_injector_scope_crashes_processes_and_logs(self):
        db = make_db(replicas=2)
        victim = db.catalog.table("t").fragments[0].node_id
        expected = sorted(db.query("SELECT id, v FROM t"))
        with db.faults.scope(nodes=[victim]):
            assert not db.machine.node_is_up(victim)
            assert not any(
                process.node_id == victim for process in db.runtime.live_processes()
            )
        assert db.machine.node_is_up(victim)
        entries = [
            entry for entry in db.faults.injections if entry[0] == "crash_element"
        ]
        assert entries, "scope did not land in the injection log"
        # Replicas keep the data readable after the scoped outage.
        assert sorted(db.query("SELECT id, v FROM t")) == expected


# ---------------------------------------------------------------------------
# The shared benchmark CLI builder.
# ---------------------------------------------------------------------------


class TestBuildParser:
    def _harness(self):
        if str(BENCHMARKS) not in sys.path:
            sys.path.insert(0, str(BENCHMARKS))
        import _harness

        return _harness

    def test_requested_flags_only(self):
        build_parser = self._harness().build_parser
        parser = build_parser("x", seed=7, out=pathlib.Path("/tmp/x"))
        args = parser.parse_args([])
        assert args.seed == 7 and args.out == pathlib.Path("/tmp/x")
        assert not hasattr(args, "quick") and not hasattr(args, "n_nodes")

    def test_all_flags(self):
        build_parser = self._harness().build_parser
        parser = build_parser(
            "x", seed=1, out=pathlib.Path("o"), quick_help="q",
            n_nodes=(64, 256),
        )
        args = parser.parse_args(
            ["--seed", "9", "--quick", "--n-nodes", "64"]
        )
        assert args.seed == 9 and args.quick and args.n_nodes == [64]
        assert parser.parse_args([]).n_nodes == [64, 256]
