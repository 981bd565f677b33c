"""Fault injection: crash points, element/link failures, recovery.

The crash matrix is the heart of this suite: every named crash point of
the commit/abort protocol, on the 1PC path, the multi-participant 2PC
path, and the abort path, asserting the crash-consistency contract —

* no transaction the protocol made durable is ever lost,
* no transaction that must abort leaves rows visible after recovery,
* the number of in-doubt participants at the instant of the crash is
  exactly what the protocol state implies,

and that two same-seed runs produce bit-identical fault/recovery
fingerprints (the determinism contract the CI gate enforces).
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.errors import (
    InjectedCrash,
    LinkDownError,
    PrismaError,
    ProcessCrashed,
    RecoveryError,
    TransactionAborted,
)
from repro.core.faults import (
    ABORT_POINTS,
    ONE_PC_POINTS,
    TWO_PC_POINTS,
    CrashPoint,
    FaultInjector,
)

CONFIG = MachineConfig(n_nodes=4, disk_nodes=(0, 2), topology="ring")

#: Crash points after which the transaction MUST survive recovery
#: (something durable already says "commit": the 1PC participant's
#: forced commit record, or every 2PC participant's forced vote).
DURABLE_POINTS = {
    CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_AFTER_PREPARE,
    CrashPoint.TWO_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_MID_PHASE_TWO,
}


def make_db(seed: int = 0) -> PrismaDB:
    db = PrismaDB(CONFIG, faults=FaultInjector(seed))
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(k) INTO 3"
    )
    return db


def keys_per_fragment(db: PrismaDB, count: int, start: int = 1000) -> list[int]:
    """Keys hitting *count* distinct fragments (one key each)."""
    scheme = db.catalog.table("t").scheme
    chosen: dict[int, int] = {}
    for key in range(start, start + 5000):
        fragment = scheme.fragment_of((key, 0))
        if fragment not in chosen:
            chosen[fragment] = key
        if len(chosen) == count:
            return [chosen[f] for f in sorted(chosen)]
    raise AssertionError(f"could not find keys for {count} fragments")


def key_in_fragment(db: PrismaDB, fragment_id: int, start: int = 3000) -> int:
    """A fresh key that hashes to *fragment_id*."""
    scheme = db.catalog.table("t").scheme
    for key in range(start, start + 5000):
        if scheme.fragment_of((key, 0)) == fragment_id:
            return key
    raise AssertionError(f"no key found for fragment {fragment_id}")


def table_contents(db: PrismaDB) -> set[tuple]:
    return set(db.query("SELECT k, v FROM t"))


def in_doubt_count(db: PrismaDB) -> int:
    return sum(
        len(ofm.in_doubt_transactions())
        for ofm in db.gdh.fragment_ofms.values()
        if ofm.alive
    )


def run_crash_scenario(
    mode: str, point: CrashPoint, seed: int = 0, checkpoint: bool = False
):
    """Drive one (protocol path, crash point) cell of the matrix, with a
    checkpoint between the halt and the crash when *checkpoint* is set.

    Returns everything a caller wants to assert on or fingerprint:
    (db, survivors expected?, in-doubt count at crash, fingerprints).
    """
    db = make_db(seed)
    session = db.session()
    # A committed baseline row per fragment: recovery must never lose these.
    baseline_keys = keys_per_fragment(db, 3)
    for key in baseline_keys:
        db.execute(f"INSERT INTO t VALUES ({key}, 1)")
    baseline = table_contents(db)

    n_participants = 1 if mode == "1pc" else 3
    victim_keys = keys_per_fragment(db, n_participants, start=3000)
    session.execute("BEGIN")
    for key in victim_keys:
        session.execute(f"INSERT INTO t VALUES ({key}, 2)")
    db.faults.arm(point)
    with pytest.raises(InjectedCrash) as crash_info:
        session.execute("COMMIT")
    assert crash_info.value.point == point.value
    in_doubt = in_doubt_count(db)
    if checkpoint:
        db.checkpoint()

    # The whole machine now goes down and recovers from stable storage.
    crash_report = db.crash()
    recovery_report = db.restart()
    return (
        db,
        baseline,
        set(victim_keys),
        in_doubt,
        crash_report.fingerprint(),
        recovery_report.fingerprint(),
        db.faults.fingerprint(),
    )


MATRIX = (
    [("1pc", point) for point in ONE_PC_POINTS]
    + [("npc", point) for point in TWO_PC_POINTS]
    + [("abort", point) for point in ABORT_POINTS]
    + [("abort-1pc", point) for point in ABORT_POINTS]
)


def expected_in_doubt(mode: str, point: CrashPoint) -> int:
    """Participants left prepared-undecided at the instant of the crash."""
    n = 3 if mode == "npc" else 1
    return {
        CrashPoint.TWO_PC_MID_PREPARE: 1,
        CrashPoint.TWO_PC_AFTER_PREPARE: n,
        CrashPoint.TWO_PC_AFTER_LOG_FORCE: n,
        CrashPoint.TWO_PC_MID_PHASE_TWO: n - 1,
    }.get(point, 0)


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "mode,point", MATRIX, ids=[f"{m}-{p.value}" for m, p in MATRIX]
    )
    def test_crash_consistency(self, mode, point):
        db, baseline, victims, in_doubt, *_ = run_crash_scenario_for(
            mode, point
        )
        after = table_contents(db)
        # 1. No committed row is ever lost.
        assert baseline <= after, "committed baseline rows lost in recovery"
        surviving_victims = {row[0] for row in after} & victims
        if mode.startswith("abort") or point not in DURABLE_POINTS:
            # 2. Nothing of an aborted/undecided-then-aborted txn shows.
            assert not surviving_victims, (
                f"rows of a rolled-back transaction visible after {point.value}"
            )
            assert after == baseline
        else:
            # 3. A durably-decided commit is fully there.
            assert surviving_victims == victims, (
                f"committed rows lost after crash at {point.value}"
            )
        # 4. In-doubt participants at crash time match the protocol state.
        assert in_doubt == expected_in_doubt(
            "npc" if mode == "npc" else "1pc", point
        )

    def test_matrix_is_deterministic(self):
        """Same seed, same driver => bit-identical fingerprints."""
        def sweep():
            prints = []
            for mode, point in MATRIX:
                *_, in_doubt, crash_fp, recovery_fp, faults_fp = (
                    run_crash_scenario_for(mode, point, seed=7)
                )
                prints.append((in_doubt, crash_fp, recovery_fp, faults_fp))
            return prints

        assert sweep() == sweep()


class TestCheckpointDuringHalt:
    """A checkpoint taken while the coordinator is halted changes no
    outcome: each 2PC cell ends as it does without one."""

    @pytest.mark.parametrize("point", TWO_PC_POINTS, ids=[p.value for p in TWO_PC_POINTS])
    def test_cell_ends_as_without_checkpoint(self, point):
        plain, *_ = run_crash_scenario("npc", point)
        checkpointed, baseline, victims, in_doubt, *_ = run_crash_scenario(
            "npc", point, checkpoint=True
        )
        after = table_contents(checkpointed)
        assert after == table_contents(plain)
        assert baseline <= after
        survivors = {row[0] for row in after} & victims
        assert survivors == (victims if point in DURABLE_POINTS else set())
        assert in_doubt == expected_in_doubt("npc", point)


class TestCrashReport:
    def test_machine_crash_reports_in_flight_transactions(self):
        """A transaction halted after its prepare round is in flight at
        the crash, not aborted: restart commits it."""
        db = make_db()
        session = db.session()
        victims = keys_per_fragment(db, 3, start=3000)
        session.execute("BEGIN")
        for key in victims:
            session.execute(f"INSERT INTO t VALUES ({key}, 2)")
        (txn_id,) = db.gdh.txns.active
        db.faults.arm(CrashPoint.TWO_PC_AFTER_PREPARE)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        report = db.crash()
        assert report.in_flight == [txn_id]
        assert report.aborted_transactions == []
        assert report.stats()["in_flight"] == 1
        db.restart()
        assert {row[0] for row in table_contents(db)} == set(victims)


def run_crash_scenario_for(mode: str, point: CrashPoint, seed: int = 0):
    """Matrix cell dispatch: abort cells run with 1 or 3 participants."""
    if mode == "abort":
        return run_abort_scenario(point, participants=3, seed=seed)
    if mode == "abort-1pc":
        return run_abort_scenario(point, participants=1, seed=seed)
    return run_crash_scenario(mode, point, seed=seed)


def run_abort_scenario(point: CrashPoint, participants: int, seed: int = 0):
    db = make_db(seed)
    session = db.session()
    baseline_keys = keys_per_fragment(db, 3)
    for key in baseline_keys:
        db.execute(f"INSERT INTO t VALUES ({key}, 1)")
    baseline = table_contents(db)
    victim_keys = keys_per_fragment(db, participants, start=3000)
    session.execute("BEGIN")
    for key in victim_keys:
        session.execute(f"INSERT INTO t VALUES ({key}, 2)")
    db.faults.arm(point)
    with pytest.raises(InjectedCrash):
        session.execute("ROLLBACK")
    in_doubt = in_doubt_count(db)
    crash_report = db.crash()
    recovery_report = db.restart()
    return (
        db,
        baseline,
        set(victim_keys),
        in_doubt,
        crash_report.fingerprint(),
        recovery_report.fingerprint(),
        db.faults.fingerprint(),
    )


class TestOnePhaseAuthority:
    """Pins the 1PC crash-consistency fix (satellite #1).

    The single participant's forced WAL commit record is authoritative:
    a crash after it — before the coordinator's own log force — must
    still recover the transaction as committed, with the commit log
    repaired from the participant.
    """

    def test_participant_record_wins_and_repairs_log(self):
        db = make_db()
        key = keys_per_fragment(db, 1)[0]
        session = db.session()
        session.execute("BEGIN")
        session.execute(f"INSERT INTO t VALUES ({key}, 42)")
        db.faults.arm(CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        # The coordinator never logged the decision...
        assert db.gdh.commit_log.scan()[0] == {}
        db.crash()
        report = db.restart()
        # ...yet the transaction is committed, and the log was repaired.
        assert (key, 42) in table_contents(db)
        assert report.log_repairs == 1
        assert db.gdh.commit_log.scan()[0] != {}

    def test_commit_record_not_flipped_by_later_abort_record(self):
        """ROLLBACK of an unknown txn never appends an undoing record."""
        db = make_db()
        key = keys_per_fragment(db, 1)[0]
        db.execute(f"INSERT INTO t VALUES ({key}, 1)")
        # Aborting a transaction with no state at this OFM is a no-op at
        # the WAL level; a durably committed txn stays committed.
        ofm = next(iter(db.gdh.fragment_ofms.values()))
        ofm.abort(999999)  # unknown txn: must not write an AbortRecord
        db.crash()
        db.restart()
        assert (key, 1) in table_contents(db)


class TestResolveInDoubt:
    """Surviving-system resolution after a coordinator halt (no crash)."""

    @pytest.mark.parametrize(
        "point,expect_commit",
        [
            (CrashPoint.TWO_PC_MID_PREPARE, False),  # a vote is missing
            (CrashPoint.TWO_PC_AFTER_PREPARE, True),  # the votes decide
            (CrashPoint.TWO_PC_AFTER_LOG_FORCE, True),  # log decides
            (CrashPoint.TWO_PC_MID_PHASE_TWO, True),
            (CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT, True),  # WAL decides
            (CrashPoint.ONE_PC_BEFORE_PARTICIPANT_COMMIT, False),
        ],
        ids=lambda p: p.value if isinstance(p, CrashPoint) else str(p),
    )
    def test_resolution(self, point, expect_commit):
        db = make_db()
        one_pc = point in ONE_PC_POINTS
        keys = keys_per_fragment(db, 1 if one_pc else 3)
        session = db.session()
        session.execute("BEGIN")
        for key in keys:
            session.execute(f"INSERT INTO t VALUES ({key}, 5)")
        db.faults.arm(point)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        # The machine is fine; only the coordinator died mid-protocol.
        result = db.resolve_in_doubt()
        assert result.resolved == 1
        assert result.committed == (1 if expect_commit else 0)
        rows = table_contents(db)
        if expect_commit:
            assert {(key, 5) for key in keys} <= rows
        else:
            assert not ({(key, 5) for key in keys} & rows)
        # Locks were released: the same keys are writable again.
        db.execute(f"INSERT INTO t VALUES ({keys[0] + 5000}, 9)")
        assert in_doubt_count(db) == 0

    def test_resolution_repairs_log_from_participant(self):
        db = make_db()
        key = keys_per_fragment(db, 1)[0]
        session = db.session()
        session.execute("BEGIN")
        session.execute(f"INSERT INTO t VALUES ({key}, 5)")
        db.faults.arm(CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        result = db.resolve_in_doubt()
        assert result.log_repairs == 1
        assert "commit" in db.gdh.commit_log.scan()[0].values()
        assert (key, 5) in table_contents(db)


class TestVotesDecide:
    """A coordinator halted after every vote was forced left a committed
    transaction with no commit-log entry: every place that decides it
    commits it and writes the entry."""

    @staticmethod
    def halt_after_the_votes(db: PrismaDB) -> tuple[list[int], int]:
        keys = keys_per_fragment(db, 3)
        session = db.session()
        session.execute("BEGIN")
        for key in keys:
            session.execute(f"INSERT INTO t VALUES ({key}, 5)")
        (txn_id,) = db.gdh.txns.active
        db.faults.arm(CrashPoint.TWO_PC_AFTER_PREPARE)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        assert db.gdh.commit_log.scan()[0] == {}
        return keys, txn_id

    def test_restart_rebuilds_the_entry_from_the_votes(self):
        db = make_db()
        keys, txn_id = self.halt_after_the_votes(db)
        db.crash()
        report = db.restart()
        assert report.in_doubt_resolved == 3
        assert report.log_repairs == 1
        assert db.gdh.commit_log.scan()[0] == {txn_id: "commit"}
        assert table_contents(db) == {(key, 5) for key in keys}

    def test_element_crash_after_the_votes_commits(self):
        db = make_db()
        keys, txn_id = self.halt_after_the_votes(db)
        # A participant's element without a disk: its vote stays readable.
        info = db.catalog.table("t")
        disks = {element.node_id for element in db.machine.disk_nodes()}
        node = next(
            fragment.node_id for fragment in info.fragments
            if fragment.node_id not in disks
        )
        lost = [
            key for key in keys
            if info.fragments[info.scheme.fragment_of((key, 0))].node_id == node
        ]

        report = db.crash_element(node)

        assert report.aborted_transactions == []
        assert db.gdh.txns.active == {}
        assert db.gdh.commit_log.scan()[0] == {txn_id: "commit"}
        live_rows = {
            row
            for ofm in db.gdh.fragment_ofms.values()
            if ofm.alive
            for row in ofm.table.rows()
        }
        assert live_rows == {(key, 5) for key in keys if key not in lost}
        assert in_doubt_count(db) == 0

        recovery = db.restart_element(node)

        # The dead copy replays its vote against the entry written above.
        assert recovery.in_doubt_resolved == len(lost) > 0
        assert recovery.log_repairs == 0
        assert table_contents(db) == {(key, 5) for key in keys}


class TestParticipantDeathBeforeDecision:
    """A participant dies between the last statement and COMMIT: the
    protocol's own abort path (``_abort_after_failure``), not a crash
    point — the coordinator is alive and must clean up."""

    @pytest.mark.parametrize("mode", ["1pc", "2pc"])
    def test_commit_aborts_and_cleans_up(self, mode):
        db = make_db()
        baseline_keys = keys_per_fragment(db, 3)
        for key in baseline_keys:
            db.execute(f"INSERT INTO t VALUES ({key}, 1)")
        baseline = table_contents(db)
        info = db.catalog.table("t")
        keys = keys_per_fragment(db, 1 if mode == "1pc" else 3, start=3000)
        session = db.session()
        session.execute("BEGIN")
        for key in keys:
            session.execute(f"INSERT INTO t VALUES ({key}, 2)")
        (txn_id,) = db.gdh.txns.active
        # The victim votes second on the 2PC path, so one participant
        # has already prepared when the coordinator finds it dead.
        victim_fragment = info.scheme.fragment_of((keys[-1 if mode == "1pc" else 1], 0))
        (victim,) = db.gdh.fragment_copies(info, victim_fragment)
        db.runtime.kill(victim)

        with pytest.raises(TransactionAborted):
            session.execute("COMMIT")

        assert not session.in_transaction
        assert db.gdh.txns.active == {}
        assert db.gdh.locks.locks_of(txn_id) == []
        assert db.gdh.commit_log.scan()[0][txn_id] == "abort"
        survivors = [ofm for ofm in db.gdh.fragment_ofms.values() if ofm.alive]
        assert len(survivors) == 2
        for ofm in survivors:
            assert not ofm.has_transaction_state(txn_id)
            assert not ofm.in_doubt_transactions()
            assert not {row[0] for row in ofm.table.rows()} & set(keys)
        # The lost copy comes back from its WAL without the aborted rows,
        # and the keys are writable again (no lock leaked).
        db.recovery.restart_fragments([victim.name])
        assert table_contents(db) == baseline
        for key in keys:
            db.execute(f"INSERT INTO t VALUES ({key}, 3)")
        assert table_contents(db) == baseline | {(key, 3) for key in keys}


def make_replicated_db(seed: int = 0) -> PrismaDB:
    db = PrismaDB(CONFIG, faults=FaultInjector(seed))
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(k) INTO 2 WITH 2 REPLICAS"
    )
    return db


def node_of_primary(db: PrismaDB, fragment_id: int = 0) -> int:
    return db.catalog.table("t").fragments[fragment_id].node_id


class TestElementCrash:
    def test_reads_fail_over_to_replica(self):
        db = make_replicated_db()
        for key in range(20):
            db.execute(f"INSERT INTO t VALUES ({key}, {key * 10})")
        before = table_contents(db)
        node = node_of_primary(db)
        report = db.crash_element(node)
        assert report.kind == "element"
        assert report.fragments_lost >= 1
        assert report.processes_killed
        # Every row is still readable through surviving copies.
        assert table_contents(db) == before

    def test_writes_continue_and_replica_catches_up(self):
        db = make_replicated_db()
        for key in range(10):
            db.execute(f"INSERT INTO t VALUES ({key}, 0)")
        node = node_of_primary(db)
        db.crash_element(node)
        # Writes during the outage land on the surviving copies only.
        for key in range(10, 20):
            db.execute(f"INSERT INTO t VALUES ({key}, 1)")
        db.execute("UPDATE t SET v = 7 WHERE k = 3")
        expected = table_contents(db)
        report = db.restart_element(node)
        assert report.fragments_recovered >= 1
        # The returned copies caught up from their live siblings.
        assert report.replica_catchups >= 1
        assert table_contents(db) == expected
        # All copies of every fragment agree row-for-row.
        for info_fragment in db.catalog.table("t").fragments:
            copies = [
                dict(db.gdh.fragment_ofms[name].table.scan())
                for _node, name in info_fragment.all_copies()
            ]
            assert all(copy == copies[0] for copy in copies)

    def test_active_transactions_with_dead_participant_abort(self):
        db = make_replicated_db()
        for key in range(8):
            db.execute(f"INSERT INTO t VALUES ({key}, 0)")
        session = db.session()
        session.execute("BEGIN")
        # Update a key on fragment 0: its primary copy is about to die
        # (writes touch every copy, so the txn has a dead participant).
        key = key_in_fragment(db, 0, start=0)
        session.execute(f"UPDATE t SET v = 99 WHERE k = {key}")
        node = node_of_primary(db)
        report = db.crash_element(node)
        assert report.aborted_transactions
        assert (key, 99) not in table_contents(db)
        # The session's txn is gone; COMMIT now fails cleanly.
        with pytest.raises(PrismaError):
            session.execute("COMMIT")

    def test_write_with_no_live_copy_fails_loudly(self):
        db = make_db()  # no replicas
        keys = keys_per_fragment(db, 3)
        db.execute(f"INSERT INTO t VALUES ({keys[0]}, 1)")
        info = db.catalog.table("t")
        victim_fragment = info.scheme.fragment_of((keys[0], 0))
        node = info.fragments[victim_fragment].node_id
        db.crash_element(node)
        with pytest.raises(PrismaError):
            db.execute(
                f"INSERT INTO t VALUES ({key_in_fragment(db, victim_fragment)}, 2)"
            )
        # Reads of that fragment fail too (no copy anywhere).
        with pytest.raises(PrismaError):
            db.query("SELECT k, v FROM t")

    def test_unreplicated_fragment_recovers_from_wal(self):
        """A lone crashed fragment replays its own WAL on restart."""
        db = make_db()
        keys = keys_per_fragment(db, 3)
        for key in keys:
            db.execute(f"INSERT INTO t VALUES ({key}, 6)")
        before = table_contents(db)
        info = db.catalog.table("t")
        victim_fragment = info.scheme.fragment_of((keys[0], 0))
        node = info.fragments[victim_fragment].node_id
        db.crash_element(node)
        report = db.restart_element(node)
        assert report.fragments_recovered >= 1
        assert report.replica_catchups == 0  # nothing to catch up from
        assert report.commit_log_scan_s > 0  # scan cost is charged
        assert report.duration_s >= report.commit_log_scan_s
        assert table_contents(db) == before

    def test_cannot_crash_supervisor_element(self):
        db = make_db()
        with pytest.raises(RecoveryError):
            db.crash_element(0)

    def test_send_to_dead_process_raises(self):
        db = make_replicated_db()
        db.execute("INSERT INTO t VALUES (1, 1)")
        node = node_of_primary(db)
        victims = [
            ofm
            for ofm in list(db.gdh.fragment_ofms.values())
            if ofm.node_id == node
        ]
        db.crash_element(node)
        assert victims and all(not ofm.alive for ofm in victims)
        with pytest.raises(ProcessCrashed):
            db.runtime.send(db.gdh.gdh_process, victims[0], 64)


class TestLinkFailures:
    def test_traffic_reroutes_around_failed_link(self):
        db = make_replicated_db()
        for key in range(10):
            db.execute(f"INSERT INTO t VALUES ({key}, 2)")
        before = table_contents(db)
        machine = db.machine
        neighbor = machine.topology.neighbors(0)[0]
        db.faults.fail_link(0, neighbor)
        # Ring of 4: the other direction still connects everything.
        assert machine.reachable(0, neighbor)
        assert table_contents(db) == before
        db.faults.restore_link(0, neighbor)

    def test_partition_surfaces_as_error_and_heals(self):
        db = make_db()
        keys = keys_per_fragment(db, 3)
        for key in keys:
            db.execute(f"INSERT INTO t VALUES ({key}, 3)")
        before = table_contents(db)
        machine = db.machine
        # Cut node 2 (a fragment host on the 4-ring) off entirely.
        for neighbor in machine.topology.neighbors(2):
            db.faults.fail_link(2, neighbor)
        assert not machine.reachable(0, 2)
        with pytest.raises((PrismaError, LinkDownError)):
            db.query("SELECT k, v FROM t")
        for neighbor in machine.topology.neighbors(2):
            db.faults.restore_link(2, neighbor)
        assert table_contents(db) == before


class TestFaultScope:
    def test_scope_settles_transactions_and_restarts_copies(self):
        # 8 PEs, HASH INTO 2 WITH 2 REPLICAS, an open UPDATE over every
        # fragment: a scoped element fault is the database's crash and
        # restart, not a routing change under a live participant.
        db = PrismaDB(
            MachineConfig(n_nodes=8, disk_nodes=(0, 4)), faults=FaultInjector(0)
        )
        db.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
            " FRAGMENTED BY HASH(k) INTO 2 WITH 2 REPLICAS"
        )
        db.bulk_load("t", [(key, key) for key in range(40)])
        victim = node_of_primary(db)
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = v + 100")
        (txn_id,) = db.gdh.txns.active
        with db.faults.scope(nodes=[victim]):
            assert txn_id not in db.gdh.txns.active
        with pytest.raises(TransactionAborted):
            db.execute("COMMIT")
        ofms = db.gdh.fragment_ofms
        for fragment in db.catalog.table("t").fragments:
            copies = [ofms[name] for _node, name in fragment.all_copies()]
            assert all(ofm.alive for ofm in copies)
            rows = [sorted(ofm.table.rows()) for ofm in copies]
            assert rows == [rows[0]] * len(rows)
        assert table_contents(db) == {(key, key) for key in range(40)}
        logged = [entry[:2] for entry in db.faults.injections]
        assert logged == [
            ("crash_element", str(victim)),
            ("restore_element", str(victim)),
        ]


class TestDeterminism:
    def test_same_seed_same_fingerprints(self):
        def run(seed):
            db = make_replicated_db(seed)
            for key in range(12):
                db.execute(f"INSERT INTO t VALUES ({key}, {key})")
            node = node_of_primary(db)
            crash = db.crash_element(node)
            db.execute("INSERT INTO t VALUES (100, 100)")
            recovery = db.restart_element(node)
            return (
                crash.fingerprint(),
                recovery.fingerprint(),
                db.faults.fingerprint(),
                sorted(table_contents(db)),
            )

        assert run(11) == run(11)

    def test_fingerprint_sensitive_to_injections(self):
        db = make_replicated_db()
        clean = db.faults.fingerprint()
        db.crash_element(node_of_primary(db))
        assert db.faults.fingerprint() != clean
