"""The acknowledged commit path: a commit waits for the forces its
protocol needs and for nothing else (presumed abort).

A session's COMMIT returns when its coordinator process finishes, so the
session clock's advance over a COMMIT is the commit's acknowledged
latency.  These tests rebuild that latency from the cost models —
:meth:`Disk.access_cost` for every force, :meth:`Machine.transfer_time`
plus the runtime's send/receive overheads for every control message —
and check it exactly:

* 1PC: the participant's WAL force;
* 2PC: the slowest participant's prepare force (each round fans out:
  every request leaves before the first reply is read) — the durable
  votes decide, so no decision force follows;
* ROLLBACK: no force at all.

The writes the protocol does not wait for (every coordinator log entry,
a prepared participant's commit record, every abort record) still land,
and a crash that beats them to disk is repaired by restart.
"""

import pytest

from repro import MachineConfig, PrismaDB, Tracer
from repro.core.twophase import CONTROL_MESSAGE_BYTES
from repro.core.faults import CrashPoint
from repro.errors import InjectedCrash, TransactionAborted
from repro.ofm.wal import AbortRecord, CommitRecord, PrepareRecord
from repro.pool.runtime import RECEIVE_OVERHEAD_S, SEND_OVERHEAD_S

CONFIG = MachineConfig(n_nodes=4, disk_nodes=(0, 2), topology="ring")


def make_db(replicas: int = 1) -> PrismaDB:
    db = PrismaDB(CONFIG, tracer=Tracer())
    with_replicas = f" WITH {replicas} REPLICAS" if replicas > 1 else ""
    db.execute(
        "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)"
        f" FRAGMENTED BY HASH(id) INTO 3{with_replicas}"
    )
    return db


def keys_on_fragments(db: PrismaDB, count: int) -> list[int]:
    """One key on each of *count* distinct fragments, in fragment order."""
    scheme = db.catalog.table("acct").scheme
    chosen: dict[int, int] = {}
    for key in range(1000):
        chosen.setdefault(scheme.fragment_of((key, 0)), key)
        if len(chosen) == count:
            return [chosen[fragment] for fragment in sorted(chosen)]
    raise AssertionError(f"no keys for {count} fragments")


def participant(db: PrismaDB, key: int):
    info = db.catalog.table("acct")
    return db.gdh.fragment_copies(info, info.scheme.fragment_of((key, 0)))[0]


def chunks(ofm) -> set[str]:
    return set(ofm.wal.disk.keys(f"wal/{ofm.name}/"))


def force_cost(db: PrismaDB, ofm, new_chunks: set[str]) -> float:
    """What the force that wrote the one chunk in *new_chunks* cost."""
    (key,) = new_chunks
    n_bytes = ofm.wal.disk.size_of(key)
    return db.machine.transfer_time(
        ofm.node_id, ofm.wal.disk.node, n_bytes
    ) + ofm.wal.disk.access_cost(n_bytes, sequential=True)


def round_trip(db: PrismaDB, a: int, b: int) -> float:
    """One control message from element *a* to *b* and its reply."""
    return (
        2 * (SEND_OVERHEAD_S + RECEIVE_OVERHEAD_S)
        + db.machine.transfer_time(a, b, CONTROL_MESSAGE_BYTES)
        + db.machine.transfer_time(b, a, CONTROL_MESSAGE_BYTES)
    )


def fanned_out(db: PrismaDB, node: int, ofms, work: list[float]) -> float:
    """One fanned-out round at the coordinator on element *node*.

    Participant *i* does *work[i]* after its round trip; its request
    left behind *i* earlier sends, and its reply is read before the
    replies of the later ones.  So the round costs its slowest
    participant plus the overheads the fan-out staggers, not the sum.
    """
    last = len(ofms) - 1
    return max(
        round_trip(db, node, ofm.node_id)
        + cost
        + i * SEND_OVERHEAD_S
        + (last - i) * RECEIVE_OVERHEAD_S
        for i, (ofm, cost) in enumerate(zip(ofms, work))
    )


def coordinator_node(db: PrismaDB, kind: str) -> int:
    """The element the last ``kind`` protocol span ran on."""
    return [record for record in db.tracer.events if record[2] == kind][-1][4]


def open_transaction(db: PrismaDB, keys: list[int], value: int = 1):
    """A session with one uncommitted insert per key; its participants
    are idle when it returns, so the commit's messages never queue."""
    session = db.session()
    session.execute("BEGIN")
    for key in keys:
        session.execute(f"INSERT INTO acct VALUES ({key}, {value})")
    ofms = [participant(db, key) for key in keys]
    assert all(ofm.ready_at <= session.clock for ofm in ofms)
    return session, ofms


class TestAcknowledgedLatency:
    def test_one_phase_commit_waits_for_the_participant_force_only(self):
        db = make_db()
        (key,) = keys_on_fragments(db, 1)
        session, (ofm,) = open_transaction(db, [key])
        before_chunks, before = chunks(ofm), session.clock
        (txn_id,) = db.gdh.txns.active

        session.execute("COMMIT")

        node = coordinator_node(db, "2pc.one_phase")
        expected = (
            db.machine.config.cpu_start_cost_s  # the coordinator's creation
            + round_trip(db, node, ofm.node_id)
            + force_cost(db, ofm, chunks(ofm) - before_chunks)
        )
        assert session.clock - before == pytest.approx(expected, rel=1e-12)
        # The coordinator's own entry is written, just not waited for.
        assert f"gdhlog/{txn_id}" in db.gdh.commit_log.disk
        assert db.gdh.commit_log.scan()[0] == {txn_id: "commit"}

    def test_two_phase_commit_waits_for_its_slowest_prepare(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        before_chunks = {ofm.name: chunks(ofm) for ofm in ofms}
        before = session.clock
        (txn_id,) = db.gdh.txns.active

        session.execute("COMMIT")

        node = coordinator_node(db, "2pc.prepare")
        prepares = [
            force_cost(db, ofm, chunks(ofm) - before_chunks[ofm.name])
            for ofm in ofms
        ]
        expected = (
            db.machine.config.cpu_start_cost_s
            + fanned_out(db, node, ofms, prepares)
            + fanned_out(db, node, ofms, [0.0] * len(ofms))
        )
        assert session.clock - before == pytest.approx(expected, rel=1e-12)
        # The decision is written, just not waited for; each vote names
        # every participant.
        assert db.gdh.commit_log.scan()[0] == {txn_id: "commit"}
        names = tuple(ofm.name for ofm in ofms)
        for ofm in ofms:
            assert PrepareRecord(txn_id, names) in ofm.wal.read_records()[0]

    def test_rollback_waits_for_no_force(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        before_chunks = {ofm.name: chunks(ofm) for ofm in ofms}
        before = session.clock
        (txn_id,) = db.gdh.txns.active

        session.execute("ROLLBACK")

        node = coordinator_node(db, "2pc.abort")
        undo = db.machine.cpu_time(tuples=1)  # each participant's one insert
        expected = db.machine.config.cpu_start_cost_s + fanned_out(
            db, node, ofms, [undo] * len(ofms)
        )
        assert session.clock - before == pytest.approx(expected, rel=1e-12)
        assert all(chunks(ofm) == before_chunks[ofm.name] for ofm in ofms)
        assert db.gdh.commit_log.scan()[0] == {txn_id: "abort"}


class TestFannedOutRounds:
    @staticmethod
    def commit_latency(n_fragments: int) -> tuple[float, float]:
        """A 2PC commit over *n_fragments* participants on distinct
        elements: its acknowledged latency and its cheapest prepare
        force."""
        db = PrismaDB(
            MachineConfig(n_nodes=8, disk_nodes=(0, 4), topology="ring"),
            tracer=Tracer(),
        )
        db.execute(
            "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)"
            " FRAGMENTED BY HASH(id) INTO 4"
        )
        keys = keys_on_fragments(db, n_fragments)
        session, ofms = open_transaction(db, keys)
        assert len({ofm.node_id for ofm in ofms}) == n_fragments
        before_chunks = {ofm.name: chunks(ofm) for ofm in ofms}
        before = session.clock
        (txn_id,) = db.gdh.txns.active

        session.execute("COMMIT")

        latency = session.clock - before
        node = coordinator_node(db, "2pc.prepare")
        prepares = [
            force_cost(db, ofm, chunks(ofm) - before_chunks[ofm.name])
            for ofm in ofms
        ]
        expected = (
            db.machine.config.cpu_start_cost_s
            + fanned_out(db, node, ofms, prepares)
            + fanned_out(db, node, ofms, [0.0] * len(ofms))
        )
        assert latency == pytest.approx(expected, rel=1e-12)
        assert db.gdh.commit_log.scan()[0] == {txn_id: "commit"}
        return latency, min(prepares)

    def test_each_added_participant_costs_messages_not_a_force(self):
        latencies, forces = zip(*(self.commit_latency(n) for n in (2, 3, 4)))
        for fewer, more in zip(latencies, latencies[1:]):
            assert 0 < more - fewer < min(forces) / 10

    def test_crash_mid_prepare_leaves_one_durable_prepare_and_aborts(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        (txn_id,) = db.gdh.txns.active
        db.faults.arm(CrashPoint.TWO_PC_MID_PREPARE)
        with pytest.raises(InjectedCrash):
            session.execute("COMMIT")
        names = tuple(ofm.name for ofm in ofms)
        durable = [
            ofm.name
            for ofm in ofms
            if PrepareRecord(txn_id, names) in ofm.wal.read_records()[0]
        ]
        assert durable == [ofms[0].name]

        db.crash()
        report = db.restart()

        # Two named participants hold no vote: the prepared one aborts.
        assert report.in_doubt_resolved == 1
        assert report.log_repairs == 0
        assert db.gdh.commit_log.scan()[0] == {txn_id: "abort"}
        assert db.query("SELECT id FROM acct") == []

    def test_a_participant_cut_off_from_its_disk_aborts_the_commit(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        disk = ofms[0].wal.disk.node
        links = [(disk, neighbor) for neighbor in db.machine.topology.neighbors(disk)]
        for link in links:
            db.faults.fail_link(*link)
        # Its prepare force fails on the machine: no vote, so abort.
        with pytest.raises(TransactionAborted):
            session.execute("COMMIT")
        for link in links:
            db.faults.restore_link(*link)
        assert db.query("SELECT id FROM acct") == []

    def test_a_failed_prepare_never_becomes_a_durable_vote(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        (first,) = db.gdh.txns.active
        disk = ofms[0].wal.disk.node
        links = [(disk, neighbor) for neighbor in db.machine.topology.neighbors(disk)]
        for link in links:
            db.faults.fail_link(*link)
        with pytest.raises(TransactionAborted):
            session.execute("COMMIT")
        for link in links:
            db.faults.restore_link(*link)
        # The cut-off OFM forces again, for a 1PC commit on the same
        # key: the first transaction's records died with the failed
        # force, and only its lazy abort record rides this one.
        session.execute(f"INSERT INTO acct VALUES ({keys[0]}, 2)")
        cut_off = ofms[0]
        assert [
            type(record) for record in cut_off.wal.read_records()[0]
            if record.txn_id == first
        ] == [AbortRecord]
        # Another participant's vote is durable and its abort record is
        # not; drop the coordinator's lazy abort entry, so only the
        # votes decide at restart.
        names = tuple(ofm.name for ofm in ofms)
        voters = [
            ofm for ofm in ofms
            if PrepareRecord(first, names) in ofm.wal.read_records()[0]
        ]
        assert voters and cut_off not in voters
        db.gdh.commit_log.disk.delete(f"gdhlog/{first}")

        db.crash()
        report = db.restart()

        assert report.in_doubt_resolved == len(voters)
        assert report.log_repairs == 0
        assert db.gdh.commit_log.scan()[0][first] == "abort"
        assert db.query("SELECT id, bal FROM acct") == [(keys[0], 2)]


class TestLazyRecordsLand:
    def test_participant_commit_record_rides_the_next_force(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, ofms = open_transaction(db, keys)
        (txn_id,) = db.gdh.txns.active
        session.execute("COMMIT")
        first = ofms[0]
        durable = first.wal.read_records()[0]
        assert PrepareRecord(txn_id, tuple(ofm.name for ofm in ofms)) in durable
        assert CommitRecord(txn_id) not in durable

        # A later 1PC commit on the same fragment forces its WAL.
        scheme = db.catalog.table("acct").scheme
        other = next(
            key for key in range(1000, 2000)
            if scheme.fragment_of((key, 0)) == scheme.fragment_of((keys[0], 0))
        )
        db.execute(f"INSERT INTO acct VALUES ({other}, 2)")
        assert CommitRecord(txn_id) in first.wal.read_records()[0]

    def test_checkpoint_makes_the_commit_record_durable(self):
        db = make_db()
        keys = keys_on_fragments(db, 3)
        session, _ofms = open_transaction(db, keys, value=7)
        session.execute("COMMIT")
        db.checkpoint()
        db.crash()
        report = db.restart()
        # The snapshot holds the rows: nothing is left in doubt.
        assert report.in_doubt_resolved == 0
        assert set(db.query("SELECT id, bal FROM acct")) == {(key, 7) for key in keys}


def transfer_db(replicas: int = 1) -> tuple[PrismaDB, list[int]]:
    db = make_db(replicas)
    keys = keys_on_fragments(db, 2)
    for key in keys:
        db.execute(f"INSERT INTO acct VALUES ({key}, 100)")
    # The loads are forced 1PC commits; checkpoint so only the transfer
    # below is left in the logs.
    db.checkpoint()
    return db, keys


def transfer(db: PrismaDB, keys: list[int], amount: int) -> int:
    """Move *amount* from keys[0] to keys[1] in one 2PC transaction."""
    session = db.session()
    session.execute("BEGIN")
    session.execute(f"UPDATE acct SET bal = bal - {amount} WHERE id = {keys[0]}")
    session.execute(f"UPDATE acct SET bal = bal + {amount} WHERE id = {keys[1]}")
    (txn_id,) = db.gdh.txns.active
    assert "2PC" in session.execute("COMMIT").message
    return txn_id


def balances(db: PrismaDB) -> dict[int, int]:
    return dict(db.query("SELECT id, bal FROM acct"))


class TestDurabilityAfterAcknowledgement:
    def test_machine_crash_before_any_further_force(self):
        db, keys = transfer_db()
        txn_id = transfer(db, keys, 30)
        participants = [participant(db, key) for key in keys]
        for ofm in participants:
            assert CommitRecord(txn_id) not in ofm.wal.read_records()[0]

        db.crash()
        report = db.restart()

        # Each participant's commit record died unforced; restart
        # resolved it from the coordinator's lazy log entry.
        assert report.in_doubt_resolved == len(participants)
        assert balances(db) == {keys[0]: 70, keys[1]: 130}

    def test_element_crash_on_a_replicated_table(self):
        db, keys = transfer_db(replicas=2)
        info = db.catalog.table("acct")
        node = info.fragments[info.scheme.fragment_of((keys[0], 0))].node_id
        transfer(db, keys, 30)
        # Writes reach every copy: count the participant copies the
        # element takes down with it.
        lost = [
            name
            for _info, fragment, copy_node, name in db.catalog.placed_copies()
            if copy_node == node
            and fragment.fragment_id
            in {info.scheme.fragment_of((key, 0)) for key in keys}
        ]
        assert lost

        db.crash_element(node)
        report = db.restart_element(node)

        assert report.in_doubt_resolved == len(lost)
        assert report.replica_catchups == 0  # the replay alone was right
        assert balances(db) == {keys[0]: 70, keys[1]: 130}
        for fragment in info.fragments:
            copies = [
                dict(db.gdh.fragment_ofms[name].table.scan())
                for _node, name in fragment.all_copies()
            ]
            assert all(copy == copies[0] for copy in copies)

    def test_aborted_transaction_stays_invisible_when_its_abort_records_are_lost(self):
        db, keys = transfer_db()
        session = db.session()
        session.execute("BEGIN")
        for key in keys:
            session.execute(f"UPDATE acct SET bal = 0 WHERE id = {key}")
        (txn_id,) = db.gdh.txns.active
        survivor, victim = participant(db, keys[0]), participant(db, keys[1])
        # The second voter is dead: the first has prepared (forced)
        # when the coordinator decides abort.
        db.runtime.kill(victim)
        with pytest.raises(TransactionAborted):
            session.execute("COMMIT")
        durable = survivor.wal.read_records()[0]
        assert PrepareRecord(txn_id, (survivor.name, victim.name)) in durable
        assert AbortRecord(txn_id) not in durable
        # The coordinator's lazy abort entry never reaches the platter.
        db.gdh.commit_log.disk.delete(f"gdhlog/{txn_id}")

        db.crash()
        report = db.restart()

        # Presumed abort: the prepared survivor resolves to abort.
        assert report.in_doubt_resolved == 1
        assert balances(db) == {keys[0]: 100, keys[1]: 100}
