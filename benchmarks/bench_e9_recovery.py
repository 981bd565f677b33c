"""E9 — stable storage, commit protocols, and restart recovery
(Sections 2.2, 3.2).

"some of the processing elements will also be connected to secondary
storage (disk).  Using these, the multi-computer system implements
stable storage and automatic recovery upon system failures."

Three measurements:

* commit overhead: 1-participant (1PC fast path) vs multi-participant
  (full 2PC) transactions, and the ablation with the fast path off;
* durability overhead: the same update against a durable (FULL) vs a
  transient fragment profile;
* restart: recovery time vs WAL length, and the effect of checkpoints.
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.ofm import OFMProfile, OneFragmentManager
from repro.pool import PoolRuntime
from repro.machine import Machine
from repro.storage import DataType, Schema
from repro.workloads import setup_bank, total_balance

from _harness import report


def bank_db(allow_one_phase=True) -> PrismaDB:
    config = MachineConfig(n_nodes=16, disk_nodes=(0, 8))
    db = PrismaDB(config, allow_one_phase=allow_one_phase)
    setup_bank(db, 32, 8)
    db.quiesce()
    return db


def txn_time(db: PrismaDB, statements: list[str]) -> float:
    db.quiesce()  # measure against an idle machine
    session = db.session()
    start = session.clock
    session.begin()
    for statement in statements:
        session.execute(statement)
    session.commit()
    return session.clock - start


def test_e9_commit_protocol_overhead(benchmark):
    db = bank_db(allow_one_phase=True)
    local = txn_time(db, [
        "UPDATE account SET balance = balance + 1 WHERE id = 0",
    ])
    distributed = txn_time(db, [
        "UPDATE account SET balance = balance + 1 WHERE id = 0",
        "UPDATE account SET balance = balance - 1 WHERE id = 1",
    ])
    db2 = bank_db(allow_one_phase=False)
    local_2pc = txn_time(db2, [
        "UPDATE account SET balance = balance + 1 WHERE id = 0",
    ])
    read_only = txn_time(db, ["SELECT COUNT(*) FROM account WHERE id = 0"])
    report(
        "E9a",
        "commit cost by transaction shape (simulated ms)",
        ["transaction", "commit path", "total ms"],
        [
            ("read-only", "no-op commit", f"{read_only * 1000:.2f}"),
            ("1 fragment", "1PC fast path", f"{local * 1000:.2f}"),
            ("1 fragment (fast path off)", "full 2PC", f"{local_2pc * 1000:.2f}"),
            ("2 fragments", "full 2PC", f"{distributed * 1000:.2f}"),
        ],
        notes=(
            "Read-only commits are free; the 1PC fast path saves a vote"
            " round and waits for one force, the participant's; full 2PC"
            " fans its prepare round out and waits for the slowest prepare"
            " force, since the durable votes decide.  Every coordinator"
            " entry, commit records after a prepare and abort records are"
            " written without a wait (presumed abort)."
        ),
    )
    assert read_only < local
    assert local < local_2pc
    assert local < distributed
    benchmark.pedantic(
        txn_time, args=(db, ["UPDATE account SET balance = balance + 1 WHERE id = 2"]),
        rounds=1, iterations=1,
    )


def test_e9_durability_overhead(benchmark):
    """FULL (WAL + forces) vs QUERY (transient) OFM profiles: the cost
    of the paper's 'simplification in the design' — durable fragments."""
    config = MachineConfig(n_nodes=4, disk_nodes=(0,))
    runtime = PoolRuntime(Machine(config))
    schema = Schema.of(id=DataType.INT, v=DataType.INT)

    def updates(profile: OFMProfile) -> float:
        ofm = runtime.spawn(
            OneFragmentManager, node=1, schema=schema, profile=profile
        )
        ofm.bulk_load([(i, 0) for i in range(50)])
        start = ofm.ready_at
        for txn in range(20):
            ofm.txn_insert(txn, (100 + txn, txn))
            ofm.prepare(txn)
            ofm.commit(txn)
        return ofm.ready_at - start

    durable = updates(OFMProfile.FULL)
    transient = updates(OFMProfile.QUERY)
    overhead = durable / transient
    report(
        "E9b",
        "20 single-row transactions against one fragment (simulated s)",
        ["OFM profile", "time s", "vs transient"],
        [("FULL (durable)", f"{durable:.4f}", f"{overhead:.0f}x"),
         ("QUERY (transient)", f"{transient:.6f}", "1x")],
        notes=(
            "Durable commits are dominated by WAL forces to the disk"
            " element — the price of automatic recovery."
        ),
    )
    assert durable > 10 * transient
    benchmark.pedantic(updates, args=(OFMProfile.QUERY,), rounds=1, iterations=1)


def test_e9_recovery_time_vs_log_and_checkpoint(benchmark):
    def crash_recover(n_txns: int, checkpoint: bool):
        db = bank_db()
        for i in range(n_txns):
            db.execute(
                f"UPDATE account SET balance = balance + 1 WHERE id = {i % 32}"
            )
        if checkpoint:
            db.checkpoint()
        expected = total_balance(db)
        db.crash()
        recovery = db.restart()
        assert total_balance(db) == pytest.approx(expected)
        return recovery

    points = {
        (10, False): crash_recover(10, False),
        (40, False): crash_recover(40, False),
        (40, True): crash_recover(40, True),
    }
    rows = [
        (
            n, "yes" if checkpointed else "no",
            f"{r.duration_s * 1000:.1f}", f"{r.total_work_s * 1000:.1f}",
            r.rows_restored,
        )
        for (n, checkpointed), r in points.items()
    ]
    report(
        "E9c",
        "restart recovery vs committed work and checkpointing",
        ["txns before crash", "checkpointed", "recovery ms (parallel)",
         "total work ms", "rows restored"],
        rows,
        notes=(
            "Recovery replays the WAL: longer history costs more; a"
            " checkpoint truncates the log and flattens the cost."
        ),
    )
    assert points[(40, False)].total_work_s > points[(10, False)].total_work_s
    assert points[(40, True)].duration_s < points[(40, False)].duration_s
    benchmark.pedantic(crash_recover, args=(5, False), rounds=1, iterations=1)


def test_e9_atomicity_across_fragments(benchmark):
    """A crash between a transaction's fragments never splits it."""
    def run() -> bool:
        db = bank_db()
        session = db.session()
        session.begin()
        session.execute("UPDATE account SET balance = balance - 50 WHERE id = 0")
        session.execute("UPDATE account SET balance = balance + 50 WHERE id = 1")
        session.commit()
        committed_total = total_balance(db)
        # Now an uncommitted transfer dies with the crash.
        s2 = db.session()
        s2.begin()
        s2.execute("UPDATE account SET balance = balance - 999 WHERE id = 2")
        db.crash()
        db.restart()
        after = total_balance(db)
        balances = dict(db.query("SELECT id, balance FROM account WHERE id IN (0,1,2)"))
        return (
            after == committed_total
            and balances[0] == 50.0
            and balances[1] == 150.0
            and balances[2] == 100.0
        )

    assert run()
    benchmark.pedantic(run, rounds=1, iterations=1)
