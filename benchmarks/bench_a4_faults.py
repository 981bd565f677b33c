"""A4 — fault injection and crash-consistent recovery (extends E9).

E9 measures the *cost* of durability; A4 measures what durability buys:
the database survives coordinator halts at every named crash point of
the commit protocol, single-element crashes with replica failover, and
per-fragment restart — with the committed state restored exactly.

Two tables:

* A4a: the crash matrix — for every protocol path x crash point, did
  the transaction survive (it must exactly when something durable said
  "commit"), how many participants were left in doubt, and what the
  restart cost.
* A4b: element crash and failover — read availability through replicas
  during the outage, and the catch-up work when the element returns.

Determinism is part of the contract: run as a script, this file writes
the run's fault/recovery fingerprints to JSON so CI can execute it
twice with the same seed and diff the files bit-for-bit::

    python benchmarks/bench_a4_faults.py --seed 7 --out run1.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro import MachineConfig, PrismaDB  # noqa: E402
from repro.errors import InjectedCrash  # noqa: E402
from repro.core.faults import (  # noqa: E402
    ABORT_POINTS,
    ONE_PC_POINTS,
    TWO_PC_POINTS,
    CrashPoint,
    FaultInjector,
)

from _harness import build_parser  # noqa: E402
from _harness import report  # noqa: E402

CONFIG = MachineConfig(n_nodes=8, disk_nodes=(0, 4), topology="ring")

#: Crash points after which recovery must land the transaction COMMITTED.
DURABLE_POINTS = {
    CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_AFTER_PREPARE,
    CrashPoint.TWO_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_MID_PHASE_TWO,
}


def make_db(seed: int, replicas: bool = False) -> PrismaDB:
    db = PrismaDB(CONFIG, faults=FaultInjector(seed))
    ddl = (
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(k) INTO 3"
    )
    if replicas:
        ddl += " WITH 2 REPLICAS"
    db.execute(ddl)
    return db


def keys_per_fragment(db: PrismaDB, count: int, start: int = 1000) -> list[int]:
    scheme = db.catalog.table("t").scheme
    chosen: dict[int, int] = {}
    for key in range(start, start + 5000):
        chosen.setdefault(scheme.fragment_of((key, 0)), key)
        if len(chosen) == count:
            return [chosen[f] for f in sorted(chosen)]
    raise AssertionError(f"no keys for {count} fragments")


def run_matrix_cell(mode: str, point: CrashPoint, seed: int) -> dict:
    """One crash-matrix cell: crash at *point*, recover, check, report."""
    db = make_db(seed)
    baseline_keys = keys_per_fragment(db, 3)
    for key in baseline_keys:
        db.execute(f"INSERT INTO t VALUES ({key}, 1)")
    baseline = set(db.query("SELECT k, v FROM t"))

    participants = 1 if mode == "1pc" else 3
    victim_keys = keys_per_fragment(db, participants, start=3000)
    session = db.session()
    session.execute("BEGIN")
    for key in victim_keys:
        session.execute(f"INSERT INTO t VALUES ({key}, 2)")
    db.faults.arm(point)
    crashed = False
    try:
        session.execute("ROLLBACK" if mode == "abort" else "COMMIT")
    except InjectedCrash:
        crashed = True
    assert crashed, f"crash point {point.value} did not fire"
    in_doubt = sum(
        len(ofm.in_doubt_transactions())
        for ofm in db.gdh.fragment_ofms.values()
        if ofm.alive
    )
    crash_report = db.crash()
    recovery = db.restart()
    after = set(db.query("SELECT k, v FROM t"))

    assert baseline <= after, f"{point.value}: committed baseline lost"
    survived = {row[0] for row in after} >= set(victim_keys)
    must_survive = mode != "abort" and point in DURABLE_POINTS
    assert survived == must_survive, (
        f"{point.value} ({mode}): expected"
        f" {'commit' if must_survive else 'abort'} after recovery"
    )
    return {
        "mode": mode,
        "point": point.value,
        "outcome": "committed" if survived else "rolled back",
        "in_doubt": in_doubt,
        "log_repairs": recovery.log_repairs,
        "recovery_ms": recovery.duration_s * 1000,
        "fingerprints": (
            crash_report.fingerprint(),
            recovery.fingerprint(),
            db.faults.fingerprint(),
        ),
    }


def run_matrix(seed: int) -> list[dict]:
    cells = (
        [("1pc", p) for p in ONE_PC_POINTS]
        + [("npc", p) for p in TWO_PC_POINTS]
        + [("abort", p) for p in ABORT_POINTS]
    )
    return [run_matrix_cell(mode, point, seed) for mode, point in cells]


def run_element_failover(seed: int) -> dict:
    """Element crash mid-workload: availability and catch-up cost."""
    db = make_db(seed, replicas=True)
    for key in range(24):
        db.execute(f"INSERT INTO t VALUES ({key}, 0)")
    db.quiesce()

    def read_time() -> float:
        session = db.session()
        start = session.clock
        rows = session.query("SELECT k, v FROM t")
        assert len(rows) == 24
        return session.clock - start

    healthy_read = read_time()
    victim_node = db.catalog.table("t").fragments[0].node_id
    crash_report = db.crash_element(victim_node)
    degraded_read = read_time()  # replicas serve every fragment
    # Writes keep flowing during the outage (to the surviving copies).
    outage_writes = 0
    for key in range(24, 40):
        db.execute(f"UPDATE t SET v = 1 WHERE k = {key - 24}")
        outage_writes += 1
    recovery = db.restart_element(victim_node)
    healed_read = read_time()
    return {
        "healthy_read_ms": healthy_read * 1000,
        "degraded_read_ms": degraded_read * 1000,
        "healed_read_ms": healed_read * 1000,
        "processes_killed": len(crash_report.processes_killed),
        "fragments_lost": crash_report.fragments_lost,
        "outage_writes": outage_writes,
        "replica_catchups": recovery.replica_catchups,
        "catchup_recovery_ms": recovery.duration_s * 1000,
        "commit_log_scan_ms": recovery.commit_log_scan_s * 1000,
        "fingerprints": (
            crash_report.fingerprint(),
            recovery.fingerprint(),
            db.faults.fingerprint(),
        ),
    }


def combined_fingerprint(matrix: list[dict], failover: dict) -> str:
    """Full-length digest of every matrix cell's and the failover's fingerprints."""
    payload = ([cell["fingerprints"] for cell in matrix], failover["fingerprints"])
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


# -- pytest entry points -----------------------------------------------------


def test_a4_crash_matrix(benchmark):
    matrix = run_matrix(seed=7)
    report(
        "A4a",
        "crash matrix: recovery outcome by protocol path and crash point",
        ["path", "crash point", "outcome", "in doubt", "log repairs",
         "recovery ms"],
        [
            (c["mode"], c["point"], c["outcome"], c["in_doubt"],
             c["log_repairs"], f"{c['recovery_ms']:.2f}")
            for c in matrix
        ],
        notes=(
            "A transaction survives recovery exactly when a durable record"
            " (the participant's WAL force on the 1PC path, every"
            " participant's forced vote on 2PC) says commit; everything"
            " earlier resolves by presumed abort.  'log repairs' counts"
            " commit-log entries rebuilt from those records."
        ),
    )
    # The 1PC window before the coordinator's lazy entry is repaired from the WAL.
    repaired = [c for c in matrix if c["point"] == "1pc.after_participant_commit"]
    assert repaired[0]["log_repairs"] == 1
    benchmark.pedantic(
        run_matrix_cell,
        args=("1pc", CrashPoint.ONE_PC_AFTER_LOG_FORCE, 7),
        rounds=1,
        iterations=1,
    )


def test_a4_element_failover(benchmark):
    result = run_element_failover(seed=7)
    report(
        "A4b",
        "element crash with replicated fragments: availability and catch-up",
        ["phase", "read ms", "notes"],
        [
            ("healthy", f"{result['healthy_read_ms']:.2f}", "all copies live"),
            (
                "element down",
                f"{result['degraded_read_ms']:.2f}",
                f"{result['fragments_lost']} copies lost,"
                f" {result['processes_killed']} processes killed",
            ),
            (
                "restarted",
                f"{result['healed_read_ms']:.2f}",
                f"{result['replica_catchups']} catch-up(s) from siblings,"
                f" recovery {result['catchup_recovery_ms']:.2f} ms"
                f" (log scan {result['commit_log_scan_ms']:.2f} ms)",
            ),
        ],
        notes=(
            "Reads stay available through replica copies while the element"
            " is down; the returned copies replay their WAL and then catch"
            " up rows committed during the outage from a live sibling."
        ),
    )
    assert result["degraded_read_ms"] > 0
    assert result["replica_catchups"] >= 1
    benchmark.pedantic(run_element_failover, args=(7,), rounds=1, iterations=1)


def test_a4_same_seed_is_bit_identical(benchmark):
    first = combined_fingerprint(run_matrix(3), run_element_failover(3))
    second = combined_fingerprint(run_matrix(3), run_element_failover(3))
    assert first == second
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_a4_different_seed_changes_nothing_functional(benchmark):
    """Seeds only feed randomized fault schedules; armed-point runs are
    seed-independent in outcome (the fingerprint differs only via the
    seed field itself)."""
    for cell_a, cell_b in zip(run_matrix(1), run_matrix(2)):
        assert cell_a["outcome"] == cell_b["outcome"]
        assert cell_a["in_doubt"] == cell_b["in_doubt"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


# -- CLI: the CI determinism gate runs this twice and diffs the output -------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        seed=7,
        out=HERE / "results" / "a4_fingerprints.json",
    )
    args = parser.parse_args(argv)
    matrix = run_matrix(args.seed)
    failover = run_element_failover(args.seed)
    payload = {
        "seed": args.seed,
        "matrix": [
            {key: cell[key] for key in ("mode", "point", "outcome",
                                        "in_doubt", "log_repairs",
                                        "fingerprints")}
            for cell in matrix
        ],
        "failover_fingerprints": failover["fingerprints"],
        "combined": combined_fingerprint(matrix, failover),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"A4 combined fingerprint ({len(matrix)} matrix cells):")
    print(f"  {payload['combined']}")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
