"""Deterministic trace export — the CI trace-determinism gate (ISSUE 5).

Runs one traced E1 load point and one traced query/commit/recovery
workload under a fixed seed, then writes the Chrome-trace JSON exports
(load them at ``ui.perfetto.dev`` or ``chrome://tracing``), the per-run
text profiles, and a fingerprint summary.  Every byte of every output
derives from *simulated* time — the tracer never reads a host clock
(prismalint PL006) — so CI runs this twice with the same seed and
diffs the output trees bit-for-bit::

    python benchmarks/bench_obs_trace.py --seed 17 --out run1
    python benchmarks/bench_obs_trace.py --seed 17 --out run2
    diff -r run1 run2
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from _harness import build_parser  # noqa: E402
from repro import MachineConfig, PrismaDB  # noqa: E402
from repro.machine import PacketNetwork  # noqa: E402
from repro.machine.traffic import run_load_point  # noqa: E402
from repro.obs import Tracer, text_profile, write_chrome_trace  # noqa: E402
from repro.workloads import load_wisconsin  # noqa: E402

#: A scaled-down E1 point: enough traffic for tens of thousands of
#: packet.hop spans without making the CI double-run slow.
E1_POINT = {
    "n_nodes": 16,
    "topology": "mesh",
    "rate_per_node_pps": 5_000,
    "warmup_s": 0.005,
    "measure_s": 0.01,
}

#: Queries chosen to cover the executor kinds: selection, two-phase
#: aggregate, and a repartition join (unique1 is not the fragmentation
#: column, so it shuffles).
QUERY_SET = [
    "SELECT COUNT(*) FROM wisc WHERE fiftypercent = 0",
    "SELECT ten, SUM(unique1) FROM wisc GROUP BY ten",
    "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1",
]


def trace_e1(seed: int) -> Tracer:
    tracer = Tracer()
    network = PacketNetwork(
        MachineConfig(n_nodes=E1_POINT["n_nodes"], topology=E1_POINT["topology"]),
        tracer=tracer,
    )
    run_load_point(
        network,
        E1_POINT["rate_per_node_pps"],
        warmup_s=E1_POINT["warmup_s"],
        measure_s=E1_POINT["measure_s"],
        seed=seed,
    )
    return tracer


def trace_queries(seed: int) -> tuple[Tracer, PrismaDB]:
    """Small query mix plus a multi-fragment commit and a full restart,
    so the trace covers executor, 2pc.* and recovery.* kinds."""
    tracer = Tracer()
    db = PrismaDB(
        MachineConfig(n_nodes=16, disk_nodes=(0, 8)), tracer=tracer
    )
    load_wisconsin(db, "wisc", 2_000, fragments=4, seed=seed)
    db.quiesce()
    for sql in QUERY_SET:
        db.execute(sql)
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)"
        " FRAGMENTED BY HASH(k) INTO 3"
    )
    session = db.session()
    session.execute("BEGIN")
    for key in range(8):
        session.execute(f"INSERT INTO t VALUES ({key}, {key})")
    session.execute("COMMIT")
    db.crash()
    db.restart()
    return tracer, db


def kinds(tracer: Tracer) -> list[str]:
    return sorted({record[2] for record in tracer.events})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        seed=17,
        out=HERE / "results" / "obs_trace",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    e1_tracer = trace_e1(args.seed)
    query_tracer, db = trace_queries(args.seed)

    # Coverage checks: a trace that silently lost a subsystem would
    # still diff clean, so assert the kinds we instrumented are there.
    e1_kinds, query_kinds = kinds(e1_tracer), kinds(query_tracer)
    assert "packet.hop" in e1_kinds and "packet.deliver" in e1_kinds
    for expected in ("operator.execute", "executor.query", "process.send",
                     "2pc.prepare", "2pc.phase_two",
                     "recovery.log_scan", "recovery.wal_replay"):
        assert expected in query_kinds, f"missing trace kind {expected!r}"

    write_chrome_trace(e1_tracer, args.out / "e1_trace.json")
    write_chrome_trace(query_tracer, args.out / "query_trace.json")
    (args.out / "e1_profile.txt").write_text(
        text_profile(e1_tracer, title=f"E1 load point, seed {args.seed}") + "\n"
    )
    (args.out / "query_profile.txt").write_text(
        text_profile(query_tracer, title=f"query/commit/recovery mix, seed {args.seed}")
        + "\n"
    )
    payload = {
        "seed": args.seed,
        "e1": {
            "emitted": e1_tracer.emitted,
            "kinds": e1_kinds,
            "fingerprint": e1_tracer.fingerprint(),
        },
        "queries": {
            "emitted": query_tracer.emitted,
            "kinds": query_kinds,
            "fingerprint": query_tracer.fingerprint(),
        },
        "observe": db.observe().fingerprint(),
    }
    (args.out / "fingerprints.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"obs_trace: e1 {e1_tracer.emitted} records, {payload['e1']['fingerprint']}")
    print(
        f"obs_trace: queries {query_tracer.emitted} records,"
        f" {payload['queries']['fingerprint']}"
    )
    print(f"obs_trace: written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
