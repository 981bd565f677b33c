"""Serving benchmark — latency under concurrent sessions (ISSUE 8).

The paper's GDH is a multi-session supervisor: "for each query a new
instance is created, possibly running at its own processor."  This bench
drives that claim end to end through the serving layer: 100 DBAPI
connections issue a Zipf-skewed OLTP/analytics mix with seeded think
times, every statement passing through the GDH plan cache and an 8-slot
admission queue.  Reported: p50/p99 latency per operation kind,
saturation throughput, plan-cache hit rate, and admission waits — all on
the simulated clock, bit-reproducible across same-seed runs.

A second sweep varies the admission slot count to show the knob doing
its job: fewer slots means more queueing, higher tail latency, same
statement results.
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.core.workload import ConcurrentSessionDriver, ServingWorkloadSpec
from repro.serve import install_serving

from _harness import report

#: The pinned serving gate point (perf_gate.py imports this module and
#: fingerprints exactly this configuration).
SERVING_POINT = {
    "n_nodes": 32,
    "disk_nodes": (0, 16),
    "fragments": 8,
    "n_sessions": 100,
    "ops_per_session": 8,
    "seed": 42,
    "n_keys": 128,
    "admission_slots": 8,
}

SLOT_SWEEP = [2, 8, 32]


def run_serving(
    seed: int | None = None, admission_slots: int | None = None
) -> dict:
    """One full serving run at the gate point; returns everything pinnable."""
    p = SERVING_POINT
    db = PrismaDB(MachineConfig(n_nodes=p["n_nodes"], disk_nodes=p["disk_nodes"]))
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        f" FRAGMENTED BY HASH(id) INTO {p['fragments']}"
    )
    db.bulk_load("kv", [(i, i * 3) for i in range(p["n_keys"])])
    slots = p["admission_slots"] if admission_slots is None else admission_slots
    install_serving(db, admission_slots=slots)
    db.quiesce()
    spec = ServingWorkloadSpec(
        n_sessions=p["n_sessions"],
        ops_per_session=p["ops_per_session"],
        seed=p["seed"] if seed is None else seed,
        n_keys=p["n_keys"],
    )
    outcome = ConcurrentSessionDriver(db, spec).run()
    admission = db.gdh.admission.stats()
    return {
        "report": outcome,
        "stats": outcome.stats(),
        "fingerprint": outcome.fingerprint(),
        "plan_cache": db.gdh.plan_cache.stats(),
        "admission": admission,
    }


@pytest.fixture(scope="module")
def serving_run():
    return run_serving()


def test_serving_latency_report(serving_run, benchmark):
    outcome = serving_run["report"]
    stats = serving_run["stats"]
    rows = []
    for kind in sorted(stats["kinds"]):
        entry = stats["kinds"][kind]
        rows.append(
            (
                kind,
                entry["count"],
                f"{entry['p50_s'] * 1000:.1f}",
                f"{entry['p99_s'] * 1000:.1f}",
            )
        )
    cache = serving_run["plan_cache"]
    admission = serving_run["admission"]
    report(
        "SERVING",
        f"{stats['n_sessions']} concurrent sessions,"
        f" {stats['operations']} ops (read/update/insert/analytics mix,"
        f" Zipf keys, {SERVING_POINT['admission_slots']}-slot admission)",
        ["kind", "ops", "p50 (ms)", "p99 (ms)"],
        rows,
        notes=(
            f"throughput {stats['throughput_ops']:.1f} ops/s (simulated);"
            f" plan-cache hit rate {cache['hit_rate']:.3f};"
            f" {admission['delayed']} ops queued for"
            f" {admission['total_wait_s']:.2f}s total."
        ),
    )
    assert stats["n_sessions"] >= 100
    assert stats["operations"] == (
        SERVING_POINT["n_sessions"] * SERVING_POINT["ops_per_session"]
    )
    # Every kind reports real latencies on the simulated clock.
    for kind in ("read", "update", "insert", "analytics"):
        assert stats["kinds"][kind]["p99_s"] >= stats["kinds"][kind]["p50_s"] > 0
    # Four templates: four misses, one entry each, whatever the keys.
    assert cache["hit_rate"] > 0.99
    assert cache["entries"] == cache["misses"] == 4 and cache["evictions"] == 0
    benchmark.pedantic(run_serving, rounds=1, iterations=1)


def test_serving_bit_reproducible(serving_run):
    """Two same-seed runs are bit-identical; a different seed is not."""
    again = run_serving()
    assert again["fingerprint"] == serving_run["fingerprint"]
    assert again["plan_cache"] == serving_run["plan_cache"]
    other_seed = run_serving(seed=SERVING_POINT["seed"] + 1)
    assert other_seed["fingerprint"] != serving_run["fingerprint"]


def test_serving_admission_slots_shape_latency(serving_run):
    """Fewer slots -> more queueing and a worse tail; results unchanged."""
    by_slots = {
        slots: (
            serving_run if slots == SERVING_POINT["admission_slots"]
            else run_serving(admission_slots=slots)
        )
        for slots in SLOT_SWEEP
    }
    rows = []
    for slots in SLOT_SWEEP:
        run = by_slots[slots]
        rows.append(
            (
                slots,
                f"{run['stats']['kinds']['read']['p99_s'] * 1000:.1f}",
                f"{run['admission']['total_wait_s']:.2f}",
                f"{run['stats']['throughput_ops']:.1f}",
            )
        )
    report(
        "SERVING-SLOTS",
        "admission slot count vs read tail latency",
        ["slots", "read p99 (ms)", "queue wait (s)", "ops/s"],
        rows,
        notes="The admission queue trades tail latency for bounded concurrency.",
    )
    waits = [by_slots[slots]["admission"]["total_wait_s"] for slots in SLOT_SWEEP]
    assert waits[0] > waits[1] > waits[2]
    reads = {
        slots: by_slots[slots]["stats"]["kinds"]["read"]["count"]
        for slots in SLOT_SWEEP
    }
    # Same operations execute whatever the slot count.
    assert len(set(reads.values())) == 1


if __name__ == "__main__":
    import json

    outcome = run_serving()
    print(json.dumps({k: v for k, v in outcome.items() if k != "report"}, indent=2))
