"""Performance-regression gate for the simulator AND executor hot paths.

Two families of benchmarks, both compared against the committed
baseline in ``benchmarks/perf_baseline.json``:

* **network** — the E1 acceptance point of the discrete-event core
  (64-PE mesh, 20,000 packets/s/PE offered load, 0.01 s warmup + 0.02 s
  measurement window, seed 17).  Gates on events fired (machine
  independent) and wall clock.
* **executor** — the query-execution hot path (ISSUE 4): the E4
  fragment-parallel query set, the E6/A3 distributed transitive
  closure, and the E8 multi-query bank mix.  Each gates on wall clock
  and on a *determinism fingerprint* (result-row digests, simulated
  response times, message/byte counts, busy-time totals): the executor
  rewrite must be bit-identical, so any fingerprint drift fails CI the
  same way a changed network stat does.
* **obs** — the observability overhead budget (ISSUE 5): the E1 and E4
  hot paths re-run with a *disabled* tracer threaded through, gated on
  the relative wall-clock overhead against interleaved plain runs
  (``OBS_OVERHEAD_BUDGET``, default 0.02 i.e. 2 %).  Tracing off must
  cost nothing but an ``is not None`` test per instrumented event.
* **columnar** — the batch execution engine (ISSUE 7): compiled batch
  kernels (filter, pass-through projection, single-key hash join,
  grouped aggregate, splitter) micro-benchmarked against their
  row-at-a-time references on deterministic seeded data, gated on
  output digests and wall clock; the operator chains of the repo
  benchmark (ISSUE 13: project→global aggregate, filter→count,
  project→grouped aggregate, project→top-N) as one generated kernel
  against one operator call per op over the 12 000 Wisconsin rows,
  rows *and* per-stage meters compared; plus E4 and the E6/A3 closure re-run
  with the batch path switched *off*, hard-gating that the row path
  produces the identical simulated fingerprint (the batch engine is a
  host-CPU strategy, never a semantics change) and reporting the
  batch-vs-row speedup.
* **serving** — the concurrent-session serving layer (ISSUE 8): the
  pinned ``bench_serving.py`` point (100 DBAPI sessions, Zipf mixed
  OLTP/analytics, 8-slot admission, seed 42), gated on wall clock, on a
  fingerprint of every operation's simulated latency plus plan-cache
  and admission counters, and on the plan-cache hit rate staying above
  the 0.99 floor (the cache is keyed on statement templates: the mix's
  four templates miss once each).
* **scale** — the large-machine fast paths (ISSUE 9): the 64-PE
  ``bench_scaling.py`` points for mesh and chordal ring
  (construction + E1-style load point + scaled serving mix), gated on
  wall clock and on a fingerprint of the network counters and every
  serving latency; plus a 1024-PE construction smoke that hard-gates
  laziness — building the machine must touch zero routing columns and
  keep router tables under 128 KiB (a dense all-pairs table would be
  megabytes).
* **rebalance** — online re-fragmentation (ISSUE 10): the 64-PE mesh
  A/B from ``bench_scaling.py --rebalance``, gated on wall clock, on a
  fingerprint of both arms' simulated latencies plus the rebalancer's
  action list, on the end-state row oracle (no row lost or duplicated),
  and on the rebalanced arm actually improving read p99.

Wall-clock gates fail when the best-of-N wall time regresses by more
than ``PERF_GATE_MAX_REGRESSION`` (default 0.30, i.e. 30 %) against the
committed baseline.  Absolute wall time varies across hosts; CI runners
and the baseline machine are assumed comparable, and the threshold
absorbs the rest.  ``--no-wall-gate`` keeps the report without failing.

Fingerprints are exact: a mismatch means simulation *results* changed,
in which case the perf baseline (and the golden files under
``tests/golden/``) must be regenerated deliberately, in a commit that
argues for the new numbers.

Run::

    python benchmarks/perf_gate.py                 # measure + gate all
    python benchmarks/perf_gate.py --suite network
    python benchmarks/perf_gate.py --suite executor
    python benchmarks/perf_gate.py --suite obs
    python benchmarks/perf_gate.py --suite columnar
    python benchmarks/perf_gate.py --suite serving
    python benchmarks/perf_gate.py --suite scale
    python benchmarks/perf_gate.py --suite rebalance
    python benchmarks/perf_gate.py --update-baseline

Writes ``benchmarks/results/bench_perf.json`` either way.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro import MachineConfig, PrismaDB, Tracer  # noqa: E402
from repro.machine import PacketNetwork  # noqa: E402
from repro.core.workload import InterleavedDriver  # noqa: E402
from repro.exec.batch import (  # noqa: E402
    compile_agg_kernel,
    compile_batch_predicate,
    compile_batch_projector,
    compile_join_kernel,
)
from repro.exec.evaluation import Evaluator  # noqa: E402
from repro.exec.pipeline import aggregate_op  # noqa: E402
from repro.exec.expressions import Comparison, col, lit  # noqa: E402
from repro.exec.operators import (  # noqa: E402
    AggSpec,
    WorkMeter,
    aggregate_rows,
    hash_join,
    project_rows,
    select_rows,
)
from repro.exec.shuffle import compile_splitter, reference_bucket  # noqa: E402
from repro.machine.profile import LoopProfiler  # noqa: E402
from repro.machine.traffic import run_load_point  # noqa: E402
from repro.workloads.wisconsin import generate_rows  # noqa: E402
from repro.workloads import (  # noqa: E402
    load_edges,
    load_wisconsin,
    random_dag,
    setup_bank,
)

from _harness import digest as _digest  # noqa: E402
from _harness import install_wall_clock  # noqa: E402

install_wall_clock()

BASELINE_PATH = HERE / "perf_baseline.json"
RESULTS_PATH = HERE / "results" / "bench_perf.json"

#: The E1 acceptance point (ISSUE 2): 20k pps/PE, 0.02 s window, seed 17.
GATE_POINT = {
    "n_nodes": 64,
    "topology": "mesh",
    "rate_per_node_pps": 20_000,
    "warmup_s": 0.01,
    "measure_s": 0.02,
    "seed": 17,
}

#: Executor gate points (ISSUE 4).  Workload sizes are chosen so every
#: bench runs long enough to time reliably but stays under a few
#: seconds pre-rewrite.
EXEC_E4 = {
    "n_nodes": 64,
    "disk_nodes": (0, 32),
    "rows": 12_000,
    "fragments": 8,
    "seed": 42,
    # selection, two-phase aggregate, co-partitioned join, repartition
    # join (unique1 is NOT the fragmentation column), distinct shuffle.
    "queries": [
        "SELECT COUNT(*) FROM wisc WHERE fiftypercent = 0",
        "SELECT ten, SUM(unique1) FROM wisc GROUP BY ten",
        "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique2 = b.unique2",
        "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1",
        "SELECT DISTINCT onepercent FROM wisc",
    ],
}
EXEC_CLOSURE = {
    "n_nodes": 32,
    "disk_nodes": (0,),
    "vertices": 500,
    "edges": 3_000,
    "seed": 9,
    "fragments": 8,
}
EXEC_E8 = {
    "n_nodes": 32,
    "disk_nodes": (0, 16),
    "accounts": 64,
    "fragments": 16,
    "clients": 16,
    "txns_per_client": 6,
}


def _busy_total(db: PrismaDB) -> str:
    # Routed through the Snapshot protocol (ISSUE 5): byte-identical to
    # the hand-summed repr the baseline was pinned with.
    return db.machine.observe().source("nodes").stats()["busy_total"]


# ---------------------------------------------------------------------------
# Network suite (E1).
# ---------------------------------------------------------------------------


def measure_network_once(tracer: Tracer | None = None) -> dict:
    """One timed run of the gate point; returns profile + stats."""
    config = MachineConfig(
        n_nodes=GATE_POINT["n_nodes"], topology=GATE_POINT["topology"]
    )
    network = PacketNetwork(config, tracer=tracer)
    start = time.perf_counter()
    with LoopProfiler(network.loop) as profiler:
        point = run_load_point(
            network,
            GATE_POINT["rate_per_node_pps"],
            warmup_s=GATE_POINT["warmup_s"],
            measure_s=GATE_POINT["measure_s"],
            seed=GATE_POINT["seed"],
        )
    wall = time.perf_counter() - start
    profile = profiler.profile.as_dict()
    profile["wall_s"] = wall  # includes network construction, like a user run
    return {"profile": profile, "stats": point}


def measure_network(repeats: int) -> dict:
    runs = [measure_network_once() for _ in range(repeats)]
    best = min(runs, key=lambda r: r["profile"]["wall_s"])
    profile = dict(best["profile"])
    profile["events_per_sec"] = (
        profile["events_fired"] / profile["wall_s"] if profile["wall_s"] > 0 else 0.0
    )
    return {
        "gate_point": GATE_POINT,
        "repeats": repeats,
        "wall_s_all": [round(r["profile"]["wall_s"], 4) for r in runs],
        "profile": profile,
        "stats": best["stats"],
    }


# ---------------------------------------------------------------------------
# Executor suite (E4 / E6-A3 / E8).
# ---------------------------------------------------------------------------


def _set_batch_path(db: PrismaDB, flag: bool) -> None:
    """Flip every evaluator in *db* between batch kernels and row loops.

    The flag is a host-CPU strategy only: simulated charges are closed
    form either way, so flipping it must not move any fingerprint.
    """
    db.gdh.executor.evaluator.batch = flag
    for ofm in db.gdh.fragment_ofms.values():
        ofm.evaluator.batch = flag


def run_exec_e4(
    tracer: Tracer | None = None, loops: int = 1, batch: bool = True
) -> dict:
    """Fragment-parallel query set over Wisconsin (E4 plus shuffles).

    *loops* repeats the query set inside the timed region — the
    fingerprinted baseline always uses 1; the obs overhead suite uses
    more so its timed region is long enough to gate a 2 % budget.
    ``batch=False`` runs the row-at-a-time engine (columnar suite A/B).
    """
    p = EXEC_E4
    db = PrismaDB(
        MachineConfig(n_nodes=p["n_nodes"], disk_nodes=p["disk_nodes"]),
        tracer=tracer,
    )
    load_wisconsin(db, "wisc", p["rows"], fragments=p["fragments"], seed=p["seed"])
    db.quiesce()
    if not batch:
        _set_batch_path(db, False)
    start = time.perf_counter()
    queries = []
    for _ in range(loops):
        for sql in p["queries"]:
            result = db.execute(sql)
            queries.append(
                {
                    "rows": _digest(result.rows),
                    "response_s": repr(result.response_time),
                    "messages": result.report.messages,
                    "bytes": result.report.bytes_shipped,
                }
            )
    wall = time.perf_counter() - start
    return {"wall_s": wall, "fingerprint": {"queries": queries, "busy_total": _busy_total(db)}}


def run_exec_closure(batch: bool = True) -> dict:
    """E6/A3: distributed semi-naive transitive closure, 8 fragments."""
    p = EXEC_CLOSURE
    edges = random_dag(p["vertices"], p["edges"], seed=p["seed"])
    db = PrismaDB(MachineConfig(n_nodes=p["n_nodes"], disk_nodes=p["disk_nodes"]))
    db.gdh.executor.distributed_closure = True
    load_edges(db, "e", edges, fragments=p["fragments"])
    db.quiesce()
    if not batch:
        _set_batch_path(db, False)
    start = time.perf_counter()
    result = db.execute("SELECT COUNT(*) FROM CLOSURE(e)")
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "fingerprint": {
            "pairs": result.rows[0][0],
            "response_s": repr(result.response_time),
            "messages": result.report.messages,
            "bytes": result.report.bytes_shipped,
            "busy_total": _busy_total(db),
        },
    }


def run_exec_e8() -> dict:
    """E8: concurrent bank clients on disjoint fragments."""
    p = EXEC_E8
    db = PrismaDB(MachineConfig(n_nodes=p["n_nodes"], disk_nodes=p["disk_nodes"]))
    setup_bank(db, p["accounts"], p["fragments"])
    db.quiesce()
    scripts = []
    for client in range(p["clients"]):
        account = client % p["fragments"]
        scripts.append(
            [
                [
                    f"UPDATE account SET balance = balance + 1 WHERE id = {account}",
                    f"SELECT balance FROM account WHERE id = {account}",
                ]
                for _ in range(p["txns_per_client"])
            ]
        )
    driver = InterleavedDriver(db)
    start = time.perf_counter()
    outcome = driver.run(scripts)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "fingerprint": {
            "committed": outcome.transactions_committed,
            "throughput_tps": repr(outcome.throughput_tps),
            "lock_waits": outcome.lock_waits,
        },
    }


EXECUTOR_BENCHES = {
    "e4": run_exec_e4,
    "closure": run_exec_closure,
    "e8": run_exec_e8,
}


# ---------------------------------------------------------------------------
# Serving suite: concurrent sessions through the DBAPI layer (ISSUE 8).
# ---------------------------------------------------------------------------


def run_serving_once() -> dict:
    """One timed run of the pinned serving point (bench_serving.py)."""
    from bench_serving import run_serving

    start = time.perf_counter()
    outcome = run_serving()
    wall = time.perf_counter() - start
    cache = outcome["plan_cache"]
    admission = outcome["admission"]
    return {
        "wall_s": wall,
        "hit_rate": cache["hit_rate"],
        "throughput_ops": outcome["stats"]["throughput_ops"],
        "fingerprint": {
            # The report fingerprint hashes every operation's simulated
            # latency; cache/admission counters pin the serving layer's
            # own behavior (a hit-rate change is a regression even if
            # latencies happened to survive it).
            "report": outcome["fingerprint"],
            "plan_cache": {
                "lookups": cache["lookups"],
                "hits": cache["hits"],
                "misses": cache["misses"],
                "entries": cache["entries"],
            },
            "admission": {
                "admitted": admission["admitted"],
                "delayed": admission["delayed"],
                "total_wait_s": repr(admission["total_wait_s"]),
            },
        },
    }


def measure_serving(repeats: int) -> dict:
    runs = [run_serving_once() for _ in range(repeats)]
    fingerprints = [run["fingerprint"] for run in runs]
    for fingerprint in fingerprints[1:]:
        if fingerprint != fingerprints[0]:
            raise AssertionError(
                "serving bench is not deterministic across same-process"
                f" repeats: {fingerprint} != {fingerprints[0]}"
            )
    best = min(runs, key=lambda run: run["wall_s"])
    return {
        "wall_s": best["wall_s"],
        "wall_s_all": [round(run["wall_s"], 4) for run in runs],
        "hit_rate": best["hit_rate"],
        "throughput_ops": best["throughput_ops"],
        "fingerprint": fingerprints[0],
    }


def check_serving_gates(
    measured: dict, baseline: dict, wall_gate: bool
) -> list[str]:
    failures = []
    entry = baseline.get("serving")
    if entry is None:
        failures.append("serving bench has no committed baseline")
        return failures
    if measured["fingerprint"] != entry["expected"]:
        failures.append(
            "serving fingerprint drift: latencies/cache/admission are no"
            " longer bit-identical to the committed baseline — got"
            f" {measured['fingerprint']}, pinned {entry['expected']};"
            " regenerate benchmarks/perf_baseline.json deliberately"
        )
    if measured["hit_rate"] <= 0.99:
        failures.append(
            f"serving plan-cache hit rate {measured['hit_rate']:.3f} fell to"
            " or below the 0.99 floor on the four-template mix"
        )
    threshold = wall_threshold()
    wall, base_wall = measured["wall_s"], entry["committed"]["wall_s"]
    if wall_gate and wall > base_wall * (1 + threshold):
        failures.append(
            f"serving wall-clock regression: {wall:.3f}s vs baseline"
            f" {base_wall:.3f}s (+{(wall / base_wall - 1) * 100:.1f}%,"
            f" limit {threshold * 100:.0f}%)"
        )
    return failures


# ---------------------------------------------------------------------------
# Scale suite (ISSUE 9): pinned 64-PE points + 1024-PE laziness smoke.
# ---------------------------------------------------------------------------

#: Router tables at 1024 PEs must stay O(links); a dense all-pairs
#: next-hop + distance pair would be ~8 MiB.
SCALE_SMOKE_NODES = 1024
SCALE_SMOKE_TABLE_LIMIT = 128 * 1024
#: Absolute ceiling for building both 1024-PE machines: lazy routing
#: builds in milliseconds; the old eager all-pairs BFS took seconds.
SCALE_SMOKE_WALL_LIMIT = 1.0


def run_scale_once() -> dict:
    """One pass over the pinned 64-PE points plus the 1024-PE smoke."""
    from bench_scaling import SCALE_TOPOLOGIES, construction_point, scale_point

    points = {}
    wall = 0.0
    for topology in SCALE_TOPOLOGIES:
        point = scale_point(64, topology)
        wall += (
            point["construction"]["wall_s"]
            + point["network"]["wall_s"]
            + point["serving"]["wall_s"]
        )
        stats = point["network"]
        serving = point["serving"]
        points[f"{topology}/64"] = {
            # Integer packet counters plus the exact mean latency pin the
            # load point; the serving fingerprint hashes every
            # operation's simulated latency, so any routing or multicast
            # change that moves a single timestamp trips the gate.
            "network": {
                "injected": int(stats["injected"]),
                "delivered": int(stats["delivered"]),
                "delivered_in_window": int(stats["delivered_in_window"]),
                "in_flight": int(stats["in_flight"]),
                "mean_latency_s": repr(stats["mean_latency_s"]),
            },
            "serving": serving["fingerprint"],
        }
    smoke = {}
    smoke_wall = 0.0
    for topology in SCALE_TOPOLOGIES:
        built = construction_point(SCALE_SMOKE_NODES, topology)
        smoke_wall += built["wall_s"]
        smoke[topology] = built
        # Laziness is a hard invariant, not a baseline comparison: a
        # 1024-PE build that runs any BFS has lost the O(N) fast path.
        if built["touched_destinations"] != 0:
            raise AssertionError(
                f"1024-PE {topology} construction touched"
                f" {built['touched_destinations']} routing columns;"
                " the lazy router must build none"
            )
        if built["table_bytes"] > SCALE_SMOKE_TABLE_LIMIT:
            raise AssertionError(
                f"1024-PE {topology} router tables grew to"
                f" {built['table_bytes']} bytes"
                f" (limit {SCALE_SMOKE_TABLE_LIMIT}); dense tables are back"
            )
    return {
        "wall_s": wall,
        "smoke_wall_s": smoke_wall,
        "fingerprint": points,
        "smoke": smoke,
    }


def measure_scale(repeats: int) -> dict:
    runs = [run_scale_once() for _ in range(repeats)]
    fingerprints = [run["fingerprint"] for run in runs]
    for fingerprint in fingerprints[1:]:
        if fingerprint != fingerprints[0]:
            raise AssertionError(
                "scale bench is not deterministic across same-process"
                f" repeats: {fingerprint} != {fingerprints[0]}"
            )
    best = min(runs, key=lambda run: run["wall_s"])
    return {
        "wall_s": best["wall_s"],
        "wall_s_all": [round(run["wall_s"], 4) for run in runs],
        "smoke_wall_s": min(run["smoke_wall_s"] for run in runs),
        "smoke": best["smoke"],
        "fingerprint": fingerprints[0],
    }


def check_scale_gates(measured: dict, baseline: dict, wall_gate: bool) -> list[str]:
    failures = []
    entry = baseline.get("scale")
    if entry is None:
        failures.append("scale bench has no committed baseline")
        return failures
    for name, fingerprint in measured["fingerprint"].items():
        pinned = entry["expected"].get(name)
        if fingerprint != pinned:
            failures.append(
                f"scale fingerprint drift at {name}: routing/multicast is no"
                " longer bit-identical to the committed baseline — got"
                f" {fingerprint}, pinned {pinned};"
                " regenerate benchmarks/perf_baseline.json deliberately"
            )
    threshold = wall_threshold()
    wall, base_wall = measured["wall_s"], entry["committed"]["wall_s"]
    if wall_gate and wall > base_wall * (1 + threshold):
        failures.append(
            f"scale wall-clock regression: {wall:.3f}s vs baseline"
            f" {base_wall:.3f}s (+{(wall / base_wall - 1) * 100:.1f}%,"
            f" limit {threshold * 100:.0f}%)"
        )
    # The smoke wall gets an absolute ceiling, not a relative gate: a
    # lazy 1024-PE build is milliseconds, an eager all-pairs one is
    # seconds, and a 30% band around milliseconds is timer noise.
    if wall_gate and measured["smoke_wall_s"] > SCALE_SMOKE_WALL_LIMIT:
        failures.append(
            f"scale smoke: 1024-PE construction took"
            f" {measured['smoke_wall_s']:.3f}s"
            f" (ceiling {SCALE_SMOKE_WALL_LIMIT:.1f}s); the build is no"
            " longer O(links)"
        )
    return failures


# ---------------------------------------------------------------------------
# Rebalance suite (ISSUE 10): pinned 64-PE A/B of online re-fragmentation.
# ---------------------------------------------------------------------------


def run_rebalance_once() -> dict:
    """One 64-PE mesh A/B of the online re-fragmentation control loop."""
    from bench_scaling import rebalance_ab_point

    start = time.perf_counter()
    point = rebalance_ab_point(64, "mesh")
    wall = time.perf_counter() - start
    on, off = point["on"], point["off"]
    return {
        "wall_s": wall,
        "p99_improved": point["p99_improved"],
        "oracle_ok": on["oracle_ok"],
        "fingerprint": {
            # Both arms' driver fingerprints hash every operation's
            # simulated latency; the action list and fragment count pin
            # the control loop's decisions, and the oracle bit pins
            # row-set preservation across split/migrate.
            "off": off["fingerprint"],
            "on": on["fingerprint"],
            "profile": on["profile_fingerprint"],
            "actions": on["actions"],
            "fragments_after": on["fragments_after"],
            "oracle_ok": on["oracle_ok"],
        },
    }


def measure_rebalance(repeats: int) -> dict:
    runs = [run_rebalance_once() for _ in range(repeats)]
    fingerprints = [run["fingerprint"] for run in runs]
    for fingerprint in fingerprints[1:]:
        if fingerprint != fingerprints[0]:
            raise AssertionError(
                "rebalance bench is not deterministic across same-process"
                f" repeats: {fingerprint} != {fingerprints[0]}"
            )
    best = min(runs, key=lambda run: run["wall_s"])
    return {
        "wall_s": best["wall_s"],
        "wall_s_all": [round(run["wall_s"], 4) for run in runs],
        "p99_improved": best["p99_improved"],
        "oracle_ok": best["oracle_ok"],
        "fingerprint": fingerprints[0],
    }


def check_rebalance_gates(
    measured: dict, baseline: dict, wall_gate: bool
) -> list[str]:
    failures = []
    entry = baseline.get("rebalance")
    if entry is None:
        failures.append("rebalance bench has no committed baseline")
        return failures
    if measured["fingerprint"] != entry["expected"]:
        failures.append(
            "rebalance fingerprint drift: the A/B latencies, the action"
            " list, or the row oracle are no longer bit-identical to the"
            " committed baseline — got"
            f" {measured['fingerprint']}, pinned {entry['expected']};"
            " regenerate benchmarks/perf_baseline.json deliberately"
        )
    if not measured["oracle_ok"]:
        failures.append("rebalance oracle: rows were lost or duplicated")
    if not measured["p99_improved"]:
        failures.append(
            "rebalancing no longer improves read p99 on the skewed 64-PE mix"
        )
    threshold = wall_threshold()
    wall, base_wall = measured["wall_s"], entry["committed"]["wall_s"]
    if wall_gate and wall > base_wall * (1 + threshold):
        failures.append(
            f"rebalance wall-clock regression: {wall:.3f}s vs baseline"
            f" {base_wall:.3f}s (+{(wall / base_wall - 1) * 100:.1f}%,"
            f" limit {threshold * 100:.0f}%)"
        )
    return failures


def measure_executor(repeats: int) -> dict:
    measured = {}
    for name, bench in EXECUTOR_BENCHES.items():
        runs = [bench() for _ in range(repeats)]
        fingerprints = [run["fingerprint"] for run in runs]
        for fingerprint in fingerprints[1:]:
            if fingerprint != fingerprints[0]:
                raise AssertionError(
                    f"executor bench {name!r} is not deterministic across"
                    f" same-process repeats: {fingerprint} != {fingerprints[0]}"
                )
        measured[name] = {
            "wall_s": min(run["wall_s"] for run in runs),
            "wall_s_all": [round(run["wall_s"], 4) for run in runs],
            "fingerprint": fingerprints[0],
        }
    return measured


# ---------------------------------------------------------------------------
# Obs suite: disabled-tracer overhead on the two hot paths (ISSUE 5).
# ---------------------------------------------------------------------------


def obs_budget() -> float:
    return float(os.environ.get("OBS_OVERHEAD_BUDGET", "0.02"))


#: The E4 query set is ~50 ms; loop it so the obs timed region is long
#: enough that a 2 % budget is above the host's timing noise floor.
OBS_E4_LOOPS = 4


def _measure_obs_once(rounds: int) -> dict:
    """One drift-cancelling overhead measurement for E1 and E4.

    Each round runs ABBA order (plain, noop, noop, plain) per bench and
    the overhead is the ratio of the *totals* — linear host-speed drift
    within a round cancels, and totals average out per-run noise that a
    min-vs-min comparison amplifies.
    """
    totals: dict[str, dict[str, float]] = {
        "e1": {"plain": 0.0, "noop": 0.0},
        "e4": {"plain": 0.0, "noop": 0.0},
    }

    def e1(tracer: Tracer | None = None) -> float:
        return measure_network_once(tracer=tracer)["profile"]["wall_s"]

    def e4(tracer: Tracer | None = None) -> float:
        return run_exec_e4(tracer=tracer, loops=OBS_E4_LOOPS)["wall_s"]

    for bench, run in (("e1", e1), ("e4", e4)):
        for _ in range(rounds):
            totals[bench]["plain"] += run()
            totals[bench]["noop"] += run(Tracer(enabled=False))
            totals[bench]["noop"] += run(Tracer(enabled=False))
            totals[bench]["plain"] += run()
    measured = {}
    for name, sides in totals.items():
        plain, noop = sides["plain"], sides["noop"]
        measured[name] = {
            "rounds": rounds,
            "plain_wall_s": round(plain, 4),
            "noop_wall_s": round(noop, 4),
            "overhead": round(noop / plain - 1, 4),
        }
    return measured


def measure_obs(repeats: int) -> dict:
    """Disabled-tracer overhead for E1 and E4, noise-hardened.

    Up to three measurement attempts; each bench keeps its best
    (lowest) observed overhead.  A real no-op-path regression — code on
    the disabled path, not timing noise — shows up in every attempt, so
    the gate only fails when no attempt lands within budget.  There is
    no committed baseline for this suite; the gate is purely relative.
    """
    rounds = max((repeats + 1) // 2, 2)
    budget = obs_budget()
    best: dict[str, dict] = {}
    attempts = 0
    for _ in range(3):
        attempts += 1
        for name, run in _measure_obs_once(rounds).items():
            if name not in best or run["overhead"] < best[name]["overhead"]:
                best[name] = run
        if all(run["overhead"] <= budget for run in best.values()):
            break
    for run in best.values():
        run["attempts"] = attempts
    return best


def check_obs_gates(measured: dict, wall_gate: bool) -> list[str]:
    if not wall_gate:
        return []
    failures = []
    budget = obs_budget()
    for name, run in measured.items():
        if run["overhead"] > budget:
            failures.append(
                f"disabled-tracer overhead on {name!r}:"
                f" {run['noop_wall_s']:.3f}s vs {run['plain_wall_s']:.3f}s plain"
                f" (+{run['overhead'] * 100:.1f}%, budget {budget * 100:.0f}%)"
                " — the no-op tracing path must stay one None-test per event"
            )
    return failures


# ---------------------------------------------------------------------------
# Columnar suite: batch kernels vs row-at-a-time references (ISSUE 7).
# ---------------------------------------------------------------------------

#: Deterministic micro-bench workload: wide enough for kernels to
#: dominate, seeded so output digests are pinnable.
COLUMNAR_MICRO = {"rows": 12_000, "right_rows": 1_200, "keys": 600, "seed": 42}

#: Inner loops per timed region so every micro bench runs long enough
#: (tens of ms) for a 30 % wall gate to sit above host timing noise.
COLUMNAR_LOOPS = {"filter": 10, "project": 10, "join": 3, "agg": 5, "split": 5}

#: Operator chains of the repo benchmark's shapes (ISSUE 13), over the
#: same 12 000 Wisconsin rows as E4: one generated kernel per chain
#: against one operator call per op.  name -> (loops, stages).
COLUMNAR_CHAINS = {
    # serving_mix's full-table aggregate: Project[v] -> partial aggregate.
    "chain_project_agg": (
        20,
        (
            (("project", (col(0),)),),
            (
                aggregate_op(
                    (),
                    [("count", None), ("sum", col(0)), ("min", col(0)), ("max", col(0))],
                ),
            ),
        ),
    ),
    # analytic_closure's selection: filter -> COUNT(*).
    "chain_filter_count": (
        30,
        (
            (("select", Comparison("=", col(6), lit(7))),),
            (aggregate_op((), [("count", None)]),),
        ),
    ),
    # ... its GROUP BY: Project[ten, unique1] -> grouped aggregate.
    "chain_project_group": (
        10,
        (
            (("project", (col(4), col(0))),),
            (aggregate_op((0,), [("count", None), ("sum", col(1))]),),
        ),
    ),
    # ... its top-N: Project[unique1, stringu1] -> per-site cut.
    "chain_project_topn": (
        3,
        ((("project", (col(0), col(13))),), (("topn", ((0, False),), 10, 0),)),
    ),
}


def _columnar_rows(n: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    keys = COLUMNAR_MICRO["keys"]
    return [(i, rng.randrange(keys), rng.randrange(10), rng.random()) for i in range(n)]


def _columnar_micro_benches() -> dict:
    """name -> (batch_thunk, row_thunk) over identical deterministic data.

    Both thunks must return the same value; the batch side is what the
    wall gate and the digest pin run against, the row side exists for
    the informational speedup and as an in-run correctness oracle.
    """
    p = COLUMNAR_MICRO
    rows = _columnar_rows(p["rows"], p["seed"])
    right = _columnar_rows(p["right_rows"], p["seed"] + 1)
    meter = WorkMeter()  # row references need one; output never depends on it
    evaluator = Evaluator()

    pred_expr = Comparison("<", col(1), lit(COLUMNAR_MICRO["keys"] // 2))
    pred_kernel = compile_batch_predicate(pred_expr)
    pred_fn, _ = evaluator.predicate(pred_expr)

    proj_exprs = [col(2), col(0)]
    proj_kernel = compile_batch_projector(proj_exprs)
    proj_fn, _ = evaluator.projector(proj_exprs)

    join_kernel = compile_join_kernel((1,), (1,))

    aggregates = [("count", None), ("sum", col(0)), ("min", col(3))]
    agg_kernel = compile_agg_kernel((2,), aggregates)
    agg_specs = [
        AggSpec("count", None),
        AggSpec("sum", lambda r: r[0]),
        AggSpec("min", lambda r: r[3]),
    ]

    splitter = compile_splitter((0,), 8)

    def split_by_reference():
        buckets = [[] for _ in range(8)]
        for row in rows:
            buckets[reference_bucket(row, (0,), 8)].append(row)
        return buckets

    wisc = list(generate_rows(EXEC_E4["rows"], EXEC_E4["seed"]))
    row_evaluator = Evaluator(batch=False)

    def chain(runner, stages):
        # Meters are part of the result: the fused chain must charge
        # each stage what the operators charge themselves.
        meters = [WorkMeter() for _ in stages]
        out = runner.pipeline(stages).run(wisc, meters, rescan=True)
        return out, [(m.tuples, m.hashes, m.compares) for m in meters]

    chains = {
        name: (
            lambda stages=stages: chain(evaluator, stages),
            lambda stages=stages: chain(row_evaluator, stages),
        )
        for name, (_loops, stages) in COLUMNAR_CHAINS.items()
    }
    return chains | {
        "filter": (
            lambda: pred_kernel(rows),
            lambda: select_rows(rows, pred_fn, meter),
        ),
        "project": (
            lambda: proj_kernel(rows),
            lambda: project_rows(rows, proj_fn, meter),
        ),
        "join": (
            lambda: join_kernel(rows, right),
            lambda: hash_join(
                rows, right, lambda r: (r[1],), lambda r: (r[1],), meter
            ),
        ),
        "agg": (
            lambda: agg_kernel(rows),
            lambda: aggregate_rows(rows, lambda r: (r[2],), agg_specs, meter),
        ),
        "split": (
            lambda: splitter(rows),
            split_by_reference,
        ),
    }


def measure_columnar(repeats: int) -> dict:
    measured: dict = {"micro": {}, "rerun": {}}
    for name, (batch_fn, row_fn) in _columnar_micro_benches().items():
        loops = COLUMNAR_LOOPS.get(name) or COLUMNAR_CHAINS[name][0]
        batch_walls, row_walls = [], []
        outputs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(loops):
                out = batch_fn()
            batch_walls.append(time.perf_counter() - start)
            outputs.append(out)
            start = time.perf_counter()
            for _ in range(loops):
                ref = row_fn()
            row_walls.append(time.perf_counter() - start)
        for out in outputs[1:]:
            if out != outputs[0]:
                raise AssertionError(
                    f"columnar micro-bench {name!r} is not deterministic"
                    " across same-process repeats"
                )
        if ref != outputs[0]:
            raise AssertionError(
                f"columnar micro-bench {name!r}: batch kernel and row"
                " reference disagree — the batch engine changed results"
            )
        wall, row_wall = min(batch_walls), min(row_walls)
        measured["micro"][name] = {
            "loops": loops,
            "wall_s": wall,
            "wall_s_all": [round(w, 4) for w in batch_walls],
            "row_wall_s": round(row_wall, 4),
            "speedup_vs_row": round(row_wall / wall, 2) if wall > 0 else 0.0,
            "mrows_per_s": round(loops * COLUMNAR_MICRO["rows"] / wall / 1e6, 2),
            "digest": _digest(outputs[0]),
        }
    # Whole-pipeline A/B: same database, batch path flipped off.  The
    # simulated fingerprint (result digests, response times, messages,
    # bytes, busy totals) must be IDENTICAL either way.
    for name, bench in (("e4", run_exec_e4), ("closure", run_exec_closure)):
        batch_runs = [bench() for _ in range(repeats)]
        row_runs = [bench(batch=False) for _ in range(repeats)]
        for run in batch_runs + row_runs:
            if run["fingerprint"] != batch_runs[0]["fingerprint"]:
                raise AssertionError(
                    f"columnar A/B drift on {name!r}: batch and row paths"
                    " must produce identical simulated fingerprints — got"
                    f" {run['fingerprint']} vs {batch_runs[0]['fingerprint']}"
                )
        batch_wall = min(run["wall_s"] for run in batch_runs)
        row_wall = min(run["wall_s"] for run in row_runs)
        measured["rerun"][name] = {
            "batch_wall_s": round(batch_wall, 4),
            "row_wall_s": round(row_wall, 4),
            "speedup_vs_row": round(row_wall / batch_wall, 2),
            "fingerprints_identical": True,
        }
    return measured


def check_columnar_gates(
    measured: dict, baseline: dict, wall_gate: bool
) -> list[str]:
    failures = []
    threshold = wall_threshold()
    entries = baseline.get("columnar", {}).get("micro", {})
    for name, run in measured["micro"].items():
        entry = entries.get(name)
        if entry is None:
            failures.append(f"columnar micro-bench {name!r} has no committed baseline")
            continue
        if run["digest"] != entry["expected"]:
            failures.append(
                f"columnar output drift on {name!r}: kernel output digest"
                f" {run['digest']} no longer matches pinned"
                f" {entry['expected']} — batch kernels changed results;"
                " regenerate benchmarks/perf_baseline.json deliberately"
            )
        wall, base_wall = run["wall_s"], entry["committed"]["wall_s"]
        if wall_gate and wall > base_wall * (1 + threshold):
            failures.append(
                f"columnar wall-clock regression on {name!r}: {wall:.4f}s vs"
                f" baseline {base_wall:.4f}s"
                f" (+{(wall / base_wall - 1) * 100:.1f}%,"
                f" limit {threshold * 100:.0f}%)"
            )
    # The batch path exists to be faster; if it falls behind the row
    # path by more than the wall threshold on the E4 pipeline, the
    # engine has regressed to worse than what it replaced.
    e4 = measured["rerun"].get("e4")
    if wall_gate and e4 and e4["batch_wall_s"] > e4["row_wall_s"] * (1 + threshold):
        failures.append(
            f"columnar batch path slower than row path on e4:"
            f" {e4['batch_wall_s']:.3f}s batch vs {e4['row_wall_s']:.3f}s row"
        )
    return failures


# ---------------------------------------------------------------------------
# Gates.
# ---------------------------------------------------------------------------


def check_network_fingerprint(measured: dict, baseline: dict) -> list[str]:
    problems = []
    expected = baseline.get("expected_stats", {})
    stats = measured["stats"]
    for key, want in expected.items():
        got = stats.get(key)
        if got != want:
            problems.append(
                f"determinism fingerprint mismatch: {key} = {got}, baseline"
                f" pinned {want} — simulation results changed; regenerate"
                " benchmarks/perf_baseline.json and tests/golden/ deliberately"
            )
    return problems


def wall_threshold() -> float:
    return float(os.environ.get("PERF_GATE_MAX_REGRESSION", "0.30"))


def check_network_gates(measured: dict, baseline: dict, wall_gate: bool) -> list[str]:
    failures = []
    committed = baseline["committed"]
    profile = measured["profile"]
    events, base_events = profile["events_fired"], committed["events_fired"]
    if events > base_events * 1.05:
        failures.append(
            f"event-count regression: {events} fired vs baseline"
            f" {base_events} (+{(events / base_events - 1) * 100:.1f}%, limit 5%)"
        )
    threshold = wall_threshold()
    wall, base_wall = profile["wall_s"], committed["wall_s"]
    if wall_gate and wall > base_wall * (1 + threshold):
        failures.append(
            f"wall-clock regression: {wall:.3f}s vs baseline {base_wall:.3f}s"
            f" (+{(wall / base_wall - 1) * 100:.1f}%, limit {threshold * 100:.0f}%)"
        )
    return failures


def check_executor_gates(
    measured: dict, baseline: dict, wall_gate: bool
) -> list[str]:
    failures = []
    threshold = wall_threshold()
    entries = baseline.get("executor", {})
    for name, run in measured.items():
        entry = entries.get(name)
        if entry is None:
            failures.append(f"executor bench {name!r} has no committed baseline")
            continue
        if run["fingerprint"] != entry["expected"]:
            failures.append(
                f"executor fingerprint drift on {name!r}: results are no"
                " longer bit-identical to the committed baseline — got"
                f" {run['fingerprint']}, pinned {entry['expected']};"
                " regenerate benchmarks/perf_baseline.json deliberately"
            )
        wall, base_wall = run["wall_s"], entry["committed"]["wall_s"]
        if wall_gate and wall > base_wall * (1 + threshold):
            failures.append(
                f"executor wall-clock regression on {name!r}: {wall:.3f}s vs"
                f" baseline {base_wall:.3f}s"
                f" (+{(wall / base_wall - 1) * 100:.1f}%,"
                f" limit {threshold * 100:.0f}%)"
            )
    return failures


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--suite",
        choices=["all", "network", "executor", "obs", "columnar", "serving",
                 "scale", "rebalance"],
        default="all",
        help="which benchmark family to run",
    )
    parser.add_argument(
        "--no-wall-gate",
        action="store_true",
        help="report wall time but do not fail on it",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite benchmarks/perf_baseline.json from this run",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    report: dict = {"baseline": baseline, "host": platform.platform()}
    failures: list[str] = []
    updating = args.update_baseline or baseline is None
    new_baseline = dict(baseline) if baseline else {}

    if args.suite in ("all", "network"):
        measured = measure_network(args.repeats)
        profile = measured["profile"]
        print(
            f"perf_gate[network]: wall {profile['wall_s']:.3f}s"
            f"  events {profile['events_fired']}"
            f"  {profile['events_per_sec']:,.0f} events/s"
            f"  heap peak {profile['heap_peak']}"
        )
        report["measured"] = measured
        if updating:
            new_baseline.update(
                {
                    "benchmark": (
                        "E1 single load point: 64-PE mesh, 20,000 pps/PE offered,"
                        " 0.01s warmup, 0.02s window, bounded drain, seed 17"
                    ),
                    "pre_rewrite": (baseline or {}).get("pre_rewrite"),
                    "committed": {
                        "wall_s": round(profile["wall_s"], 4),
                        "events_fired": profile["events_fired"],
                        "events_per_sec": round(profile["events_per_sec"]),
                        "heap_peak": profile["heap_peak"],
                        "host": platform.platform(),
                    },
                    "expected_stats": {
                        "injected": measured["stats"]["injected"],
                        "delivered": measured["stats"]["delivered"],
                        "delivered_in_window": measured["stats"]["delivered_in_window"],
                        "in_flight": measured["stats"]["in_flight"],
                    },
                }
            )
        else:
            failures.extend(check_network_fingerprint(measured, baseline))
            failures.extend(
                check_network_gates(measured, baseline, not args.no_wall_gate)
            )
            pre = baseline.get("pre_rewrite")
            if pre:
                speedup = pre["wall_s"] / profile["wall_s"]
                event_cut = 1 - profile["events_fired"] / pre["events_fired"]
                print(
                    f"perf_gate[network]: {speedup:.2f}x faster than the"
                    f" pre-rewrite core ({pre['wall_s']:.3f}s /"
                    f" {pre['events_fired']} events);"
                    f" event count cut by {event_cut * 100:.0f}%"
                )
                report["speedup_vs_pre_rewrite"] = round(speedup, 2)

    if args.suite in ("all", "executor"):
        measured_exec = measure_executor(args.repeats)
        report["executor"] = measured_exec
        for name, run in measured_exec.items():
            print(f"perf_gate[executor/{name}]: wall {run['wall_s']:.3f}s")
        if updating:
            existing = (baseline or {}).get("executor", {})
            new_baseline["executor"] = {}
            for name, run in measured_exec.items():
                prior = existing.get(name, {})
                # The first --update-baseline run (pre-rewrite engine)
                # pins pre_rewrite; later updates keep it for the
                # speedup report.
                pre_entry = prior.get("pre_rewrite") or {
                    "wall_s": round(run["wall_s"], 4)
                }
                new_baseline["executor"][name] = {
                    "pre_rewrite": pre_entry,
                    "committed": {
                        "wall_s": round(run["wall_s"], 4),
                        "host": platform.platform(),
                    },
                    "expected": run["fingerprint"],
                }
        else:
            failures.extend(
                check_executor_gates(
                    measured_exec, baseline, not args.no_wall_gate
                )
            )
            for name, run in measured_exec.items():
                pre = baseline.get("executor", {}).get(name, {}).get("pre_rewrite")
                if pre and pre.get("wall_s"):
                    speedup = pre["wall_s"] / run["wall_s"]
                    print(
                        f"perf_gate[executor/{name}]: {speedup:.2f}x faster"
                        f" than the pre-rewrite executor ({pre['wall_s']:.3f}s)"
                    )
                    report.setdefault("executor_speedup_vs_pre_rewrite", {})[
                        name
                    ] = round(speedup, 2)

    if args.suite in ("all", "obs"):
        measured_obs = measure_obs(args.repeats)
        report["obs"] = measured_obs
        for name, run in measured_obs.items():
            print(
                f"perf_gate[obs/{name}]: plain {run['plain_wall_s']:.3f}s"
                f"  noop-tracer {run['noop_wall_s']:.3f}s"
                f"  overhead {run['overhead'] * 100:+.1f}%"
                f" (budget {obs_budget() * 100:.0f}%)"
            )
        failures.extend(check_obs_gates(measured_obs, not args.no_wall_gate))

    if args.suite in ("all", "columnar"):
        measured_col = measure_columnar(args.repeats)
        report["columnar"] = measured_col
        for name, run in measured_col["micro"].items():
            print(
                f"perf_gate[columnar/{name}]: batch {run['wall_s'] * 1000:.1f}ms"
                f"  row {run['row_wall_s'] * 1000:.1f}ms"
                f"  {run['speedup_vs_row']:.2f}x"
                f"  ({run['loops']} loops)"
            )
        for name, run in measured_col["rerun"].items():
            print(
                f"perf_gate[columnar/{name}-ab]: batch {run['batch_wall_s']:.3f}s"
                f"  row {run['row_wall_s']:.3f}s"
                f"  {run['speedup_vs_row']:.2f}x"
                "  (fingerprints identical)"
            )
        if updating:
            new_baseline["columnar"] = {
                "benchmark": (
                    "batch kernels over 12k seeded rows (filter/project/"
                    "join/agg/split) plus E4 and closure batch-vs-row A/B"
                ),
                "micro": {
                    name: {
                        "committed": {
                            "wall_s": round(run["wall_s"], 4),
                            "host": platform.platform(),
                        },
                        "expected": run["digest"],
                    }
                    for name, run in measured_col["micro"].items()
                },
            }
        else:
            failures.extend(
                check_columnar_gates(measured_col, baseline, not args.no_wall_gate)
            )

    if args.suite in ("all", "serving"):
        measured_srv = measure_serving(args.repeats)
        report["serving"] = measured_srv
        print(
            f"perf_gate[serving]: wall {measured_srv['wall_s']:.3f}s"
            f"  {measured_srv['throughput_ops']:.1f} ops/s (simulated)"
            f"  plan-cache hit rate {measured_srv['hit_rate']:.3f}"
        )
        if updating:
            new_baseline["serving"] = {
                "benchmark": (
                    "100 concurrent DBAPI sessions, 800-op Zipf OLTP/analytics"
                    " mix, 8-slot admission, seed 42 (bench_serving.py)"
                ),
                "committed": {
                    "wall_s": round(measured_srv["wall_s"], 4),
                    "host": platform.platform(),
                },
                "expected": measured_srv["fingerprint"],
            }
        else:
            failures.extend(
                check_serving_gates(measured_srv, baseline, not args.no_wall_gate)
            )

    if args.suite in ("all", "scale"):
        measured_scale = measure_scale(args.repeats)
        report["scale"] = measured_scale
        print(
            f"perf_gate[scale]: wall {measured_scale['wall_s']:.3f}s"
            f"  1024-PE smoke {measured_scale['smoke_wall_s'] * 1000:.1f}ms"
            "  (tables "
            + ", ".join(
                f"{topology} {run['table_bytes'] / 1024:.1f}KiB"
                for topology, run in measured_scale["smoke"].items()
            )
            + ")"
        )
        if updating:
            new_baseline["scale"] = {
                "benchmark": (
                    "64-PE mesh + chordal-ring scale points (construction,"
                    " E1-style load point, 160-op serving mix) plus 1024-PE"
                    " lazy-construction smoke (bench_scaling.py)"
                ),
                "committed": {
                    "wall_s": round(measured_scale["wall_s"], 4),
                    "smoke_wall_s": round(measured_scale["smoke_wall_s"], 4),
                    "host": platform.platform(),
                },
                "expected": measured_scale["fingerprint"],
            }
        else:
            failures.extend(
                check_scale_gates(measured_scale, baseline, not args.no_wall_gate)
            )

    if args.suite in ("all", "rebalance"):
        measured_reb = measure_rebalance(args.repeats)
        report["rebalance"] = measured_reb
        fp = measured_reb["fingerprint"]
        print(
            f"perf_gate[rebalance]: wall {measured_reb['wall_s']:.3f}s"
            f"  actions {len(fp['actions'])}"
            f"  fragments -> {fp['fragments_after']}"
            f"  oracle {'ok' if measured_reb['oracle_ok'] else 'FAILED'}"
            f"  p99 {'improved' if measured_reb['p99_improved'] else 'FLAT'}"
        )
        if updating:
            new_baseline["rebalance"] = {
                "benchmark": (
                    "64-PE mesh rebalancing A/B: 240-op Zipf-1.5 profile +"
                    " measure phases, 3 rebalancer rounds vs none, end-state"
                    " row oracle (bench_scaling.py --rebalance)"
                ),
                "committed": {
                    "wall_s": round(measured_reb["wall_s"], 4),
                    "host": platform.platform(),
                },
                "expected": measured_reb["fingerprint"],
            }
        else:
            failures.extend(
                check_rebalance_gates(measured_reb, baseline, not args.no_wall_gate)
            )

    if updating:
        BASELINE_PATH.write_text(json.dumps(new_baseline, indent=2) + "\n")
        print(f"perf_gate: baseline written to {BASELINE_PATH}")
        report["baseline"] = new_baseline

    report["gate"] = {"passed": not failures, "failures": failures}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"perf_gate: report written to {RESULTS_PATH}")

    for failure in failures:
        print(f"perf_gate: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print("perf_gate: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
