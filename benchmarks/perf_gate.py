"""Determinism gate: pinned simulated-clock fingerprints plus in-run host ratios.

Everything this repo claims about PRISMA is a figure on the *simulated*
clock, so it is host independent and pinned exactly:
``benchmarks/perf_baseline.json`` maps each suite to the fingerprint its
workload must reproduce bit for bit.  A suite is one :data:`SUITES`
entry — ``run()`` builds the workload and returns ``{"wall_s",
"fingerprint", ...facts}`` (a ``summary`` fact is printed), ``check(run)``
returns a message per broken invariant that no baseline can express —
and :func:`gate` judges every suite the same way: run it ``--repeats``
times, fail if the repeats disagree, fail if the best run drifted from
the pin (naming the keys), collect the invariants.

**Host time is judged only as a ratio measured inside one run, never
against a number from another host**: the disabled tracer costs at most
:data:`OBS_OVERHEAD_BUDGET` over no tracer (``obs``), and the generated
kernels are not slower than the row loops they replace by more than
:data:`KERNEL_SLACK` (``e4``, ``columnar``).  Walls are printed, not
gated — whether a change made the system faster is the repo benchmark's
question (``benchmarks/e2e/README.md``: parent and change side by side).

The suites are the sections of this file, in :data:`SUITES` order; each
``run_*`` docstring names its workload.  ``obs`` has no fingerprint, so
it is the one entry :func:`main` runs outside :func:`gate`.

A fingerprint mismatch means simulation *results* changed: re-pin with
``--update-baseline`` (and regenerate ``tests/golden/``) deliberately,
in a commit that argues for the new numbers.

Run::

    python benchmarks/perf_gate.py                 # gate every suite
    python benchmarks/perf_gate.py --suite obs     # one suite
    python benchmarks/perf_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
for _path in (str(HERE.parent / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import MachineConfig, PrismaDB, Tracer  # noqa: E402
from repro.core.workload import InterleavedDriver  # noqa: E402
from repro.exec import batch as kernels  # noqa: E402
from repro.exec import operators as rowops  # noqa: E402
from repro.exec.evaluation import Evaluator  # noqa: E402
from repro.exec.expressions import Comparison, col, lit  # noqa: E402
from repro.exec.operators import WorkMeter  # noqa: E402
from repro.exec.pipeline import aggregate_op  # noqa: E402
from repro.exec.shuffle import compile_splitter, reference_bucket  # noqa: E402
from repro.machine import MachineNodesView, PacketNetwork  # noqa: E402
from repro.machine.traffic import run_load_point  # noqa: E402
from repro.workloads import load_edges, load_wisconsin, random_dag, setup_bank  # noqa: E402
from repro.workloads.wisconsin import generate_rows  # noqa: E402

import bench_scaling  # noqa: E402
import bench_serving  # noqa: E402
from _harness import digest  # noqa: E402

BASELINE_PATH = HERE / "perf_baseline.json"

#: A generated kernel may be this much slower than the row loop it replaces.
KERNEL_SLACK = 0.30
#: A disabled tracer may cost this much over none: one ``is not None`` per event.
OBS_OVERHEAD_BUDGET = 0.02
#: The serving mix has four statement templates; each misses once.
HIT_RATE_FLOOR = 0.99
#: Router tables at 1024 PEs must stay O(links); a dense all-pairs
#: next-hop + distance pair would be ~8 MiB.
SMOKE_NODES = 1024
SMOKE_TABLE_LIMIT = 128 * 1024
#: The packet counters every load point pins.
PACKET_COUNTERS = ("injected", "delivered", "delivered_in_window", "in_flight")


@dataclass(frozen=True)
class Suite:
    """One gated workload: how to run it and what must hold of a run."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]] = lambda run: []


def drifted(pinned: object, got: object, path: str = "") -> list[str]:
    """One ``"key: got != pinned"`` per leaf where *got* left *pinned*."""
    if isinstance(pinned, dict) and isinstance(got, dict):
        return [
            message
            for key in dict.fromkeys([*pinned, *got])
            for message in drifted(pinned.get(key), got.get(key), f"{path}.{key}" if path else key)
        ]
    if isinstance(pinned, list) and isinstance(got, list) and len(pinned) == len(got):
        return [
            message
            for index, pair in enumerate(zip(pinned, got))
            for message in drifted(*pair, f"{path}[{index}]")
        ]
    return [] if pinned == got else [f"{path}: {got!r} != {pinned!r}"]


def gate(suite: Suite, repeats: int, pins: dict, update: bool = False) -> tuple[dict, list[str]]:
    """Run *suite* ``repeats`` times and judge it against ``pins[suite.name]``.

    Returns the best (fastest) run and what is wrong with it.  With
    *update* the run's fingerprint becomes the pin — unless the repeats
    disagree, which nothing may pin.
    """
    runs = [suite.run() for _ in range(repeats)]
    best = min(runs, key=lambda run: run["wall_s"])
    fingerprint = best["fingerprint"]
    failures = []
    unstable = [where for run in runs for where in drifted(fingerprint, run["fingerprint"])]
    if unstable:
        failures.append(
            "not deterministic across same-process repeats — "
            + "; ".join(dict.fromkeys(unstable))
        )
    elif update:
        pins[suite.name] = fingerprint
    if suite.name not in pins:
        failures.append("no committed baseline")
    else:
        failures.extend(
            f"fingerprint drift at {where} (pinned) — simulation results changed;"
            " re-pin benchmarks/perf_baseline.json deliberately"
            for where in drifted(pins[suite.name], fingerprint)
        )
    return best, failures + suite.check(best)


# -- kernels against the row loops they replace ---------------------------------
# A run that has both sides carries ``row_fingerprint`` and ``walls``:
# label -> (kernel seconds, row-loop seconds), timed in the same run.


def versus(walls: dict[str, tuple[float, float]]) -> str:
    return "kernel vs row loop" + "".join(
        f"\n  {label}: {kernel_s * 1000:.1f}ms vs {row_s * 1000:.1f}ms"
        f"  {row_s / kernel_s:.2f}x"
        for label, (kernel_s, row_s) in walls.items()
    )


def check_rows_agree(run: dict) -> list[str]:
    """The batch engine is a host-CPU strategy, never a semantics change:
    the row side must meet the same fingerprint, hence the same pin."""
    return [
        f"row loops and batch kernels disagree at {where} (batch)"
        for where in drifted(run["fingerprint"], run["row_fingerprint"])
    ]


def check_kernels(run: dict) -> list[str]:
    return check_rows_agree(run) + [
        f"{label}: generated kernel slower than the row loop it replaces:"
        f" {kernel_s * 1000:.1f}ms vs {row_s * 1000:.1f}ms (slack {KERNEL_SLACK * 100:.0f}%)"
        for label, (kernel_s, row_s) in run["walls"].items()
        if kernel_s > row_s * (1 + KERNEL_SLACK)
    ]


def batch_then_rows(bench: Callable[..., dict]) -> Callable[[], dict]:
    """*bench* on the batch kernels (what the pin judges), then once more
    with every evaluator switched to the row loops."""

    def run() -> dict:
        batch, rows = bench(), bench(batch=False)
        walls = {"queries": (batch["wall_s"], rows["wall_s"])}
        return batch | {
            "row_fingerprint": rows["fingerprint"],
            "walls": walls,
            "summary": versus(walls),
        }

    return run


# -- network: the E1 acceptance point (paper section 3.2) -----------------------


def run_network(tracer: Tracer | None = None) -> dict:
    """64-PE mesh, 20 000 packets/s/PE offered, 0.01 s warmup + 0.02 s
    window, bounded drain, seed 17."""
    network = PacketNetwork(MachineConfig(n_nodes=64, topology="mesh"), tracer=tracer)
    start = time.perf_counter()
    stats = run_load_point(network, 20_000, warmup_s=0.01, measure_s=0.02, seed=17)
    wall = time.perf_counter() - start
    events, heap_peak = network.loop.events_fired_total, network.loop.heap_peak
    return {
        "wall_s": wall,
        # Event count and heap peak are as deterministic as the packet
        # counters: one extra event per hop is drift, not a 5 % band.
        "fingerprint": {key: stats[key] for key in PACKET_COUNTERS}
        | {"events_fired": events, "heap_peak": heap_peak},
        "summary": f"{events} events  {events / wall:,.0f} events/s  heap peak {heap_peak}",
    }


# -- e4 / closure / e8: the executor hot path -----------------------------------

#: The Wisconsin relation the E4 queries and the columnar chains scan.
WISCONSIN = {"rows": 12_000, "seed": 42}

#: Selection, two-phase aggregate, co-partitioned join, repartition join
#: (unique1 is NOT the fragmentation column), distinct shuffle.
E4_QUERIES = [
    "SELECT COUNT(*) FROM wisc WHERE fiftypercent = 0",
    "SELECT ten, SUM(unique1) FROM wisc GROUP BY ten",
    "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique2 = b.unique2",
    "SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1",
    "SELECT DISTINCT onepercent FROM wisc",
]


def _use_row_loops(db: PrismaDB) -> None:
    db.gdh.executor.evaluator.batch = False
    for ofm in db.gdh.fragment_ofms.values():
        ofm.evaluator.batch = False


def _simulated_cost(result) -> dict:
    return {
        "response_s": repr(result.response_time),
        "messages": result.report.messages,
        "bytes": result.report.bytes_shipped,
    }


def _busy_total(db: PrismaDB) -> dict:
    return {"busy_total": MachineNodesView(db.machine).stats()["busy_total"]}


def run_e4(tracer: Tracer | None = None, loops: int = 1, batch: bool = True) -> dict:
    """Fragment-parallel query set over 8 Wisconsin fragments on 64 PEs.

    The pinned run makes one pass over the queries; the obs suite loops
    them so its timed region is long enough to judge a 2 % budget.
    """
    db = PrismaDB(MachineConfig(n_nodes=64, disk_nodes=(0, 32)), tracer=tracer)
    load_wisconsin(db, "wisc", WISCONSIN["rows"], fragments=8, seed=WISCONSIN["seed"])
    db.quiesce()
    if not batch:
        _use_row_loops(db)
    start = time.perf_counter()
    queries = []
    for _ in range(loops):
        for sql in E4_QUERIES:
            result = db.execute(sql)
            queries.append({"rows": digest(result.rows)} | _simulated_cost(result))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "fingerprint": {"queries": queries} | _busy_total(db)}


def run_closure(batch: bool = True) -> dict:
    """E6/A3: distributed semi-naive transitive closure of a 500-vertex,
    3 000-edge DAG (seed 9) over 8 fragments on 32 PEs."""
    db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0,)))
    load_edges(db, "e", random_dag(500, 3_000, seed=9), fragments=8)
    db.quiesce()
    if not batch:
        _use_row_loops(db)
    start = time.perf_counter()
    result = db.execute("SELECT COUNT(*) FROM CLOSURE(e)")
    wall = time.perf_counter() - start
    fingerprint = {"pairs": result.rows[0][0]} | _simulated_cost(result) | _busy_total(db)
    return {"wall_s": wall, "fingerprint": fingerprint}


def run_e8() -> dict:
    """E8: 16 bank clients x 6 transactions on 16 disjoint fragments."""
    db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0, 16)))
    setup_bank(db, 64, 16)
    db.quiesce()
    scripts = [
        [
            [
                f"UPDATE account SET balance = balance + 1 WHERE id = {client}",
                f"SELECT balance FROM account WHERE id = {client}",
            ]
            for _ in range(6)
        ]
        for client in range(16)
    ]
    start = time.perf_counter()
    outcome = InterleavedDriver(db).run(scripts)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "fingerprint": {
            "committed": outcome.transactions_committed,
            "throughput_tps": repr(outcome.throughput_tps),
            "lock_waits": outcome.lock_waits,
        },
    }


# -- obs: disabled-tracer overhead on the two hot paths -------------------------

#: The E4 query set is ~50 ms; loop it so the timed region is long
#: enough that a 2 % budget is above the host's timing noise floor.
OBS_E4_LOOPS = 4
OBS_ROUNDS = 2
OBS_ATTEMPTS = 3


def _tracer_overhead(bench: Callable[..., dict]) -> dict:
    """One drift-cancelling measurement of *bench* with a disabled tracer.

    Each round runs ABBA order (plain, noop, noop, plain) and the
    overhead is the ratio of the *totals* — linear host-speed drift
    within a round cancels, and totals average out per-run noise that a
    min-vs-min comparison amplifies.
    """
    plain = noop = 0.0
    for _ in range(OBS_ROUNDS):
        plain += bench()["wall_s"]
        noop += bench(Tracer(enabled=False))["wall_s"]
        noop += bench(Tracer(enabled=False))["wall_s"]
        plain += bench()["wall_s"]
    return {"plain_wall_s": plain, "noop_wall_s": noop, "overhead": noop / plain - 1}


def run_obs() -> dict:
    """Each bench keeps the lowest overhead of up to three attempts.

    A real no-op-path regression — code on the disabled path, not timing
    noise — shows up in every attempt, so the check only fails when no
    attempt lands within budget.
    """
    benches = {
        "e1": run_network,
        "e4": lambda tracer=None: run_e4(tracer, loops=OBS_E4_LOOPS),
    }
    start = time.perf_counter()
    best = {}
    for name, bench in benches.items():
        attempts = [_tracer_overhead(bench)]
        while attempts[-1]["overhead"] > OBS_OVERHEAD_BUDGET and len(attempts) < OBS_ATTEMPTS:
            attempts.append(_tracer_overhead(bench))
        best[name] = min(attempts, key=lambda attempt: attempt["overhead"])
    return {
        "wall_s": time.perf_counter() - start,
        "overheads": best,
        "summary": "  ".join(
            f"{name} {run['overhead'] * 100:+.1f}%" for name, run in best.items()
        )
        + f"  (budget {OBS_OVERHEAD_BUDGET * 100:.0f}%)",
    }


def check_obs(run: dict) -> list[str]:
    return [
        f"disabled-tracer overhead on {name!r}: {bench['noop_wall_s']:.3f}s vs"
        f" {bench['plain_wall_s']:.3f}s plain (+{bench['overhead'] * 100:.1f}%, budget"
        f" {OBS_OVERHEAD_BUDGET * 100:.0f}%) — the no-op path must stay one None-test per event"
        for name, bench in run["overheads"].items()
        if bench["overhead"] > OBS_OVERHEAD_BUDGET
    ]


# -- columnar: batch kernels vs row-at-a-time references ------------------------

#: Operator chains of the repo benchmark's shapes, over the same 12 000
#: Wisconsin rows as E4: one generated kernel per chain against one
#: operator call per op.  name -> (loops per timed region, stages).
COLUMNAR_CHAINS = {
    # serving_mix's full-table aggregate: Project[v] -> partial aggregate.
    "chain_project_agg": (
        20,
        (
            (("project", (col(0),)),),
            (
                aggregate_op(
                    (), [("count", None), ("sum", col(0)), ("min", col(0)), ("max", col(0))]
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
    """Seeded ``(id, key < 600, digit, float)`` rows, so digests are pinnable."""
    rng = random.Random(seed)
    return [(i, rng.randrange(600), rng.randrange(10), rng.random()) for i in range(n)]


def _columnar_benches() -> dict[str, tuple]:
    """name -> (loops per timed region, kernel thunk, row thunk).

    Both thunks run over identical data and must return the same value:
    the kernel's output is what the digest pins, the row reference is
    the in-run oracle and the other side of the wall ratio.
    """
    rows, right = _columnar_rows(12_000, 42), _columnar_rows(1_200, 43)
    meter = WorkMeter()  # row references need one; output never depends on it
    evaluator, row_evaluator = Evaluator(), Evaluator(batch=False)

    pred_expr = Comparison("<", col(1), lit(300))
    pred_kernel = kernels.compile_batch_predicate(pred_expr)
    pred_fn, _ = evaluator.predicate(pred_expr)

    proj_exprs = [col(2), col(0)]
    proj_kernel = kernels.compile_batch_projector(proj_exprs)
    proj_fn, _ = evaluator.projector(proj_exprs)

    join_kernel = kernels.compile_join_kernel((1,), (1,))

    agg_kernel = kernels.compile_agg_kernel(
        (2,), [("count", None), ("sum", col(0)), ("min", col(3))]
    )
    agg_specs = [
        rowops.AggSpec("count", None),
        rowops.AggSpec("sum", lambda r: r[0]),
        rowops.AggSpec("min", lambda r: r[3]),
    ]

    splitter = compile_splitter((0,), 8)

    def split_by_reference():
        buckets = [[] for _ in range(8)]
        for row in rows:
            buckets[reference_bucket(row, (0,), 8)].append(row)
        return buckets

    wisc = list(generate_rows(WISCONSIN["rows"], WISCONSIN["seed"]))

    def chain(runner, stages):
        # Meters are part of the result: the fused chain must charge
        # each stage what the operators charge themselves.
        meters = [WorkMeter() for _ in stages]
        out = runner.pipeline(stages).run(wisc, meters, rescan=True)
        return out, [(m.tuples, m.hashes, m.compares) for m in meters]

    chains = {
        name: (
            loops,
            lambda stages=stages: chain(evaluator, stages),
            lambda stages=stages: chain(row_evaluator, stages),
        )
        for name, (loops, stages) in COLUMNAR_CHAINS.items()
    }
    return {
        "filter": (
            10,
            lambda: pred_kernel(rows),
            lambda: rowops.select_rows(rows, pred_fn, meter),
        ),
        "project": (
            10,
            lambda: proj_kernel(rows),
            lambda: rowops.project_rows(rows, proj_fn, meter),
        ),
        "join": (
            3,
            lambda: join_kernel(rows, right),
            lambda: rowops.hash_join(rows, right, lambda r: (r[1],), lambda r: (r[1],), meter),
        ),
        "agg": (
            5,
            lambda: agg_kernel(rows),
            lambda: rowops.aggregate_rows(rows, lambda r: (r[2],), agg_specs, meter),
        ),
        "split": (5, lambda: splitter(rows), split_by_reference),
    } | chains


def _timed(fn: Callable[[], object], loops: int) -> tuple[float, object]:
    """(best wall of two timed regions of *loops* calls, the last output)."""
    walls = []
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(loops):
            out = fn()
        walls.append(time.perf_counter() - start)
    return min(walls), out


def run_columnar() -> dict:
    fingerprint, row_fingerprint, walls = {}, {}, {}
    for name, (loops, kernel_fn, row_fn) in _columnar_benches().items():
        kernel_s, out = _timed(kernel_fn, loops)
        row_s, reference = _timed(row_fn, loops)
        fingerprint[name], row_fingerprint[name] = digest(out), digest(reference)
        walls[name] = (kernel_s, row_s)
    return {
        "wall_s": sum(kernel_s for kernel_s, _ in walls.values()),
        "fingerprint": fingerprint,
        "row_fingerprint": row_fingerprint,
        "walls": walls,
        "summary": versus(walls),
    }


# -- serving / scale / rebalance: the pinned bench_serving and bench_scaling points


def run_serving() -> dict:
    """100 DBAPI sessions, 800-op Zipf OLTP/analytics mix, 8 slots, seed 42."""
    start = time.perf_counter()
    outcome = bench_serving.run_serving()
    wall = time.perf_counter() - start
    cache, admission = outcome["plan_cache"], outcome["admission"]
    return {
        "wall_s": wall,
        "hit_rate": cache["hit_rate"],
        "fingerprint": {
            # The report fingerprint hashes every operation's simulated
            # latency; cache/admission counters pin the serving layer's
            # own behavior (a hit-rate change is a regression even if
            # latencies happened to survive it).
            "report": outcome["fingerprint"],
            "plan_cache": {
                key: cache[key] for key in ("lookups", "hits", "misses", "entries")
            },
            "admission": {
                "admitted": admission["admitted"],
                "delayed": admission["delayed"],
                "total_wait_s": repr(admission["total_wait_s"]),
            },
        },
    }


def check_serving(run: dict) -> list[str]:
    if run["hit_rate"] > HIT_RATE_FLOOR:
        return []
    return [
        f"plan-cache hit rate {run['hit_rate']:.3f} fell to or below the"
        f" {HIT_RATE_FLOOR} floor on the four-template mix"
    ]


def run_scale() -> dict:
    """The 64-PE points (construction, E1-style load point, 160-op serving
    mix) for both topologies, plus the 1024-PE construction smoke."""
    points = {}
    wall = 0.0
    for topology in bench_scaling.SCALE_TOPOLOGIES:
        point = bench_scaling.scale_point(64, topology)
        stats, serving = point["network"], point["serving"]
        wall += point["construction"]["wall_s"] + stats["wall_s"] + serving["wall_s"]
        points[f"{topology}/64"] = {
            # Integer packet counters plus the exact mean latency pin the
            # load point; the serving fingerprint hashes every
            # operation's simulated latency, so any routing or multicast
            # change that moves a single timestamp trips the gate.
            "network": {key: int(stats[key]) for key in PACKET_COUNTERS}
            | {"mean_latency_s": repr(stats["mean_latency_s"])},
            "serving": serving["fingerprint"],
        }
    smoke = {
        topology: bench_scaling.construction_point(SMOKE_NODES, topology)
        for topology in bench_scaling.SCALE_TOPOLOGIES
    }
    return {
        "wall_s": wall,
        "fingerprint": points,
        "smoke": smoke,
        "summary": f"{SMOKE_NODES}-PE builds"
        f" {sum(built['wall_s'] for built in smoke.values()) * 1000:.1f}ms",
    }


def check_scale(run: dict) -> list[str]:
    """Laziness at 1024 PEs: a build that runs any BFS, or grows dense
    tables, has lost the O(links) fast path."""
    return [
        f"{SMOKE_NODES}-PE {topology} construction touched"
        f" {built['touched_destinations']} routing columns (the lazy router builds none)"
        f" and holds {built['table_bytes']} table bytes (limit {SMOKE_TABLE_LIMIT})"
        for topology, built in run["smoke"].items()
        if built["touched_destinations"] or built["table_bytes"] > SMOKE_TABLE_LIMIT
    ]


def run_rebalance() -> dict:
    """64-PE mesh A/B: 240-op Zipf-1.5 profile + measure phases, three
    rebalancer rounds vs none (``bench_scaling.py --rebalance``)."""
    start = time.perf_counter()
    point = bench_scaling.rebalance_ab_point(64, "mesh")
    wall = time.perf_counter() - start
    on, off = point["on"], point["off"]
    return {
        "wall_s": wall,
        "p99_improved": point["p99_improved"],
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


def check_rebalance(run: dict) -> list[str]:
    claims = {
        "row oracle: rows were lost or duplicated": run["fingerprint"]["oracle_ok"],
        "rebalancing no longer improves read p99 on the skewed mix": run["p99_improved"],
    }
    return [message for message, holds in claims.items() if not holds]


# -- registry and CLI ------------------------------------------------------------

SUITES = {
    suite.name: suite
    for suite in (
        Suite("network", run_network),
        Suite("e4", batch_then_rows(run_e4), check_kernels),
        Suite("closure", batch_then_rows(run_closure), check_rows_agree),
        Suite("e8", run_e8),
        Suite("obs", run_obs, check_obs),
        Suite("columnar", run_columnar, check_kernels),
        Suite("serving", run_serving, check_serving),
        Suite("scale", run_scale, check_scale),
        Suite("rebalance", run_rebalance, check_rebalance),
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--suite", choices=["all", *SUITES], default="all")
    parser.add_argument(
        "--update-baseline", action="store_true", help="pin this run's fingerprints"
    )
    args = parser.parse_args(argv)

    pins = json.loads(BASELINE_PATH.read_text())
    failures: list[str] = []
    for suite in SUITES.values() if args.suite == "all" else [SUITES[args.suite]]:
        if suite.name == "obs":  # nothing to pin: judged by its own ratio alone
            run = suite.run()
            problems = suite.check(run)
        else:
            run, problems = gate(suite, args.repeats, pins, args.update_baseline)
        failures.extend(f"{suite.name}: {problem}" for problem in problems)
        summary = run.get("summary", "")
        print(f"perf_gate[{suite.name}]: wall {run['wall_s']:.3f}s  {summary}".rstrip())
    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(pins, indent=2) + "\n")
        print(f"perf_gate: baseline written to {BASELINE_PATH}")

    for failure in failures:
        print(f"perf_gate: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print("perf_gate: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
