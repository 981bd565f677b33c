"""Scaling curves 64 -> 1024 PEs (E11): construction, routing, serving.

The paper sizes the prototype at 64 processing elements but argues the
architecture scales; this bench walks the machine up to 1024 PEs and
records what each step costs now that routing is algebraic/lazy
(ISSUE 9):

* **construction** — wall time and router table bytes for building a
  ``Machine``.  With closed-form next hops there is no all-pairs BFS,
  so tables stay O(links + touched destinations) instead of O(N^2).
* **network** — one E1-style load point per size (fixed seed, small
  window, reduced offered load so the 1024-PE run stays in seconds).
* **serving** — a scaled-down ``bench_serving`` mix where the fragment
  count grows with the machine (``max(8, n // 8)``), so from 512 PEs on
  the gather/broadcast paths exceed ``MULTICAST_FANIN`` and route
  through the relay tree.  Reported: read/analytics p50/p99, simulated
  throughput, and how many tree relays fired.

The 64-PE points use the repo's default parameters (mesh, chord skip 8)
and are fingerprint-pinned by the ``scale`` suite of ``perf_gate.py``;
larger sizes are reported, not gated (except that a 1024-PE construction
must stay lazy: zero routing columns may exist after build).

A fourth leg, ``--rebalance``, runs the online re-fragmentation A/B
(ISSUE 10): the same skewed serving mix twice on separate databases,
once with the :class:`~repro.core.rebalance.Rebalancer` stepping between
a profiling phase and a measurement phase and once without, and checks
both the end-state row oracle (no row lost or duplicated) and that the
rebalanced arm's simulated read p99 improves at >= 256 PEs.

Both JSON outputs are simulation-only: wall times go to stdout, not to
the file, so CI diffs a regenerated file against the committed one.

Run::

    python benchmarks/bench_scaling.py                # full curve, JSON out
    python benchmarks/bench_scaling.py --quick        # 64/256 + smoke
    python benchmarks/bench_scaling.py --n-nodes 64 256 512
    python benchmarks/bench_scaling.py --rebalance --n-nodes 64 256
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from _harness import build_parser  # noqa: E402
from repro import MachineConfig, PrismaDB  # noqa: E402
from repro.core.workload import (  # noqa: E402
    ConcurrentSessionDriver,
    ServingWorkloadSpec,
)
from repro.machine import PacketNetwork  # noqa: E402
from repro.machine.machine import Machine  # noqa: E402
from repro.machine.traffic import run_load_point  # noqa: E402
from repro.serve import install_serving  # noqa: E402

RESULTS_PATH = HERE / "results" / "bench_scaling.json"

SCALE_NODES = (64, 256, 512, 1024)
SCALE_TOPOLOGIES = ("mesh", "chordal_ring")

#: E1-style load point, scaled down so the 1024-PE run stays in seconds:
#: event count grows with n_nodes * rate * window * mean_hops.
NETWORK_POINT = {"rate_per_node_pps": 2_000, "warmup_s": 0.002,
                 "measure_s": 0.004, "seed": 17}

#: Serving mix per size; fragments grow with the machine so large sizes
#: exercise the tree gather/broadcast path (fanin 32 < 64 fragments).
SERVING_POINT = {"n_sessions": 40, "ops_per_session": 4, "seed": 42,
                 "n_keys": 256, "admission_slots": 8}

#: Rebalancing A/B: a strongly skewed mix (Zipf 1.5 over 192 keys) so a
#: few fragments run hot, profiled for one driver run, then measured for
#: a second seeded run after ``rounds`` rebalancer steps (or none).
REBALANCE_POINT = {"n_sessions": 24, "ops_per_session": 10, "seed": 42,
                   "n_keys": 192, "zipf_alpha": 1.5, "admission_slots": 8,
                   "rounds": 3, "hot_ratio": 1.5,
                   "read_weight": 0.70, "update_weight": 0.20,
                   "insert_weight": 0.05, "analytics_weight": 0.05}


def chord_skip(n_nodes: int) -> int:
    """Chord length for the chordal ring at *n_nodes*.

    ``isqrt(n)`` balances ring steps against chord steps (diameter
    ~2*sqrt(n)); at the 64-PE prototype it equals the repo default
    skip of 8, so the pinned small-N fingerprints use stock parameters.
    """
    return max(2, min(n_nodes // 2, math.isqrt(n_nodes)))


def scale_config(n_nodes: int, topology: str, disks: bool = False) -> MachineConfig:
    kwargs: dict = {"n_nodes": n_nodes, "topology": topology}
    if topology == "chordal_ring":
        kwargs["chord_skips"] = (chord_skip(n_nodes),)
    if disks:
        kwargs["disk_nodes"] = (0, n_nodes // 2)
    return MachineConfig(**kwargs)


# ---------------------------------------------------------------------------
# Legs: construction / network / serving.
# ---------------------------------------------------------------------------


def construction_point(n_nodes: int, topology: str) -> dict:
    """Build one Machine; report wall and how big the router tables got."""
    config = scale_config(n_nodes, topology)
    start = time.perf_counter()
    machine = Machine(config)
    wall = time.perf_counter() - start
    router = machine.router
    return {
        "wall_s": wall,
        "table_bytes": router.table_bytes(),
        "touched_destinations": router.touched_destinations,
        "algebraic": router.has_algebraic_routes,
        "n_links": machine.topology.n_links,
    }


def network_point(n_nodes: int, topology: str) -> dict:
    """One E1-style load point; stats are deterministic for a fixed seed."""
    network = PacketNetwork(scale_config(n_nodes, topology))
    start = time.perf_counter()
    stats = run_load_point(
        network,
        NETWORK_POINT["rate_per_node_pps"],
        warmup_s=NETWORK_POINT["warmup_s"],
        measure_s=NETWORK_POINT["measure_s"],
        seed=NETWORK_POINT["seed"],
    )
    stats["wall_s"] = time.perf_counter() - start
    stats["touched_destinations"] = network.router.touched_destinations
    return stats


def serving_fragments(n_nodes: int) -> int:
    return max(8, n_nodes // 8)


def serving_point(n_nodes: int, topology: str) -> dict:
    """Scaled serving mix: DBAPI sessions over a fragment-per-8-PEs table."""
    p = SERVING_POINT
    db = PrismaDB(scale_config(n_nodes, topology, disks=True))
    fragments = serving_fragments(n_nodes)
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        f" FRAGMENTED BY HASH(id) INTO {fragments}"
    )
    db.bulk_load("kv", [(i, i * 3) for i in range(p["n_keys"])])
    install_serving(db, admission_slots=p["admission_slots"])
    db.quiesce()
    spec = ServingWorkloadSpec(
        n_sessions=p["n_sessions"],
        ops_per_session=p["ops_per_session"],
        seed=p["seed"],
        n_keys=p["n_keys"],
    )
    start = time.perf_counter()
    outcome = ConcurrentSessionDriver(db, spec).run()
    wall = time.perf_counter() - start
    stats = outcome.stats()
    kinds = stats["kinds"]
    return {
        "wall_s": wall,
        "fragments": fragments,
        "fingerprint": outcome.fingerprint(),
        "throughput_ops": stats["throughput_ops"],
        "read_p50_ms": kinds["read"]["p50_s"] * 1000,
        "read_p99_ms": kinds["read"]["p99_s"] * 1000,
        "analytics_p50_ms": kinds["analytics"]["p50_s"] * 1000,
        "analytics_p99_ms": kinds["analytics"]["p99_s"] * 1000,
        "tree_relays": db.gdh.executor.metrics.counter("executor.tree_relays").value,
    }


def _row_multiset(db: PrismaDB) -> list[tuple]:
    """Host-side end-state oracle: every row on every primary copy.

    Reads the OFM tables directly (no SQL) so taking the oracle does not
    advance the simulation and the measured arm stays comparable.
    """
    rows: list[tuple] = []
    for fragment in db.gdh.catalog.table("kv").fragments:
        ofm = db.gdh.fragment_ofms[fragment.ofm_name]
        rows.extend(tuple(row) for _rid, row in ofm.table.scan())
    return sorted(rows)


def rebalance_arm(n_nodes: int, topology: str, rebalance: bool) -> dict:
    """One arm of the A/B: profile run, (maybe) rebalance, measure run."""
    p = REBALANCE_POINT
    db = PrismaDB(scale_config(n_nodes, topology, disks=True))
    fragments = serving_fragments(n_nodes)
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        f" FRAGMENTED BY HASH(id) INTO {fragments}"
    )
    db.bulk_load("kv", [(i, i * 3) for i in range(p["n_keys"])])
    install_serving(db, admission_slots=p["admission_slots"])
    db.quiesce()
    spec = ServingWorkloadSpec(
        n_sessions=p["n_sessions"],
        ops_per_session=p["ops_per_session"],
        seed=p["seed"],
        n_keys=p["n_keys"],
        zipf_alpha=p["zipf_alpha"],
        read_weight=p["read_weight"],
        update_weight=p["update_weight"],
        insert_weight=p["insert_weight"],
        analytics_weight=p["analytics_weight"],
    )
    profile = ConcurrentSessionDriver(db, spec).run()

    actions: list[tuple] = []
    oracle_ok = True
    if rebalance:
        db.rebalancer.hot_ratio = p["hot_ratio"]
        before = _row_multiset(db)
        for _ in range(p["rounds"]):
            actions.extend(db.rebalancer.step("kv"))
        oracle_ok = _row_multiset(db) == before
        db.quiesce()

    # Second driver on the same database: fresh seed, insert keys offset
    # past anything the profile phase could have inserted.
    measure_spec = dataclasses.replace(
        spec,
        seed=p["seed"] + 1,
        insert_key_offset=p["n_sessions"] * p["ops_per_session"],
    )
    measure = ConcurrentSessionDriver(db, measure_spec).run()
    stats = measure.stats()
    kinds = stats["kinds"]
    return {
        "fragments_after": len(db.gdh.catalog.table("kv").fragments),
        "actions": [list(a) for a in actions],
        "oracle_ok": oracle_ok,
        "profile_fingerprint": profile.fingerprint(),
        "fingerprint": measure.fingerprint(),
        "throughput_ops": stats["throughput_ops"],
        "read_p50_ms": kinds["read"]["p50_s"] * 1000,
        "read_p99_ms": kinds["read"]["p99_s"] * 1000,
    }


def rebalance_ab_point(n_nodes: int, topology: str) -> dict:
    """Run both arms; at >= 256 PEs the rebalanced arm must win on p99."""
    off = rebalance_arm(n_nodes, topology, rebalance=False)
    on = rebalance_arm(n_nodes, topology, rebalance=True)
    assert on["oracle_ok"], "rebalancing lost or duplicated rows"
    assert on["actions"], "rebalancer took no action under the skewed mix"
    assert on["profile_fingerprint"] == off["profile_fingerprint"], (
        "profile phases diverged before rebalancing"
    )
    improved = on["read_p99_ms"] < off["read_p99_ms"]
    if n_nodes >= 256:
        assert improved, (
            f"rebalancing did not improve read p99 at {n_nodes} PEs:"
            f" on {on['read_p99_ms']:.3f}ms vs off {off['read_p99_ms']:.3f}ms"
        )
    return {
        "n_nodes": n_nodes,
        "topology": topology,
        "off": off,
        "on": on,
        "p99_improved": improved,
    }


def run_rebalance_ab(
    nodes: tuple[int, ...] = (64, 256),
    topologies: tuple[str, ...] = ("mesh",),
) -> dict:
    points = []
    for topology in topologies:
        for n_nodes in nodes:
            point = rebalance_ab_point(n_nodes, topology)
            points.append(point)
            on, off = point["on"], point["off"]
            print(
                f"rebalance[{topology}/{n_nodes}]:"
                f" off p99 {off['read_p99_ms']:.2f}ms"
                f" on p99 {on['read_p99_ms']:.2f}ms"
                f" actions {len(on['actions'])}"
                f" fragments {off['fragments_after']}->{on['fragments_after']}"
                f" oracle {'ok' if on['oracle_ok'] else 'FAILED'}"
            )
    return {"points": points, "rebalance_point": REBALANCE_POINT}


def scale_point(n_nodes: int, topology: str) -> dict:
    return {
        "n_nodes": n_nodes,
        "topology": topology,
        "construction": construction_point(n_nodes, topology),
        "network": network_point(n_nodes, topology),
        "serving": serving_point(n_nodes, topology),
    }


def run_scaling(
    nodes: tuple[int, ...] = SCALE_NODES,
    topologies: tuple[str, ...] = SCALE_TOPOLOGIES,
) -> dict:
    points = []
    for topology in topologies:
        for n_nodes in nodes:
            point = scale_point(n_nodes, topology)
            points.append(point)
            c, net, srv = (
                point["construction"],
                point["network"],
                point["serving"],
            )
            print(
                f"scale[{topology}/{n_nodes}]:"
                f" build {c['wall_s'] * 1000:.1f}ms"
                f" tables {c['table_bytes'] / 1024:.1f}KiB"
                f"  net {net['delivered_pps_per_node']:,.0f} pps/PE"
                f" lat {net['mean_latency_s'] * 1e6:.0f}us"
                f"  serve {srv['throughput_ops']:.1f} ops/s"
                f" read p99 {srv['read_p99_ms']:.1f}ms"
                f" analytics p99 {srv['analytics_p99_ms']:.1f}ms"
                f" relays {srv['tree_relays']}"
            )
    return {"points": points, "network_point": NETWORK_POINT,
            "serving_point": SERVING_POINT}


def simulated_only(value):
    """*value* without its ``wall_s`` leaves (the host clock's figures)."""
    if isinstance(value, dict):
        return {k: simulated_only(v) for k, v in value.items() if k != "wall_s"}
    if isinstance(value, list):
        return [simulated_only(item) for item in value]
    return value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        out=RESULTS_PATH,
        quick_help="64/256 PEs only, plus the 1024-PE construction smoke",
        n_nodes=SCALE_NODES,
    )
    parser.add_argument(
        "--topologies", nargs="+", default=list(SCALE_TOPOLOGIES),
        choices=list(SCALE_TOPOLOGIES),
    )
    parser.add_argument(
        "--rebalance", action="store_true",
        help="run the rebalancing A/B instead of the scaling curve"
             " (simulation-only JSON, byte-identical across same-seed runs)",
    )
    args = parser.parse_args(argv)

    if args.rebalance:
        nodes = [64, 256] if args.quick else args.n_nodes
        outcome = run_rebalance_ab(tuple(nodes), tuple(args.topologies))
        out = args.out
        if out == RESULTS_PATH:
            out = out.with_name("bench_rebalance.json")
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
        print(f"bench_scaling --rebalance: results written to {out}")
        return 0

    nodes = [64, 256] if args.quick else args.n_nodes
    outcome = run_scaling(tuple(nodes), tuple(args.topologies))
    if args.quick:
        smoke = {
            topology: construction_point(1024, topology)
            for topology in args.topologies
        }
        for topology, point in smoke.items():
            print(
                f"scale[{topology}/1024 smoke]:"
                f" build {point['wall_s'] * 1000:.1f}ms"
                f" tables {point['table_bytes'] / 1024:.1f}KiB"
                f" touched {point['touched_destinations']}"
            )
            assert point["touched_destinations"] == 0, "construction built columns"
        outcome["construction_smoke"] = smoke

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(simulated_only(outcome), indent=2) + "\n")
    print(f"bench_scaling: results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
