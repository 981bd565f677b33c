"""The repo benchmark: four long-run workloads, two clocks, per-layer
attribution.  See README.md beside this file.

One workload per process::

    python3 benchmarks/e2e/run.py --workload serving_mix --seed 1 \\
        --seconds 20 --trace 0

prints every metric as ``workload metric value unit`` and, as its last
line, one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  ``--trace 0`` measures the end-to-end metrics over as
many untraced repetitions as fit ``--seconds``; ``--trace 1`` runs one
untraced and one traced repetition and reports the per-layer metrics.
Without ``--workload`` every workload runs, each in a fresh subprocess.
Exit status is non-zero on a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import Tracer  # noqa: E402

import harness  # noqa: E402
from analytic_closure import AnalyticClosure  # noqa: E402
from hosttrace import HostTracer, install_layer_wrappers  # noqa: E402
from layers import SimSpans, layer_metrics  # noqa: E402
from net_des import NetDes  # noqa: E402
from serving_mix import ServingMix  # noqa: E402
from txn_transfer_recovery import TxnTransferRecovery  # noqa: E402

WORKLOADS = {
    workload.name: workload
    for workload in (ServingMix, AnalyticClosure, TxnTransferRecovery, NetDes)
}
#: End-to-end figures that exist on one workload only.  The contract has
#: every workload emit every ``end_to_end`` metric, so these travel with
#: the per-layer metrics (0 where they do not apply); they are taken
#: from the untraced repetition like every end-to-end figure.
WORKLOAD_SPECIFIC = (
    "sim_read_p99_ms",
    "sim_write_p99_ms",
    "sim_max_rate_ops",
    "sim_response_s",
    "sim_recovery_s",
)


#: A per-layer metric with one of these in its name reads the host
#: clock; every other one, like every ``sim_*`` metric, repeats exactly.
HOST_CLOCK = ("host", "kernel", "build_ms", "overhead")


def untraced_run(workload, inputs, args):
    done, setups = harness.repeat(workload, inputs, args.seconds, args.reps)
    metrics = harness.end_to_end(done, setups)
    return metrics, done[0], {"reps": rep_detail(done), "setup_s": setups}


def rep_detail(reps) -> list[dict]:
    """Raw host seconds of each repetition and the machine's slowdown."""
    return [
        {
            "raw_wall_s": rep.wall_ns / 1e9,
            "raw_cpu_s": rep.cpu_ns / 1e9,
            "slowdown": rep.slowdown,
        }
        for rep in reps
    ]


def traced_run(workload, inputs):
    """One untraced repetition, then one under both tracers."""
    plain, _setup_s = harness.one_rep(workload, inputs)
    host = HostTracer()
    sim = SimSpans(Tracer())
    install_layer_wrappers(host, sim.returned)
    try:
        traced, _setup_s = harness.one_rep(workload, inputs, host, sim)
    finally:
        host.uninstall()
    if traced.sim != plain.sim or traced.counts != plain.counts:
        harness.fail(f"{workload.name}: tracing perturbed the simulation")
    in_region = host.summary(host.region())
    measured = layer_metrics(traced, in_region, host.summary(), sim)
    # Host figures a workload measures itself are better untraced.
    measured.update(plain.layers)
    measured["obs.trace_overhead_frac"] = traced.wall_ns / plain.wall_ns - 1.0
    for name in WORKLOAD_SPECIFIC:
        measured[name] = plain.counts.get(name, 0.0)
    measured["failed_frac"] = plain.failed / plain.attempted
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    host.dump(harness.RESULTS_DIR / f"trace_{workload.name}.json")
    return measured, plain, {"reps": rep_detail([plain, traced]), "host_spans": in_region}


def run_one(args) -> int:
    spec = harness.declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed, args.quick)
    for name, value in inputs.digests.items():
        print(f"{workload.name} input.{name} sha256:{value}")
    if args.trace:
        metrics, first, detail = traced_run(workload, inputs)
    else:
        metrics, first, detail = untraced_run(workload, inputs, args)
    # Only declared metrics, and all of them: a per-layer metric that
    # does not apply to this workload is 0, an end-to-end one must exist.
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(metrics) - set(names) or (not args.trace and set(names) - set(metrics)):
        harness.fail(f"{workload.name}: metrics differ from BENCHMARK.json")
    metrics = {name: float(metrics.get(name, 0.0)) for name in names}
    correct = first.failed == 0
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value!r} {units[name]}")
    for name, value in first.counts.items():
        print(f"{workload.name} count.{name} {value!r}")
    for rep in detail["reps"]:
        print(
            f"{workload.name} rep raw wall {rep['raw_wall_s']:.4f} s"
            f" cpu {rep['raw_cpu_s']:.4f} s machine slowdown {rep['slowdown']:.3f}"
        )
    print(f"{workload.name} failed_frac {first.failed / first.attempted!r} ratio")
    result = {
        "correct": correct,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        **result,
        "counts": first.counts,
        "digests": inputs.digests,
        **detail,
    }
    out = args.out or harness.RESULTS_DIR / f"{workload.name}.json"
    harness.append_run(pathlib.Path(out), record)
    print(json.dumps(result))
    return 0 if correct else 1


# -- every workload, each in its own process ---------------------------------


def run_all(args, out: pathlib.Path, hash_seed: str | None = None) -> int:
    """Each workload untraced then traced, sequentially, fresh processes."""
    status = 0
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ]
            if args.reps is not None:
                command += ["--reps", str(args.reps)]
            if args.quick:
                command.append("--quick")
            status |= subprocess.run(command, env=env, check=False).returncode
    return status


def selfcheck(args) -> int:
    """Two full sets under different hash seeds must agree: simulated
    figures, counts and input digests bit for bit, host figures within
    their bounds.  (Each traced run already checked that tracing left
    the simulation alone.)"""
    spec = harness.declared()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for hash_seed in ("1", "2"):
        out = harness.RESULTS_DIR / f"selfcheck_{hash_seed}.json"
        out.unlink(missing_ok=True)
        if run_all(args, out, hash_seed):
            harness.fail(f"selfcheck: a run failed under PYTHONHASHSEED={hash_seed}")
        with open(out, encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])
    problems = []
    for first, second in zip(*sets):
        where = f"{first['workload']} trace={first['trace']}"
        for key in ("counts", "digests", "attempted", "failed"):
            if first[key] != second[key]:
                problems.append(f"{where}: {key} differ")
        for name, entry in first["metrics"].items():
            a, b = entry["value"], second["metrics"][name]["value"]
            if name.startswith("sim_") or not (
                name in bounds or any(marker in name for marker in HOST_CLOCK)
            ):
                if a != b:
                    problems.append(f"{where}: {name} {a!r} != {b!r}")
            elif name in bounds and abs(b / a - 1.0) > bounds[name]:
                problems.append(
                    f"{where}: {name} {a!r} vs {b!r} differ by more than"
                    f" {bounds[name]:.0%}"
                )
    for problem in problems:
        print(problem)
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures (untraced repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int,
                        help="exactly this many repetitions instead of --seconds")
    parser.add_argument("--quick", action="store_true",
                        help="about 1 %% of the size, one repetition (smoke test)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="result file to append the run to")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare")
    args = parser.parse_args(argv)
    if args.quick and args.reps is None:
        args.reps = 1
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        out = args.out or harness.RESULTS_DIR / "e2e.json"
        return run_all(args, out)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
