"""What every workload shares: the repetition loop, the two clocks'
bookkeeping, and the metric tables read from ``BENCHMARK.json``.

A workload is an object with ``generate`` / ``setup`` / ``run`` /
``verify`` (see :class:`Workload`).  One *repetition* is a set-up on
fresh databases followed by one timed pass over the generated inputs;
repetitions of one process run identical inputs, so every simulated
figure must come out bit-equal and every host figure is a median.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import pathlib
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import layers
from hosttrace import OP, REGION

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: A run stops adding repetitions once this much wall time has gone by,
#: whatever ``--seconds`` says: the contract allows 180 s per run.
HARD_STOP_S = 100.0
#: Host times are reported *at reference speed*.  The shared sandbox has
#: second-long stalls and phases, a minute or so long, in which
#: everything runs 1.3 to 1.65 times slower (CPU time rising with wall
#: time); a phase covers whole runs, so no median over a run's
#: repetitions removes it.  A fixed piece of pure-Python work is
#: therefore timed every ``CALIBRATE_EVERY_NS`` *during* each timed pass
#: (between ops, its own time left out of the pass), and the pass's host
#: times are divided by how much slower than ``CALIBRATION_REFERENCE_NS``
#: (its time on a quiet sandbox) that work ran on average.  Sampling
#: inside the pass matters: a calibration only before and after it
#: catches stalls the pass did not have, and misses those it had.  The
#: calibration is the benchmark's own code: no change to ``src/`` can
#: move it.  Raw seconds are printed and kept in the result file.
CALIBRATION_REFERENCE_NS = 25_000_000
CALIBRATE_EVERY_NS = 300_000_000

#: ``setup_s`` is a median of at least ``MIN_SETUPS`` set-ups; cheap
#: set-ups (milliseconds) are repeated up to ``MAX_SETUPS`` times or
#: until they add up to ``SETUP_BUDGET_S``, because a short timing needs
#: more samples to give a steady median.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.0


def declared() -> dict:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def digest(value: object) -> str:
    """sha256 of a generated input, so a change in offered load shows."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an already sorted list (q in 0..1)."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank *q* percentile of *n*."""
    return n - max(1, math.ceil(q * n))


class Recorder:
    """Clocks a timed pass and the calls made on behalf of its ops.

    Untraced it reads the host clock twice per call.  Traced (``host``
    and ``sim`` set) it also opens the region's and each op's root span,
    so every span recorded below belongs to that op, and it brackets
    the region with snapshots of the databases' own counters.  An op may
    be made of several calls (a transaction is); they share the op id.
    """

    def __init__(self, host=None, sim=None):
        self.host = host
        self.sim = sim
        self.last_ns = 0

    def start(self, dbs=()) -> None:
        self._dbs = dbs
        self._chunks = [calibration_chunk()]
        self._left_out = [0, 0]  # wall ns, CPU ns spent calibrating
        if self.host is not None:
            self._before = layers.snapshot(dbs)
            self.sim.clear()
            self._region = self.host.begin(REGION)
        self._cpu_started = time.process_time_ns()
        self._wall_started = self._calibrated_at = time.perf_counter_ns()

    def stop(self, rep: "Rep") -> None:
        rep.wall_ns = time.perf_counter_ns() - self._wall_started - self._left_out[0]
        rep.cpu_ns = time.process_time_ns() - self._cpu_started - self._left_out[1]
        if self.host is not None:
            self.host.finish(self._region)
            self.sim.drain(force=True)
            rep.counters = layers.delta(self._before, layers.snapshot(self._dbs))
        self._chunks.append(calibration_chunk())
        rep.slowdown = statistics.mean(self._chunks) / CALIBRATION_REFERENCE_NS

    def between_ops(self) -> None:
        """Sample the machine's speed; traced, keep the simulated-clock
        tracer from wrapping instead (a traced pass's host figures are
        attributions, reported as measured)."""
        if self.sim is not None:
            self.sim.drain()
            return
        wall = time.perf_counter_ns()
        if wall - self._calibrated_at >= CALIBRATE_EVERY_NS:
            cpu = time.process_time_ns()
            self._chunks.append(calibration_chunk())
            self._calibrated_at = time.perf_counter_ns()
            self._left_out[0] += self._calibrated_at - wall
            self._left_out[1] += time.process_time_ns() - cpu

    def call(self, op_id: int, fn, *args):
        host = self.host
        if host is None:
            started = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                self.last_ns = time.perf_counter_ns() - started
        host.current_op = op_id
        index = host.begin(OP)
        try:
            return fn(*args)
        finally:
            host.finish(index)
            host.current_op = -1
            self.last_ns = host.end[index] - host.start[index]


@dataclass
class Rep:
    """One timed pass.  ``sim`` and ``counts`` must repeat exactly."""

    wall_ns: int = 0
    cpu_ns: int = 0
    #: Ops the host throughput counts (statements, committed
    #: transactions, fired events).
    ops: int = 0
    #: Host ns of each op (for ``host_op_p50_us``).
    op_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated-clock metrics, by their BENCHMARK.json names.
    sim: dict[str, float] = field(default_factory=dict)
    #: Everything else that must repeat: sample counts, lateness, ...
    counts: dict[str, float] = field(default_factory=dict)
    #: Per-layer figures the workload itself measures (traced run).
    layers: dict[str, float] = field(default_factory=dict)
    #: Delta of the databases' own counters over the timed region.
    counters: dict[str, float] = field(default_factory=dict)
    #: Machine speed during the pass, relative to the reference (> 1:
    #: slower); ``wall_s`` and friends are host time divided by it.
    slowdown: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9 / self.slowdown


class Workload:
    """The interface ``run.py`` drives; see the four workload modules."""

    name = ""

    def generate(self, seed: int, quick: bool):
        """Inputs for one repetition, with ``inputs.digests`` filled."""
        raise NotImplementedError

    def setup(self, inputs, tracer=None):
        """Build machines, load, warm up; returns the run context."""
        raise NotImplementedError

    def run(self, ctx, recorder: Recorder) -> Rep:
        """The timed pass, between ``recorder.start`` and ``.stop``."""
        raise NotImplementedError

    def verify(self, ctx, rep: Rep) -> None:
        """End-state oracle; adds what it finds wrong to ``rep.failed``."""
        raise NotImplementedError


def rng_for(seed: int, workload: str, stream: object) -> random.Random:
    """The one way a workload draws its inputs: ``--seed`` changes every
    stream, and a str seed does not depend on ``PYTHONHASHSEED``."""
    return random.Random(f"{seed}:{workload}:{stream}")


def calibration_chunk() -> int:
    """Host ns of a fixed piece of interpreter work with the engine's
    flavour (dicts, tuples, appends, a keyed sort, a zip-join), in
    rounds small enough not to show in the process's peak memory.

    The collector is off meanwhile: a collection's cost grows with the
    engine's heap, and the calibration must not depend on the engine.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter_ns()
    for _ in range(4):
        table: dict[int, list[tuple]] = {}
        rows = []
        for i in range(12_500):
            key = (i * 7919) % 1_009
            row = (key, i, f"r{i % 97}")
            table.setdefault(key, []).append(row)
            rows.append(row)
        checksum = sum(len(bucket) + key for key, bucket in table.items())
        rows.sort(key=lambda row: row[0])
        joined = [left + right for left, right in zip(rows[:5_000], rows[5_000:10_000])]
        assert checksum and joined
    elapsed = time.perf_counter_ns() - started
    if collecting:
        gc.enable()
    return elapsed


def timed_setup(workload: Workload, inputs, tracer=None):
    gc.collect()
    started = time.perf_counter_ns()
    ctx = workload.setup(inputs, tracer)
    return ctx, (time.perf_counter_ns() - started) / 1e9


def one_rep(workload: Workload, inputs, host=None, sim=None):
    """Set-up, timed pass, oracle.  Returns (rep, set-up seconds at the
    speed the machine had during the pass that followed)."""
    tracer = sim.tracer if sim is not None else None
    ctx, setup_s = timed_setup(workload, inputs, tracer)
    gc.collect()
    rep = workload.run(ctx, Recorder(host, sim))
    workload.verify(ctx, rep)
    return rep, setup_s / rep.slowdown


def repeat(workload: Workload, inputs, seconds: float, reps: int | None):
    """Untraced repetitions: *reps* of them, or as many as fit *seconds*.

    Another repetition starts only while at least half of it is expected
    to fit, so a slow machine measures less rather than overrunning.
    Filling *seconds* also tops the set-ups up to a steady median; an
    explicit *reps* gets exactly that many of each.
    """
    began = time.perf_counter()
    done: list[Rep] = []
    setups: list[float] = []
    while True:
        rep, setup_s = one_rep(workload, inputs)
        done.append(rep)
        setups.append(setup_s)
        if done[0].sim != rep.sim or done[0].counts != rep.counts:
            fail(
                f"{workload.name}: repetition {len(done)} differs from"
                " repetition 1 on the simulated clock"
            )
        if reps is not None:
            if len(done) >= reps:
                break
            continue
        measured = sum(rep.wall_ns for rep in done) / 1e9
        typical = measured / len(done)
        if measured + typical / 2 > seconds:
            break
        if time.perf_counter() - began + typical > HARD_STOP_S:
            break
    if reps is not None:
        return done, setups
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S
    ):
        before = calibration_chunk()
        _ctx, setup_s = timed_setup(workload, inputs)
        speed = (before + calibration_chunk()) / 2 / CALIBRATION_REFERENCE_NS
        setups.append(setup_s / speed)
    return done, setups


def end_to_end(done: list[Rep], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of a run: host medians, rep-1 sim figures."""
    first = done[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "host_wall_s": statistics.median(rep.wall_s for rep in done),
        "host_ops_per_s": statistics.median(rep.ops / rep.wall_s for rep in done),
        "host_op_p50_us": statistics.median(
            statistics.median(rep.op_ns) / 1e3 / rep.slowdown for rep in done
        ),
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics.update(first.sim)
    return metrics


def append_run(path: pathlib.Path, record: dict) -> None:
    """Add one run to a result file (a JSON object with a ``runs`` list)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(1)
