"""``serving_mix`` — open loop on the simulated clock.

Poisson arrivals at fixed rates, each rate on a fresh database, issued
over a pool of 64 DBAPI connections.  An arrival takes the connection
with the smallest clock, moves it to the due time, and its latency is
counted *from the due time*; an arrival that finds every connection
still busy is ``late`` (and still pays its wait).

Why this workload: it is the only one where ``serve`` (plan cache,
admission, parameter binding), the SQL front end on cache misses, the
one-phase commit fast path and WAL forces on two shared disks all sit
on the blocking path of short statements.  The operator kernels do
almost nothing here.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from repro import MachineConfig, PrismaDB
from repro.errors import PrismaError
from repro.serve import install_serving

from harness import Rep, Workload, beyond, digest, percentile, rng_for

#: Offered load in ops per simulated second, and arrivals at each.
#:
#: The latency metrics are taken at 40 ops/s, a little under half the
#: saturation throughput, over 10 000 arrivals: there a p99 moves about
#: 8 % from seed to seed.  At 60 ops/s, next to the knee, it moves 17 %
#: however long the run (queues build up in bursts, and the plan cache
#: only starts evicting after ~4000 statements), which no bound a gate
#: can use would tolerate.  The other rates place the knee
#: (``sim_max_rate_ops``) and the saturation throughput.
ARRIVALS = {20: 2000, 40: 10000, 60: 4000, 70: 2000, 80: 2000, 100: 3000}
LATENCY_RATE = 40
SATURATION_RATE = 100
#: ``sim_max_rate_ops``: all-op p99 within the limit, late < 1 %, no failure.
P99_LIMIT_S = 0.300
LATE_LIMIT = 0.01

N_KEYS = 4096
FRAGMENTS = 8
CONNECTIONS = 64
ADMISSION_SLOTS = 8
ZIPF_ALPHA = 1.1
#: read / update / insert / aggregate shares of the mix.
MIX = (("read", 0.60), ("update", 0.25), ("insert", 0.05), ("aggregate", 0.10))
INSERT_KEY_BASE = 1_000_000_000

READ_SQL = "SELECT v FROM kv WHERE id = ?"
UPDATE_SQL = "UPDATE kv SET v = v + ? WHERE id = ?"
INSERT_SQL = "INSERT INTO kv VALUES (?, ?)"
AGGREGATE_SQL = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv"

WARMUP_OPS = 100


@dataclass
class Inputs:
    n_keys: int
    #: rate -> [(due offset s, kind, key, amount)]
    streams: dict[int, list[tuple]]
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class RateContext:
    rate: int
    db: PrismaDB
    connections: list
    cursors: list
    base: float
    #: What each op returned, checked against the model after the run.
    returned: list = field(default_factory=list)


@dataclass
class Context:
    inputs: Inputs
    rates: list[RateContext]


class ServingMix(Workload):
    name = "serving_mix"

    # -- inputs ------------------------------------------------------------

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_keys = 256 if quick else N_KEYS
        weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(n_keys)]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        kinds = [kind for kind, _share in MIX]
        shares = [share for _kind, share in MIX]
        streams = {}
        for rate, arrivals in ARRIVALS.items():
            rng = rng_for(seed, self.name, rate)
            due, inserted, ops = 0.0, 0, []
            for _ in range(max(40, arrivals // 100) if quick else arrivals):
                due += rng.expovariate(rate)
                kind = rng.choices(kinds, shares)[0]
                key, amount = 0, 0
                if kind in ("read", "update"):
                    key = bisect.bisect_left(cumulative, rng.random())
                    amount = rng.randint(1, 9)
                elif kind == "insert":
                    inserted += 1
                    key = INSERT_KEY_BASE + inserted
                    amount = rng.randint(0, 99)
                ops.append((due, kind, key, amount))
            streams[rate] = ops
        inputs = Inputs(n_keys, streams)
        inputs.digests = {f"ops@{rate}": digest(ops) for rate, ops in streams.items()}
        return inputs

    # -- set-up ------------------------------------------------------------

    def _database(self, inputs: Inputs, tracer) -> PrismaDB:
        db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0, 16)), tracer=tracer)
        db.execute(
            "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
            f" FRAGMENTED BY HASH(id) INTO {FRAGMENTS}"
        )
        db.bulk_load("kv", [(key, key * 3) for key in range(inputs.n_keys)])
        install_serving(db, admission_slots=ADMISSION_SLOTS)
        db.quiesce()
        return db

    def _rate_context(self, inputs: Inputs, rate: int, tracer) -> RateContext:
        db = self._database(inputs, tracer)
        connections = [db.connect() for _ in range(CONNECTIONS)]
        cursors = [connection.cursor() for connection in connections]
        return RateContext(rate, db, connections, cursors, db.simulated_time())

    def setup(self, inputs: Inputs, tracer=None) -> Context:
        # Warm-up on a throwaway database: code paths, not its caches.
        first = next(iter(inputs.streams))
        scratch = self._rate_context(inputs, first, None)
        for _due, kind, key, amount in inputs.streams[first][:WARMUP_OPS]:
            _issue(scratch.cursors[0], kind, key, amount)
        return Context(
            inputs, [self._rate_context(inputs, rate, tracer) for rate in inputs.streams]
        )

    # -- the timed pass ----------------------------------------------------

    def run(self, ctx: Context, recorder) -> Rep:
        rep = Rep()
        per_rate = {}
        op_id = 0
        recorder.start([context.db for context in ctx.rates])
        for context in ctx.rates:
            base = context.base
            returned = context.returned
            sessions = [c.session for c in context.connections]
            ready = [(session.clock, index) for index, session in enumerate(sessions)]
            heapq.heapify(ready)
            latencies: dict[str, list[float]] = {kind: [] for kind, _ in MIX}
            late = 0
            for offset, kind, key, amount in ctx.inputs.streams[context.rate]:
                due = base + offset
                clock, index = heapq.heappop(ready)
                session = sessions[index]
                if clock > due:
                    late += 1
                else:
                    session.advance_clock(due - clock)
                rep.attempted += 1
                try:
                    returned.append(
                        recorder.call(
                            op_id, _issue, context.cursors[index], kind, key, amount
                        )
                    )
                except PrismaError as error:
                    returned.append(error)
                op_id += 1
                rep.op_ns.append(recorder.last_ns)
                latencies[kind].append(session.clock - due)
                heapq.heappush(ready, (session.clock, index))
                recorder.between_ops()
            finish = max(session.clock for session in sessions)
            per_rate[context.rate] = (latencies, late, finish - base)
        recorder.stop(rep)
        rep.ops = rep.attempted
        self._summarise(rep, per_rate)
        return rep

    def _summarise(self, rep: Rep, per_rate: dict) -> None:
        max_rate = 0
        meets = True
        for rate, (latencies, late, span) in per_rate.items():
            everything = sorted(x for values in latencies.values() for x in values)
            n = len(everything)
            p99 = percentile(everything, 0.99)
            rep.counts[f"p50_ms@{rate}"] = percentile(everything, 0.50) * 1e3
            rep.counts[f"p99_ms@{rate}"] = p99 * 1e3
            rep.counts[f"late@{rate}"] = late
            rep.counts[f"tput@{rate}"] = n / span
            # The knee: rates are tried in rising order and the first
            # miss ends the search, so no rate qualifies merely because
            # a later one happens to pass.  (A failed op fails the run.)
            if meets and p99 <= P99_LIMIT_S and late < LATE_LIMIT * n:
                max_rate = rate
            else:
                meets = False
        latencies, _late, _span = per_rate[LATENCY_RATE]
        reads = sorted(latencies["read"])
        writes = sorted(latencies["update"] + latencies["insert"])
        rep.sim = {
            "sim_p50_ms": rep.counts[f"p50_ms@{LATENCY_RATE}"],
            "sim_p99_ms": rep.counts[f"p99_ms@{LATENCY_RATE}"],
            "sim_tput_ops": rep.counts[f"tput@{SATURATION_RATE}"],
        }
        rep.counts.update(
            {
                "sim_read_p99_ms": percentile(reads, 0.99) * 1e3,
                "sim_write_p99_ms": percentile(writes, 0.99) * 1e3,
                "sim_max_rate_ops": max_rate,
                "samples": sum(map(len, latencies.values())),
                "read_samples": len(reads),
                "read_beyond_p99": beyond(len(reads), 0.99),
                "write_samples": len(writes),
                "write_beyond_p99": beyond(len(writes), 0.99),
                "sim_spans_s": [span for _l, _late, span in per_rate.values()],
            }
        )

    # -- oracle ------------------------------------------------------------

    def verify(self, ctx: Context, rep: Rep) -> None:
        """Replay the ops over a dict model: every op returned what the
        model says (a point read exactly one row), and the end state
        equals the model (row count and every ``v``)."""
        for context in ctx.rates:
            model = {key: key * 3 for key in range(ctx.inputs.n_keys)}
            stream = ctx.inputs.streams[context.rate]
            for (_due, kind, key, amount), got in zip(stream, context.returned):
                if got != _expected(model, kind, key, amount):
                    rep.failed += 1
            rows = context.db.query("SELECT id, v FROM kv")
            if len(rows) != len(model) or dict(rows) != model:
                rep.failed += 1


def _issue(cursor, kind: str, key: int, amount: int):
    if kind == "read":
        return cursor.execute(READ_SQL, (key,)).fetchall()
    if kind == "update":
        return cursor.execute(UPDATE_SQL, (amount, key)).rowcount
    if kind == "insert":
        return cursor.execute(INSERT_SQL, (key, amount)).rowcount
    return cursor.execute(AGGREGATE_SQL).fetchall()


def _expected(model: dict[int, int], kind: str, key: int, amount: int):
    """What the op must return; applies its effect to the model."""
    if kind == "read":
        return [(model[key],)]
    if kind == "update":
        model[key] += amount
        return 1
    if kind == "insert":
        model[key] = amount
        return 1
    values = model.values()
    return [(len(model), sum(values), min(values), max(values))]
