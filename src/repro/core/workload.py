"""Cooperative multi-session transaction driver.

The engine is synchronous (one Python thread), so concurrent clients
are *interleaved*: the driver round-robins statements across sessions;
a statement that must wait for a lock raises
:class:`~repro.core.locks.WouldBlock` and the driver parks that session
until the blocking transaction finishes; a deadlock victim's
transaction is retried from the top.  Simulated time does the rest —
waiters' clocks advance to the holder's release time, so throughput and
response times come out of the critical path, not the driver's loop
order.

This is the harness behind experiment E8 ("evaluation of several
queries and updates can be done in parallel, except for accesses to the
same copy of base fragments").

:class:`ConcurrentSessionDriver` is the serving-layer counterpart: N
DBAPI connections with seeded think times and a Zipf-skewed mixed
OLTP/analytics operation stream, interleaved in simulated-time order and
reporting latency percentiles — the harness behind
``benchmarks/bench_serving.py`` and the ``serving`` perf-gate suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.errors import DeadlockError
from repro.obs.api import SnapshotMixin
from repro.core.database import PrismaDB, Session
from repro.core.locks import WouldBlock


@dataclass
class DriverReport:
    """What an interleaved run did, on the simulated clock."""

    transactions_committed: int = 0
    deadlocks: int = 0
    lock_waits: int = 0
    statements_executed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    per_session_finish: dict[int, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput_tps(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.transactions_committed / self.makespan_s


class _ClientState:
    """One client: a queue of transactions, each a list of statements."""

    def __init__(self, session: Session, transactions: list[list[str]]):
        self.session = session
        self.transactions = transactions
        self.txn_index = 0
        self.stmt_index = -1  # -1 = must BEGIN next
        self.parked = False
        self.retries = 0

    @property
    def done(self) -> bool:
        return self.txn_index >= len(self.transactions)


#: A transaction picked as deadlock victim more often than this is livelocked.
MAX_DEADLOCK_RETRIES = 25


class InterleavedDriver:
    """Runs transaction scripts from many sessions concurrently."""

    def __init__(self, db: PrismaDB):
        self.db = db

    def run(self, scripts: list[list[list[str]]]) -> DriverReport:
        """*scripts[i]* is client i's list of transactions (statement
        lists).  Returns the aggregated report."""
        clients = [
            _ClientState(self.db.session(), transactions)
            for transactions in scripts
        ]
        report = DriverReport()
        report.started_at = min(
            (client.session.clock for client in clients), default=0.0
        )
        stuck_rounds = 0
        while any(not client.done for client in clients):
            progressed = False
            for client in clients:
                if client.done or client.parked:
                    continue
                progressed = self._step(client, report) or progressed
            # End of round: locks may have been released by commits this
            # round, so parked sessions get another chance.
            for client in clients:
                client.parked = False
            stuck_rounds = 0 if progressed else stuck_rounds + 1
            if stuck_rounds > 3:
                raise DeadlockError(
                    "interleaved driver made no progress for several rounds"
                    " (undetected deadlock?)"
                )
        report.finished_at = max(
            (client.session.clock for client in clients), default=0.0
        )
        for client in clients:
            report.per_session_finish[client.session.session_id] = (
                client.session.clock
            )
        return report

    def _step(self, client: _ClientState, report: DriverReport) -> bool:
        """Advance one client by one statement; returns True on progress."""
        session = client.session
        statements = client.transactions[client.txn_index]
        try:
            if client.stmt_index < 0:
                session.begin()
                client.stmt_index = 0
                return True
            if client.stmt_index < len(statements):
                session.execute(statements[client.stmt_index])
                report.statements_executed += 1
                client.stmt_index += 1
                return True
            session.commit()
            report.transactions_committed += 1
            client.txn_index += 1
            client.stmt_index = -1
            return True
        except WouldBlock:
            report.lock_waits += 1
            client.parked = True
            return False
        except DeadlockError:
            report.deadlocks += 1
            client.retries += 1
            if client.retries > MAX_DEADLOCK_RETRIES:
                raise
            # The GDH already aborted the transaction; retry it fresh.
            client.stmt_index = -1
            return True


def transactions_from_transfers(transfers) -> list[list[str]]:
    """Adapter: banking transfers -> driver transaction scripts."""
    return [transfer.statements() for transfer in transfers]


# ---------------------------------------------------------------------------
# Serving workload: N concurrent DBAPI sessions with think times.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingWorkloadSpec:
    """A mixed OLTP/analytics serving workload, fully seeded.

    Each of *n_sessions* clients issues *ops_per_session* operations
    with exponentially distributed think time between them.  Point
    operations pick keys Zipf-skewed (rank weights ``1/r^alpha``), so a
    small hot set dominates — which is also what makes the plan cache's
    exact-match keys pay: the hot statements repeat.
    """

    n_sessions: int = 100
    ops_per_session: int = 8
    seed: int = 42
    table: str = "kv"
    n_keys: int = 128
    zipf_alpha: float = 1.3
    think_mean_s: float = 0.002
    #: Relative operation weights (any positive scale).
    read_weight: float = 0.60
    update_weight: float = 0.25
    insert_weight: float = 0.05
    analytics_weight: float = 0.10
    #: Added to every generated insert key.  Lets a second driver run on
    #: the same database (e.g. the measure phase of a rebalancing A/B
    #: after a profiling phase) without colliding with the first run's
    #: inserted keys.
    insert_key_offset: int = 0


class ZipfSampler:
    """Deterministic Zipf(alpha) rank sampler over ``n`` keys.

    Rank r (1-based) gets weight ``1/r^alpha``; sampling inverts the
    cumulative table with one RNG draw, so a seeded ``random.Random``
    gives the same key sequence on every run.
    """

    def __init__(self, n: int, alpha: float):
        weights = [1.0 / ((rank + 1) ** alpha) for rank in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard float drift at the top end
        self._cumulative = cumulative

    def sample(self, rng) -> int:
        from bisect import bisect_left

        return bisect_left(self._cumulative, rng.random())


@dataclass
class ServingReport(SnapshotMixin):
    """Latency/throughput accounting for a concurrent-session run.

    A ``Snapshot``: ``stats()`` reports per-kind counts, p50/p99, and
    total simulated latency (float sums preserve bit patterns), so
    ``fingerprint()`` differs iff any operation's timing differed —
    the serving perf gate's determinism check hashes exactly this.
    """

    n_sessions: int = 0
    operations: int = 0
    statements: int = 0
    deadlocks: int = 0
    lock_waits: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    latencies_by_kind: dict[str, list[float]] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def throughput_ops(self) -> float:
        """Operations per simulated second over the whole run."""
        return self.operations / self.makespan_s if self.makespan_s > 0 else 0.0

    def record(self, kind: str, latency_s: float) -> None:
        self.latencies_by_kind.setdefault(kind, []).append(latency_s)
        self.operations += 1

    def percentile(self, kind: str, p: float) -> float:
        """Nearest-rank percentile of *kind*'s latencies (p in 0..100)."""
        latencies = sorted(self.latencies_by_kind.get(kind, ()))
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(latencies)))
        return latencies[min(rank, len(latencies)) - 1]

    def stats(self) -> dict:
        per_kind = {}
        for kind in sorted(self.latencies_by_kind):
            latencies = self.latencies_by_kind[kind]
            per_kind[kind] = {
                "count": len(latencies),
                "p50_s": self.percentile(kind, 50.0),
                "p99_s": self.percentile(kind, 99.0),
                "total_s": math.fsum(latencies),
            }
        return {
            "n_sessions": self.n_sessions,
            "operations": self.operations,
            "statements": self.statements,
            "deadlocks": self.deadlocks,
            "lock_waits": self.lock_waits,
            "makespan_s": self.makespan_s,
            "throughput_ops": self.throughput_ops,
            "kinds": per_kind,
        }


class _ServingClient:
    """One serving client: a connection, its RNG, its op budget."""

    def __init__(self, connection, rng, ops_remaining: int):
        self.connection = connection
        self.cursor = connection.cursor()
        self.rng = rng
        self.ops_remaining = ops_remaining


class ConcurrentSessionDriver:
    """Runs a :class:`ServingWorkloadSpec` over DBAPI connections.

    Clients are interleaved by simulated time: the driver always issues
    the next operation of the client whose clock (after think time) is
    earliest, with the session index breaking ties — a deterministic
    discrete-event loop, so two same-seed runs produce bit-identical
    :class:`ServingReport` fingerprints.  Each operation is one
    autocommit statement through the serving layer's plan-cache path;
    admission control (when installed on the GDH) shows up as added
    latency under saturation.
    """

    #: Statement templates (fixed text => plan-cache keys repeat).
    READ_SQL = "SELECT v FROM {table} WHERE id = ?"
    UPDATE_SQL = "UPDATE {table} SET v = v + ? WHERE id = ?"
    INSERT_SQL = "INSERT INTO {table} VALUES (?, ?)"
    ANALYTICS_SQL = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM {table}"
    #: Inserted keys start far above any loaded key so the workload
    #: never collides with the seeded table contents.
    INSERT_KEY_BASE = 1_000_000_000

    def __init__(self, db: PrismaDB, spec: ServingWorkloadSpec):
        self.db = db
        self.spec = spec
        self._zipf = ZipfSampler(spec.n_keys, spec.zipf_alpha)
        self._kinds = ("read", "update", "insert", "analytics")
        self._weights = (
            spec.read_weight,
            spec.update_weight,
            spec.insert_weight,
            spec.analytics_weight,
        )
        self._insert_counter = 0

    def run(self) -> ServingReport:
        spec = self.spec
        clients = []
        for index in range(spec.n_sessions):
            clients.append(
                _ServingClient(
                    self.db.connect(),
                    random.Random(spec.seed * 1_000_003 + index),
                    spec.ops_per_session,
                )
            )
        report = ServingReport(n_sessions=spec.n_sessions)
        report.started_at = min(
            (client.connection.session.clock for client in clients),
            default=0.0,
        )
        ready: list[tuple[float, int]] = []
        for index, client in enumerate(clients):
            heappush(ready, (self._next_issue_at(client), index))
        while ready:
            _issue_at, index = heappop(ready)
            client = clients[index]
            self._issue(client, report)
            client.ops_remaining -= 1
            if client.ops_remaining > 0:
                heappush(ready, (self._next_issue_at(client), index))
        report.finished_at = max(
            (client.connection.session.clock for client in clients),
            default=0.0,
        )
        for client in clients:
            client.connection.close()
        return report

    def _next_issue_at(self, client: _ServingClient) -> float:
        """Advance the client past its think time; returns the clock."""
        think = client.rng.expovariate(1.0 / self.spec.think_mean_s)
        client.connection.session.advance_clock(think)
        return client.connection.session.clock

    def _issue(self, client: _ServingClient, report: ServingReport) -> None:
        spec = self.spec
        rng = client.rng
        kind = rng.choices(self._kinds, weights=self._weights)[0]
        session = client.connection.session
        issued_at = session.clock
        try:
            if kind == "read":
                key = self._zipf.sample(rng)
                client.cursor.execute(
                    self.READ_SQL.format(table=spec.table), (key,)
                )
            elif kind == "update":
                key = self._zipf.sample(rng)
                client.cursor.execute(
                    self.UPDATE_SQL.format(table=spec.table), (1, key)
                )
            elif kind == "insert":
                self._insert_counter += 1
                key = (
                    self.INSERT_KEY_BASE
                    + spec.insert_key_offset
                    + self._insert_counter
                )
                client.cursor.execute(
                    self.INSERT_SQL.format(table=spec.table), (key, 0)
                )
            else:
                client.cursor.execute(self.ANALYTICS_SQL.format(table=spec.table))
            report.statements += 1
        except WouldBlock:
            # Single-statement autocommit ops cannot block in host order,
            # but count it rather than assume (future multi-stmt mixes).
            report.lock_waits += 1
            return
        except DeadlockError:
            report.deadlocks += 1
            return
        report.record(kind, session.clock - issued_at)
