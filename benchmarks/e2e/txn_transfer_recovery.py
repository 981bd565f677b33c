"""``txn_transfer_recovery`` — closed loop, 16 clients, zero think time.

Each client runs explicit transactions (BEGIN, two UPDATEs on different
accounts, COMMIT) over 256 accounts in 16 fragments; a tenth of the
transfers touch one of 4 hot accounts.  The benchmark's own round-robin
driver parks a client on ``WouldBlock`` and retries a deadlock victim
from BEGIN.  Then the machine crashes and restarts.

Why this workload: the ``ofm`` / ``core.twophase`` / ``core.locks`` code
that ``serving_mix`` touches lightly (autocommit, one participant, no
waits) is used differently here — multi-participant 2PC, lock waits and
deadlocks, long WALs, restart — so a write-path change that helps one
use and costs the other shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import MachineConfig, PrismaDB
from repro.core.locks import WouldBlock
from repro.errors import DeadlockError, PrismaError

from harness import Rep, Workload, digest, percentile, rng_for

N_ACCOUNTS = 256
FRAGMENTS = 16
CLIENTS = 16
TRANSFERS_PER_CLIENT = 200
HOT_ACCOUNTS = 4
HOT_SHARE = 0.10
OPENING_BALANCE = 1000
#: A deadlock victim restarts from BEGIN at most this often; a transfer
#: that runs out of retries is a failed op.
MAX_RETRIES = 50
#: Rounds in which no client moved before the driver gives up.
STUCK_ROUNDS = 4


@dataclass
class Inputs:
    #: Per client: [(debit account, credit account, amount)].
    scripts: list[list[tuple[int, int, int]]]
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Client:
    session: object
    transfers: list[tuple[int, int, int]]
    index: int = 0
    #: -1: BEGIN next; 0, 1: that UPDATE next; 2: COMMIT next.
    step: int = -1
    parked: bool = False
    retries: int = 0
    began_at: float | None = None
    host_ns: int = 0

    @property
    def done(self) -> bool:
        return self.index >= len(self.transfers)


@dataclass
class Context:
    inputs: Inputs
    db: PrismaDB
    #: Balances after every *acknowledged* commit, and nothing else.
    model: dict[int, int] = field(default_factory=dict)


class TxnTransferRecovery(Workload):
    name = "txn_transfer_recovery"

    def generate(self, seed: int, quick: bool) -> Inputs:
        scripts = []
        for client in range(CLIENTS):
            rng = rng_for(seed, self.name, client)
            transfers = []
            for _ in range(2 if quick else TRANSFERS_PER_CLIENT):
                debit = rng.randrange(N_ACCOUNTS)
                credit = rng.randrange(N_ACCOUNTS)
                if rng.random() < HOT_SHARE:
                    if rng.random() < 0.5:
                        debit = rng.randrange(HOT_ACCOUNTS)
                    else:
                        credit = rng.randrange(HOT_ACCOUNTS)
                if debit == credit:
                    credit = (credit + 1) % N_ACCOUNTS
                transfers.append((debit, credit, rng.randint(1, 10)))
            scripts.append(transfers)
        return Inputs(scripts, {"transfers": digest(scripts)})

    def _database(self, tracer) -> PrismaDB:
        db = PrismaDB(MachineConfig(n_nodes=32, disk_nodes=(0, 16)), tracer=tracer)
        db.execute(
            "CREATE TABLE account (id INT PRIMARY KEY, balance INT NOT NULL)"
            f" FRAGMENTED BY HASH(id) INTO {FRAGMENTS}"
        )
        db.bulk_load(
            "account", [(account, OPENING_BALANCE) for account in range(N_ACCOUNTS)]
        )
        return db

    def setup(self, inputs: Inputs, tracer=None) -> Context:
        # Warm-up on a throwaway database: one transfer and a restart.
        scratch = self._database(None)
        session = scratch.session()
        session.begin()
        for statement in _statements(*inputs.scripts[0][0]):
            session.execute(statement)
        session.commit()
        scratch.crash()
        scratch.restart()
        return Context(inputs, self._database(tracer))

    # -- the timed pass ----------------------------------------------------

    def run(self, ctx: Context, recorder) -> Rep:
        rep = Rep()
        db = ctx.db
        ctx.model = {account: OPENING_BALANCE for account in range(N_ACCOUNTS)}
        clients = [
            Client(db.session(), transfers) for transfers in ctx.inputs.scripts
        ]
        started_sim = min(client.session.clock for client in clients)
        latencies: list[float] = []
        tally = {"would_block": 0, "deadlocks": 0, "attempts": 0, "statements": 0}
        recorder.start([db])
        stuck = 0
        while stuck < STUCK_ROUNDS and not all(client.done for client in clients):
            progressed = False
            for number, client in enumerate(clients):
                if client.done or client.parked:
                    continue
                progressed |= self._step(
                    ctx, client, number, recorder, rep, latencies, tally
                )
                recorder.between_ops()
            # Commits of this round may have released what parked
            # clients wait for.
            for client in clients:
                client.parked = False
            stuck = 0 if progressed else stuck + 1
        finished_sim = max(client.session.clock for client in clients)
        abandoned = sum(len(c.transfers) - c.index for c in clients)
        rep.attempted += abandoned
        rep.failed += abandoned
        recorder.call(-1, db.crash)
        report = recorder.call(-1, db.restart)
        restart_ns = recorder.last_ns
        recorder.stop(rep)
        rep.ops = len(latencies)
        makespan = finished_sim - started_sim
        ordered = sorted(latencies)
        rep.sim = {
            "sim_p50_ms": percentile(ordered, 0.50) * 1e3,
            "sim_p99_ms": percentile(ordered, 0.99) * 1e3,
            "sim_tput_ops": len(latencies) / makespan,
        }
        attempts_per_commit = tally["attempts"] / max(1, tally["statements"])
        rep.counts = {
            "sim_recovery_s": report.duration_s,
            "samples": len(latencies),
            "would_block": tally["would_block"],
            "deadlocks": tally["deadlocks"],
            "attempts_per_commit": attempts_per_commit,
            "sim_spans_s": [db.simulated_time() - started_sim],
        }
        rep.layers = {
            # The lock manager itself is replaced by the crash.
            "core.locks.deadlocks": tally["deadlocks"],
            "core.recovery.restart_host_ms": restart_ns / 1e6,
            "core.recovery.log_scan_sim_s": report.commit_log_scan_s,
            "core.recovery.wal_replay_sim_s": (
                report.duration_s - report.commit_log_scan_s
            ),
            "core.recovery.rows_restored": report.rows_restored,
        }
        return rep

    def _step(self, ctx, client, number, recorder, rep, latencies, tally) -> bool:
        """Advance one client by one call; True if it moved."""
        session = client.session
        debit, credit, amount = client.transfers[client.index]
        op_id = number * 1_000_000 + client.index
        try:
            try:
                if client.step < 0:
                    if client.began_at is None:
                        client.began_at = session.clock
                        rep.attempted += 1
                    recorder.call(op_id, session.begin)
                elif client.step < 2:
                    tally["attempts"] += 1
                    statement = _statements(debit, credit, amount)[client.step]
                    recorder.call(op_id, session.execute, statement)
                else:
                    recorder.call(op_id, session.commit)
            finally:
                client.host_ns += recorder.last_ns
        except WouldBlock:
            tally["would_block"] += 1
            client.parked = True
            return False
        except DeadlockError:
            # The GDH already rolled the victim back; start over.
            tally["deadlocks"] += 1
            client.retries += 1
            client.step = -1
            if client.retries > MAX_RETRIES:
                rep.failed += 1
                self._next_transfer(client)
            return True
        except PrismaError:
            rep.failed += 1
            self._next_transfer(client)
            return True
        client.step += 1
        if client.step > 2:
            # COMMIT was acknowledged: the model now owes this transfer.
            ctx.model[debit] -= amount
            ctx.model[credit] += amount
            tally["statements"] += 2
            latencies.append(session.clock - client.began_at)
            rep.op_ns.append(client.host_ns)
            self._next_transfer(client)
        return True

    @staticmethod
    def _next_transfer(client: Client) -> None:
        client.index += 1
        client.step = -1
        client.retries = 0
        client.began_at = None
        client.host_ns = 0

    # -- oracle ------------------------------------------------------------

    def verify(self, ctx: Context, rep: Rep) -> None:
        """After crash + restart the balances equal the model of
        acknowledged commits (so nothing aborted is visible) and the
        total is conserved."""
        balances = dict(ctx.db.query("SELECT id, balance FROM account"))
        rep.failed += sum(
            1 for account, balance in ctx.model.items()
            if balances.get(account) != balance
        )
        if sum(balances.values()) != N_ACCOUNTS * OPENING_BALANCE:
            rep.failed += 1


def _statements(debit: int, credit: int, amount: int) -> tuple[str, str]:
    return (
        f"UPDATE account SET balance = balance - {amount} WHERE id = {debit}",
        f"UPDATE account SET balance = balance + {amount} WHERE id = {credit}",
    )
