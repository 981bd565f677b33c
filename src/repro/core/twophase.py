"""Two-phase commit across One-Fragment Managers.

The Global Data Handler coordinates: phase one sends PREPARE to every
participant OFM, which forces its WAL and votes; phase two distributes
the decision.  The durable prepares *are* the decision: each forced
``PrepareRecord`` names every participant, and a transaction committed
iff all of them hold one (and no ``AbortRecord``).  The coordinator's
commit-log entry (on a disk-equipped element) is written once every
vote is in, without a wait — a cache that restart rebuilds from the
votes when it is missing.  Single-participant transactions take the
one-phase fast path (no vote round needed when there is nobody to
disagree with): the participant's forced commit record is the decision.

Each round fans out and back in (:meth:`TwoPhaseCommit._round`): every
request leaves before any reply is read and the participants work on
their own clocks, so a round waits for its slowest participant, not
for the sum of them — the participants on different elements work at
the same time (paper Section 2.2).

Presumed abort decides which writes the commit waits for: the prepare
forces, or the one participant's force on the 1PC path.  Every
coordinator log entry, a prepared participant's commit record and every
abort record are written without a wait, because restart rebuilds each
from a forced record or presumes abort when it is missing (DESIGN.md
§9, "What a commit forces").  So the coordinator's clock, the commit's
acknowledged latency, advances by the message rounds plus the slowest
of the forces each round waits for — what the E9 benchmark measures as
"commit overhead".  A commit raises
:class:`~repro.errors.TransactionAborted` only when some participant
holds no durable vote: its PREPARE never arrived, or its force never
reached the disk (:meth:`WriteAheadLog.force` drops the records then).
"""

from __future__ import annotations

import ast as _pyast
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import MachineError, RecoveryError, TransactionAborted
from repro.machine.machine import Machine
from repro.obs.tracer import active
from repro.ofm.manager import OneFragmentManager
from repro.pool.process import PoolProcess
from repro.pool.runtime import PoolRuntime
from repro.core.faults import CrashPoint, FaultInjector
from repro.core.transactions import Transaction

#: Size of 2PC control messages (prepare / vote / decision / ack).
CONTROL_MESSAGE_BYTES = 64


class CommitLog:
    """The coordinator's durable transaction-outcome log.

    Every entry is a cache, written lazily (the protocol does not charge
    :meth:`record`'s cost): a commit caches the forced record that
    decided it — the 1PC participant's CommitRecord, or the 2PC
    participants' PrepareRecords — and an unknown transaction is
    presumed aborted.  Recovery charges the entries it rebuilds.

    A commit entry may be dropped only after every participant's WAL
    has forced past it (its CommitRecord durable, or a checkpoint taken
    after it), and a participant may truncate its PrepareRecord only
    once the entry is here: either way, one durable trace of the commit
    must remain.
    """

    def __init__(self, machine: Machine, coordinator_node: int):
        self.machine = machine
        disk_node = machine.nearest_disk_node(coordinator_node)
        self.disk = machine.nodes[disk_node].disk
        assert self.disk is not None
        self.coordinator_node = coordinator_node

    def record(self, txn_id: int, outcome: str) -> float:
        """Write the decision to disk; returns the simulated cost, which
        recovery charges when it rebuilds an entry and the protocol
        does not."""
        payload = repr((txn_id, outcome)).encode("utf-8")
        network = self.machine.transfer_time(
            self.coordinator_node, self.disk.node, len(payload)
        )
        return network + self.disk.write(f"gdhlog/{txn_id}", payload, sequential=True)

    def lookup(self, txn_id: int) -> tuple[str | None, float]:
        """One transaction's entry (None when there is none), plus the
        simulated cost of reading it."""
        key = f"gdhlog/{txn_id}"
        if key not in self.disk:
            return None, 0.0
        payload, cost = self.disk.read(key, sequential=True)
        return _decode_entry(key, payload)[1], cost + self.machine.transfer_time(
            self.disk.node, self.coordinator_node, 16
        )

    def scan(self) -> tuple[dict[int, str], float]:
        """All durable decisions plus the simulated cost of reading them.

        Restart recovery *must* charge this cost: the commit-log scan
        sits on the restart critical path before any fragment replay
        can resolve its in-doubt transactions.
        """
        result: dict[int, str] = {}
        cost = 0.0
        for key in self.disk.keys("gdhlog/"):
            payload, read_cost = self.disk.read(key, sequential=True)
            cost += read_cost
            txn_id, outcome = _decode_entry(key, payload)
            result[txn_id] = outcome
        cost += self.machine.transfer_time(
            self.disk.node, self.coordinator_node, 16 * len(result) + 16
        )
        return result, cost


def _decode_entry(key: str, payload: bytes) -> tuple[int, str]:
    try:
        txn_id, outcome = _pyast.literal_eval(payload.decode("utf-8"))
    except (ValueError, SyntaxError) as exc:
        raise RecoveryError(f"corrupt commit log entry {key}: {exc}") from None
    return int(txn_id), str(outcome)


@dataclass
class CommitOutcome:
    """What one commit cost, for reporting."""

    txn_id: int
    committed: bool
    participants: int
    messages: int
    completed_at: float
    one_phase: bool
    #: Participants that could not be reached with the decision (they
    #: were dead; restart recovery resolves them from the commit log).
    unreached: int = 0


class TwoPhaseCommit:
    """Coordinator-side protocol driver.

    A :class:`~repro.core.faults.FaultInjector` may be threaded in; the
    protocol then passes every named :class:`CrashPoint` through
    :meth:`FaultInjector.crash_point`, which raises
    :class:`~repro.errors.InjectedCrash` when armed — simulating the
    coordinator halting at exactly that instant.

    Participant death is never silent: a send to a crashed OFM raises
    :class:`~repro.errors.MachineError`.  During phase one this aborts
    the transaction once the live participants have voted (the dead
    participant holds no durable vote, so every resolution aborts it);
    once every vote is durable it only marks the participant
    *unreached* — it will learn the outcome from the commit log when
    its element restarts.
    """

    def __init__(
        self,
        runtime: PoolRuntime,
        commit_log: CommitLog,
        allow_one_phase: bool = True,
        faults: FaultInjector | None = None,
    ):
        self.runtime = runtime
        self.commit_log = commit_log
        self.allow_one_phase = allow_one_phase
        self.faults = faults
        self._tracer = active(runtime.tracer)

    def _crash_point(self, point: CrashPoint, txn_id: int) -> None:
        if self.faults is not None:
            self.faults.crash_point(point, txn_id)

    def commit(self, txn: Transaction, coordinator: PoolProcess) -> CommitOutcome:
        """Run the protocol; commits unless a participant fails during
        phase one, in which case the transaction is rolled back and
        :class:`~repro.errors.TransactionAborted` raised."""
        # Read-only participant optimization: fragments the transaction
        # touched but never changed hold no transaction state and need
        # neither votes nor decisions.
        participants = [
            ofm
            for ofm in txn.participants.values()
            if ofm.has_transaction_state(txn.txn_id)
        ]
        if not participants:
            # Read-only: nothing to make durable.
            return CommitOutcome(
                txn.txn_id, True, 0, 0, coordinator.ready_at, one_phase=True
            )

        if len(participants) == 1 and self.allow_one_phase:
            # One-phase: the single participant's force IS the decision.
            # Its durable commit record is authoritative — the
            # coordinator's own log entry, written after without a wait,
            # is only a cache (restart repairs the log from the
            # participant when the entry is missing; see RecoveryManager).
            started = coordinator.ready_at
            self._crash_point(
                CrashPoint.ONE_PC_BEFORE_PARTICIPANT_COMMIT, txn.txn_id
            )
            if not self._round(
                txn.txn_id,
                coordinator,
                participants,
                lambda ofm: ofm.commit(txn.txn_id),
                CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
            ):
                self._abort_after_failure(txn, coordinator, participants)
            self.commit_log.record(txn.txn_id, "commit")
            self._crash_point(CrashPoint.ONE_PC_AFTER_LOG_FORCE, txn.txn_id)
            if self._tracer is not None:
                self._tracer.span(
                    started,
                    coordinator.ready_at,
                    "2pc.one_phase",
                    f"txn{txn.txn_id}",
                    node=coordinator.node_id,
                    actor=coordinator.name,
                    participants=1,
                )
            return CommitOutcome(
                txn.txn_id, True, 1, 2, coordinator.ready_at, one_phase=True
            )

        # Phase one: prepare round.  Each vote names every participant.
        started = coordinator.ready_at
        self._crash_point(CrashPoint.TWO_PC_BEFORE_PREPARE, txn.txn_id)
        names = tuple(ofm.name for ofm in participants)
        prepared = self._round(
            txn.txn_id,
            coordinator,
            participants,
            lambda ofm: ofm.prepare(txn.txn_id, names),
            CrashPoint.TWO_PC_MID_PREPARE,
        )
        if len(prepared) < len(participants):
            # A dead participant cannot vote: the decision is abort.
            self._abort_after_failure(
                txn,
                coordinator,
                [ofm for ofm in participants if ofm not in prepared],
            )
        if self._tracer is not None:
            self._tracer.span(
                started,
                coordinator.ready_at,
                "2pc.prepare",
                f"txn{txn.txn_id}",
                node=coordinator.node_id,
                actor=coordinator.name,
                participants=len(participants),
            )
        # Every vote is durable: the transaction is committed.  The
        # commit-log entry only caches that, so nothing waits for it.
        self._crash_point(CrashPoint.TWO_PC_AFTER_PREPARE, txn.txn_id)
        self.commit_log.record(txn.txn_id, "commit")
        self._crash_point(CrashPoint.TWO_PC_AFTER_LOG_FORCE, txn.txn_id)

        # Phase two: decision + acks.  The decision is durable, so the
        # participants' commit records need no force; dead participants
        # are merely unreached, not a correctness problem.
        phase_two_started = coordinator.ready_at
        delivered = len(
            self._round(
                txn.txn_id,
                coordinator,
                participants,
                lambda ofm: ofm.commit(txn.txn_id),
                CrashPoint.TWO_PC_MID_PHASE_TWO,
            )
        )
        unreached = len(participants) - delivered
        if self._tracer is not None:
            self._tracer.span(
                phase_two_started,
                coordinator.ready_at,
                "2pc.phase_two",
                f"txn{txn.txn_id}",
                node=coordinator.node_id,
                actor=coordinator.name,
                delivered=delivered,
                unreached=unreached,
            )
        return CommitOutcome(
            txn.txn_id,
            True,
            len(participants),
            2 * (len(participants) + delivered),
            coordinator.ready_at,
            one_phase=False,
            unreached=unreached,
        )

    def _round(
        self,
        txn_id: int,
        coordinator: PoolProcess,
        participants: list[OneFragmentManager],
        work: Callable[[OneFragmentManager], object],
        after_first: CrashPoint | None = None,
    ) -> list[OneFragmentManager]:
        """One coordinator round, fanned out; returns the participants
        it reached.

        Every request leaves first, then each reached participant does
        *work* on its own clock, then the coordinator reads the replies
        in participant order: it waits for the slowest participant, not
        for the sum of them.  A participant that is dead, or whose work
        fails on the machine, is left out of the result and the others
        go on; the caller decides what an unreached participant means.
        *after_first* fires once the first participant has done its
        work.
        """
        sent = []
        for ofm in participants:
            try:
                self.runtime.send(coordinator, ofm, CONTROL_MESSAGE_BYTES)  # prismalint: disable=PL004 -- PoolRuntime.send charges SEND_OVERHEAD_S
            except MachineError:
                continue
            sent.append(ofm)
        reached = []
        for ofm in sent:
            try:
                work(ofm)
            except MachineError:
                # A force that cannot reach its disk: no reply comes.
                continue
            reached.append(ofm)
            if len(reached) == 1 and after_first is not None:
                self._crash_point(after_first, txn_id)
        for ofm in reached:
            self.runtime.send(ofm, coordinator, CONTROL_MESSAGE_BYTES)  # prismalint: disable=PL004 -- PoolRuntime.send charges SEND_OVERHEAD_S
        return reached

    def _abort_after_failure(
        self,
        txn: Transaction,
        coordinator: PoolProcess,
        unreached: list[OneFragmentManager],
    ) -> None:
        """A participant died before the decision: roll back and raise.

        The abort entry is lazy (presumed abort), so only the undo
        round's messages are charged."""
        self.commit_log.record(txn.txn_id, "abort")
        self._round(
            txn.txn_id,
            coordinator,
            [
                ofm
                for ofm in txn.participants.values()
                if ofm.alive and ofm.has_transaction_state(txn.txn_id)
            ],
            lambda ofm: ofm.abort(txn.txn_id),
        )
        raise TransactionAborted(
            f"transaction {txn.txn_id} aborted: participant failed during"
            f" commit ({', '.join(ofm.name for ofm in unreached)} unreachable)"
        )

    def abort(self, txn: Transaction, coordinator: PoolProcess) -> CommitOutcome:
        """Distribute an abort decision and undo at every participant.

        No abort record is forced (presumed abort): the coordinator
        waits only for the undo acknowledgements.  A dead participant's
        volatile effects died with it; restart replays nothing for an
        aborted transaction, so it only counts as unreached."""
        participants = [
            ofm
            for ofm in txn.participants.values()
            if ofm.has_transaction_state(txn.txn_id)
        ]
        started = coordinator.ready_at
        self._crash_point(CrashPoint.ABORT_BEFORE_LOG, txn.txn_id)
        self.commit_log.record(txn.txn_id, "abort")
        undone = len(
            self._round(
                txn.txn_id,
                coordinator,
                participants,
                lambda ofm: ofm.abort(txn.txn_id),
                CrashPoint.ABORT_MID_UNDO,
            )
        )
        unreached = len(participants) - undone
        if self._tracer is not None:
            self._tracer.span(
                started,
                coordinator.ready_at,
                "2pc.abort",
                f"txn{txn.txn_id}",
                node=coordinator.node_id,
                actor=coordinator.name,
                undone=undone,
                unreached=unreached,
            )
        return CommitOutcome(
            txn.txn_id,
            False,
            len(participants),
            2 * undone,
            coordinator.ready_at,
            one_phase=False,
            unreached=unreached,
        )
