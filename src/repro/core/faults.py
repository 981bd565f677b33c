"""Deterministic fault injection (paper Section 3.2's failure model).

The paper grounds "automatic recovery upon system failures" in stable
storage on the disk-equipped elements; this module supplies the
*failures*.  Three fault classes are supported, all deterministic and
replayable from a seed:

* **element crash** — one processing element goes down: every POOL-X
  process placed on it is killed (volatile state lost; later sends to
  it raise :class:`~repro.errors.ProcessCrashed`) and routes through it
  disappear.  Durable state (WAL chunks, snapshots, the commit log) is
  on the disk-equipped elements and survives.
* **link failure** — one interconnect link goes down; traffic reroutes
  over surviving paths, or raises
  :class:`~repro.errors.LinkDownError` when the fault cuts the network.
* **coordinator halt** — the commit coordinator stops at a *named crash
  point* threaded through :class:`~repro.core.twophase.TwoPhaseCommit`
  (:class:`CrashPoint`), by raising
  :class:`~repro.errors.InjectedCrash` out of the protocol.  Nothing in
  the engine catches it, so the system is left exactly as the crash
  found it: prepared participants in doubt, locks held.

An element fails and comes back only through the database's verbs,
:meth:`~repro.core.recovery.RecoveryManager.crash_element` and
:meth:`~repro.core.recovery.RecoveryManager.restart_element` (``db.crash_element``,
``db.restart_element``): they change the machine's fault state, kill
or respawn the element's processes, settle the transactions that lost a
participant and log the injection.  Links fail through the injector's
:meth:`FaultInjector.fail_link`/:meth:`FaultInjector.restore_link`, and
:meth:`FaultInjector.scope` combines both with guaranteed restore.

Every injection is appended to a log; :meth:`FaultInjector.fingerprint`
hashes that log and the seed so two runs with the same seed and the same
driver can be diffed bit-for-bit (the CI determinism gate does exactly
this).
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import InjectedCrash, MachineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.recovery import RecoveryManager
    from repro.machine.machine import Machine


class CrashPoint(enum.Enum):
    """Named halt points inside the commit/abort protocol.

    The value strings appear in injection logs and test parametrization;
    ``1pc``/``2pc``/``abort`` prefixes group them by protocol path.
    """

    #: 1PC, before the single participant is told to commit: nothing
    #: durable anywhere — presumed abort must roll the transaction back.
    ONE_PC_BEFORE_PARTICIPANT_COMMIT = "1pc.before_participant_commit"
    #: 1PC, after the participant forced its commit record but before
    #: the coordinator logged the decision: the participant's WAL is
    #: authoritative — recovery must keep the transaction committed.
    ONE_PC_AFTER_PARTICIPANT_COMMIT = "1pc.after_participant_commit"
    #: 1PC, after the coordinator wrote its log entry (lazily: nothing
    #: waits for it): committed everywhere.
    ONE_PC_AFTER_LOG_FORCE = "1pc.after_log_force"
    #: 2PC, before any PREPARE went out.
    TWO_PC_BEFORE_PREPARE = "2pc.before_prepare"
    #: 2PC, after the first participant prepared (it is now in doubt).
    TWO_PC_MID_PREPARE = "2pc.mid_prepare"
    #: 2PC, every participant's vote durable, the commit-log entry not
    #: yet written: the votes decide — recovery must keep the
    #: transaction committed and rebuild the entry from them.
    TWO_PC_AFTER_PREPARE = "2pc.after_prepare"
    #: 2PC, after the coordinator wrote its commit-log entry (lazily:
    #: nothing waits for it), phase two not started.
    TWO_PC_AFTER_LOG_FORCE = "2pc.after_log_force"
    #: 2PC, after the first participant received the commit decision
    #: (its commit record appended, not forced).
    TWO_PC_MID_PHASE_TWO = "2pc.mid_phase_two"
    #: Abort, before anything was logged or undone.
    ABORT_BEFORE_LOG = "abort.before_log"
    #: Abort, after the first participant undid its effects.
    ABORT_MID_UNDO = "abort.mid_undo"


#: Points on the 1PC path, the n-participant 2PC path, the abort path.
ONE_PC_POINTS = (
    CrashPoint.ONE_PC_BEFORE_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_LOG_FORCE,
)
TWO_PC_POINTS = (
    CrashPoint.TWO_PC_BEFORE_PREPARE,
    CrashPoint.TWO_PC_MID_PREPARE,
    CrashPoint.TWO_PC_AFTER_PREPARE,
    CrashPoint.TWO_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_MID_PHASE_TWO,
)
ABORT_POINTS = (
    CrashPoint.ABORT_BEFORE_LOG,
    CrashPoint.ABORT_MID_UNDO,
)


class FaultInjector:
    """Seeded, deterministic source of element/link/coordinator faults.

    One injector serves one database instance; the GDH threads it into
    the commit protocol, the facade exposes it as ``db.faults``, and the
    database's :class:`~repro.core.recovery.RecoveryManager` binds itself
    to it.  Armed crash points fire once and disarm (re-arm explicitly
    to crash again); element/link faults persist until restored.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.recovery: RecoveryManager | None = None
        #: point -> (txn filter or None, remaining hits to skip)
        self._armed: dict[CrashPoint, tuple[int | None, int]] = {}
        #: Append-only log of everything that fired, in order.
        self.injections: list[tuple[str, ...]] = []

    def bind(self, recovery: RecoveryManager) -> None:
        """Attach to the recovery manager whose elements faults target."""
        self.recovery = recovery

    def _require_recovery(self) -> RecoveryManager:
        if self.recovery is None:
            raise MachineError("fault injector is not bound to a database")
        return self.recovery

    def _machine(self) -> Machine:
        return self._require_recovery().gdh.runtime.machine

    def record(self, *entry: str) -> None:
        """Append one entry to the injection log."""
        self.injections.append(entry)

    # -- coordinator crash points --------------------------------------------

    def arm(
        self, point: CrashPoint, txn_id: int | None = None, skip: int = 0
    ) -> None:
        """Arm a crash point: the (skip+1)-th matching pass raises.

        *txn_id* restricts the trigger to one transaction; *skip* lets
        the first N transactions through (crash "mid-workload").
        """
        self._armed[point] = (txn_id, skip)

    def disarm(self, point: CrashPoint) -> None:
        self._armed.pop(point, None)

    def armed_points(self) -> list[CrashPoint]:
        return sorted(self._armed, key=lambda p: p.value)

    def crash_point(self, point: CrashPoint, txn_id: int) -> None:
        """Protocol-side hook: halt here if this point is armed.

        Called by :class:`~repro.core.twophase.TwoPhaseCommit` at every
        named point; a no-op unless armed (the common case is one dict
        lookup on an empty dict).
        """
        if not self._armed:
            return
        entry = self._armed.get(point)
        if entry is None:
            return
        wanted_txn, skip = entry
        if wanted_txn is not None and wanted_txn != txn_id:
            return
        if skip > 0:
            self._armed[point] = (wanted_txn, skip - 1)
            return
        del self._armed[point]
        self.record("crash_point", point.value, str(txn_id))
        raise InjectedCrash(point.value, txn_id)

    # -- link faults ------------------------------------------------------------

    def fail_link(self, u: int, v: int) -> bool:
        """Cut a link; True if it was up (logged either way)."""
        introduced = self._machine().fail_link(u, v)
        self.record("fail_link", str(u), str(v))
        return introduced

    def restore_link(self, u: int, v: int) -> None:
        self._machine().restore_link(u, v)
        self.record("restore_link", str(u), str(v))

    @contextmanager
    def scope(
        self,
        nodes: tuple[int, ...] | list[int] = (),
        links: tuple[tuple[int, int], ...] | list[tuple[int, int]] = (),
    ) -> Iterator[None]:
        """Element crashes and link cuts with guaranteed restore:
        ``with db.faults.scope(nodes=[3], links=[(0, 1)]): ...``.

        On entry each element in *nodes* crashes through
        :meth:`RecoveryManager.crash_element
        <repro.core.recovery.RecoveryManager.crash_element>` (its
        transactions are settled, its copies reaped) and each link in
        *links* is cut through :meth:`fail_link`.  On exit, exception or
        not, exactly the faults the scope introduced are undone in
        reverse order: elements through ``restart_element`` (their
        copies replay and catch up), links through :meth:`restore_link`.
        An element or link already down on entry stays down.
        """
        recovery = self._require_recovery()
        machine = recovery.gdh.runtime.machine
        undo: list[Callable[[], object]] = []
        try:
            for node_id in nodes:
                if machine.node_is_up(node_id):
                    recovery.crash_element(node_id)
                    undo.append(partial(recovery.restart_element, node_id))
            for u, v in links:
                if self.fail_link(u, v):
                    undo.append(partial(self.restore_link, u, v))
            yield
        finally:
            while undo:
                undo.pop()()

    # -- determinism / Snapshot protocol --------------------------------------

    def stats(self) -> dict[str, object]:
        """Snapshot view: seed, armed points, and the injection log."""
        return {
            "seed": self.seed,
            "armed": [point.value for point in self.armed_points()],
            "injections": [list(entry) for entry in self.injections],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical injection log (+ seed).

        Two runs with the same seed and driver must produce identical
        fingerprints; the CI determinism gate diffs them.  This predates
        the :class:`~repro.obs.api.Snapshot` protocol and its exact
        payload is pinned by the A4 bench baselines, so it hashes the
        log directly rather than ``stats()``.
        """
        canonical = repr((self.seed, self.injections)).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()
