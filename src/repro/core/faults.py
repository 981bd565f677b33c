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

Faults fire when the driver calls the injector's verbs
(:meth:`FaultInjector.crash_element`, :meth:`FaultInjector.fail_link`,
:meth:`FaultInjector.scope`, ...); database-level consequences of an
element crash go through
:meth:`~repro.core.recovery.RecoveryManager.crash_element`.

Every injection is appended to a log; :meth:`FaultInjector.fingerprint`
hashes that log and the seed so two runs with the same seed and the same
driver can be diffed bit-for-bit (the CI determinism gate does exactly
this).
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING

from repro.errors import InjectedCrash, MachineError
from repro.machine.machine import FaultScope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pool.runtime import PoolRuntime


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
    the commit protocol, the facade exposes it as ``db.faults``.  Armed
    crash points fire once and disarm (re-arm explicitly to crash
    again); element/link faults persist until restored.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.runtime: PoolRuntime | None = None
        #: point -> (txn filter or None, remaining hits to skip)
        self._armed: dict[CrashPoint, tuple[int | None, int]] = {}
        #: Append-only log of everything that fired, in order.
        self.injections: list[tuple[str, ...]] = []

    def bind(self, runtime: PoolRuntime) -> None:
        """Attach to the runtime whose machine/processes faults target."""
        self.runtime = runtime

    def _require_runtime(self) -> PoolRuntime:
        if self.runtime is None:
            raise MachineError("fault injector is not bound to a runtime")
        return self.runtime

    def _log(self, *entry: str) -> None:
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
        self._log("crash_point", point.value, str(txn_id))
        raise InjectedCrash(point.value, txn_id)

    # -- element / link faults ------------------------------------------------

    def crash_element(self, node_id: int) -> list[str]:
        """Take one processing element down, killing its processes.

        Returns the names of the killed processes (sorted).  Database-
        level consequences — aborting transactions that lost a
        participant, dropping dead OFMs from the registry — are driven
        by :meth:`~repro.core.recovery.RecoveryManager.crash_element`,
        which calls this.
        """
        runtime = self._require_runtime()
        runtime.machine.fail_node(node_id)
        killed = runtime.crash_node(node_id)
        self._log("crash_element", str(node_id), *killed)
        return killed

    def restore_element(self, node_id: int) -> None:
        """Bring a failed element back (empty; processes are respawned
        by restart recovery, not resurrected)."""
        self._require_runtime().machine.restore_node(node_id)
        self._log("restore_element", str(node_id))

    def fail_link(self, u: int, v: int) -> bool:
        """Cut a link; True if it was up (logged either way)."""
        introduced = self._require_runtime().machine.fail_link(u, v)
        self._log("fail_link", str(u), str(v))
        return introduced

    def restore_link(self, u: int, v: int) -> None:
        self._require_runtime().machine.restore_link(u, v)
        self._log("restore_link", str(u), str(v))

    def scope(
        self,
        nodes: tuple[int, ...] | list[int] = (),
        links: tuple[tuple[int, int], ...] | list[tuple[int, int]] = (),
    ):
        """Scoped faults with guaranteed restore, through the injector.

        The logged twin of :meth:`Machine.faults
        <repro.machine.machine.Machine.faults>`: element failures also
        crash resident processes, and every transition lands in the
        injection log (so the scope shows up in the determinism
        fingerprint).  ``with db.faults.scope(nodes=[3]): ...``
        """
        machine = self._require_runtime().machine
        return FaultScope(machine, nodes=nodes, links=links, injector=self)

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
