"""Fragment-granularity two-phase locking with deadlock detection.

Section 2.2: "evaluation of several queries and updates can be done in
parallel, except for accesses to the same copy of base fragments of the
database" — concurrency control serializes exactly those accesses.
Readers share (S), writers exclude (X), at the granularity of one
fragment (= one OFM).

The engine is driven synchronously, so a conflicting request cannot
truly block the caller; instead :meth:`LockManager.acquire` raises
:class:`WouldBlock` after registering the request in a FIFO wait queue
and the wait-for graph.  The workload driver re-issues the statement
when the holder finishes; simulated waiting time is accounted because a
later grant returns a release timestamp, to which the waiter's clock
must advance.  The floor depends on the mode: an X grant waits for the
last release of any hold, an S grant only for the last release of an
X hold, so readers of one fragment copy share it in simulated time
rather than queueing behind each other.  A request that would close a
cycle in the wait-for graph raises :class:`~repro.errors.DeadlockError`
instead (the requester is the victim).
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.errors import DeadlockError, TransactionError

Resource = tuple[str, int]  # (table name, fragment id)


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class WouldBlock(TransactionError):
    """The request must wait for other transactions to release."""

    def __init__(self, txn_id: int, resource: Resource, holders: set[int]):
        super().__init__(
            f"transaction {txn_id} must wait for {sorted(holders)}"
            f" on fragment {resource}"
        )
        self.txn_id = txn_id
        self.resource = resource
        self.holders = holders


@dataclass
class _LockState:
    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: deque = field(default_factory=deque)  # (txn_id, mode)
    last_release_time: float = 0.0  # latest release of any hold
    exclusive_release_time: float = 0.0  # latest release of an X hold


def _compatible(requested: LockMode, held: LockMode) -> bool:
    return requested is LockMode.SHARED and held is LockMode.SHARED


class LockManager:
    """S/X locks per fragment, FIFO queues, wait-for-graph deadlock checks.

    A grant returns its wait floor, the simulated time the requester's
    clock advances to: an X grant (new, upgrade or re-request) waits
    for the latest release of any hold, ``last_release_time``; an S
    grant (new or re-request) only for the latest release of an X hold,
    ``exclusive_release_time``.  An S hold upgraded to X releases as X.

    Idle entries are not kept forever: an entry with no holders and no
    waiters only carries its release stamps (the wait floors a future
    acquirer's clock advances to).  Once ``last_release_time``, the
    later of the two, is more than *retain_horizon_s* of simulated time
    in the past, neither floor can move any live requester's clock
    (``advance_to`` is a max), so the entry is purged — bounding the
    table under sustained multi-fragment traffic instead of leaking one
    entry per fragment ever touched.
    """

    def __init__(self, retain_horizon_s: float = 300.0):
        self._locks: dict[Resource, _LockState] = {}
        #: txn -> set of txns it waits for (live edges only)
        self._wait_for: dict[int, set[int]] = {}
        #: The same edges reversed: txn -> txns with an edge to it.
        self._waited_by: dict[int, set[int]] = {}
        #: txn -> resources it holds / is queued on, in the order it got
        #: there, so a release touches only those.
        self._held: dict[int, dict[Resource, None]] = {}
        self._queued: dict[int, dict[Resource, None]] = {}
        self.deadlocks_detected = 0
        self.conflicts = 0
        #: How long an idle entry's release stamp stays relevant; the
        #: purge is conservative — any transaction whose clock lags the
        #: latest release by more than this would observe a floor of 0,
        #: which advance_to() ignores anyway.
        self.retain_horizon_s = retain_horizon_s
        self.entries_purged = 0
        self._last_sweep_time = 0.0

    # -- queries ---------------------------------------------------------------

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def locks_of(self, txn_id: int) -> list[Resource]:
        """What *txn_id* holds, in the order it acquired it."""
        return list(self._held.get(txn_id, ()))

    # -- acquisition -------------------------------------------------------------

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> float:
        """Grant the lock or raise WouldBlock / DeadlockError.

        On success returns the wait floor: the requester's simulated
        clock must be advanced to at least this value (it logically
        waited for the previous conflicting holder).  That is the last
        release of any hold for an X grant, of an X hold for an S grant.
        """
        state = self._locks.get(resource)
        if state is None:
            state = self._locks[resource] = _LockState()
        held = state.holders.get(txn_id)
        if held is LockMode.EXCLUSIVE:
            return state.last_release_time  # re-entrant / covered
        if held is mode:
            return state.exclusive_release_time  # an S holder asks for S
        conflicting = {
            other
            for other, other_mode in state.holders.items()
            if other != txn_id and not _compatible(mode, other_mode)
        }
        if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            # Upgrade: allowed only as the sole holder.
            if not conflicting:
                state.holders[txn_id] = LockMode.EXCLUSIVE
                return state.last_release_time
        # FIFO fairness applies only to *incompatible* waiters ahead of us
        # (a shared request may join other shared requests).
        ahead: list[tuple[int, LockMode]] = []
        for waiting, waiting_mode in state.waiters:
            if waiting == txn_id:
                break
            ahead.append((waiting, waiting_mode))
        blocking_waiters = {
            waiting
            for waiting, waiting_mode in ahead
            if not _compatible(mode, waiting_mode)
        }
        if not conflicting and not blocking_waiters:
            self._dequeue(txn_id, resource)
            self._clear_waits(txn_id)
            state.holders[txn_id] = (
                LockMode.EXCLUSIVE if held is LockMode.SHARED else mode
            )
            self._held.setdefault(txn_id, {})[resource] = None
            if mode is LockMode.SHARED:
                return state.exclusive_release_time
            return state.last_release_time
        # Conflict: check for deadlock before registering the wait.
        self.conflicts += 1
        blockers = conflicting | blocking_waiters
        if self._would_deadlock(txn_id, blockers):
            self.deadlocks_detected += 1
            self._clear_waits(txn_id)
            self._dequeue(txn_id, resource)
            raise DeadlockError(
                f"transaction {txn_id} would deadlock on fragment {resource};"
                " chosen as victim"
            )
        self._wait_for.setdefault(txn_id, set()).update(blockers)
        for blocker in blockers:  # prismalint: disable=PL102 -- each blocker's set gains txn_id; order cannot leak
            self._waited_by.setdefault(blocker, set()).add(txn_id)
        queued = self._queued.setdefault(txn_id, {})
        if resource not in queued:
            queued[resource] = None
            state.waiters.append((txn_id, mode))
        raise WouldBlock(txn_id, resource, blockers or set(state.holders))

    def withdraw_waits(self, txn_id: int, keep: Collection[Resource]) -> None:
        """Take *txn_id* out of the wait queues of every resource not in
        *keep* (a statement's lock phase passes its lock set: an abandoned
        request must not hold the queue, a retry keeps its place) — and,
        once it waits nowhere, drop its wait-for edges."""
        queued = self._queued.get(txn_id)
        if not queued:
            return
        for resource in [r for r in queued if r not in keep]:
            self._dequeue(txn_id, resource)
        if txn_id not in self._queued:
            self._clear_waits(txn_id)

    def _would_deadlock(self, txn_id: int, new_blockers: set[int]) -> bool:
        """Would adding edges txn_id -> new_blockers close a cycle?"""
        # DFS from each blocker through existing wait-for edges.
        stack = sorted(new_blockers)
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if current == txn_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._wait_for.get(current, ()))
        return False

    # -- release --------------------------------------------------------------------

    def release_all(self, txn_id: int, release_time: float) -> list[Resource]:
        """Drop every lock of *txn_id*; stamps the release time (as
        the last X release too where the hold was X).

        Returns the resources that now have runnable waiters (the
        driver uses this to know which sessions to retry), in the order
        the transaction acquired them.  Only the entries the transaction
        holds or waits on are visited.
        """
        unblocked: list[Resource] = []
        for resource in self._held.pop(txn_id, ()):
            state = self._locks[resource]
            mode = state.holders.pop(txn_id)
            state.last_release_time = max(state.last_release_time, release_time)
            if mode is LockMode.EXCLUSIVE:
                state.exclusive_release_time = max(
                    state.exclusive_release_time, release_time
                )
            if state.waiters:
                unblocked.append(resource)
        for resource in list(self._queued.get(txn_id, ())):
            self._dequeue(txn_id, resource)
        self._clear_waits(txn_id)
        # Remove txn from others' blocker sets.
        for waiting in self._waited_by.pop(txn_id, ()):
            self._wait_for[waiting].discard(txn_id)
        self._sweep_idle_entries(release_time)
        return unblocked

    def _sweep_idle_entries(self, now: float) -> None:
        """Amortized purge of idle entries past the retain horizon.

        Runs at most once per horizon of simulated time, so release_all
        stays O(locks held) on average rather than O(all entries ever).
        """
        horizon = self.retain_horizon_s
        if now - self._last_sweep_time < horizon:
            return
        self._last_sweep_time = now
        cutoff = now - horizon
        stale = [
            resource
            for resource, state in self._locks.items()
            if not state.holders
            and not state.waiters
            and state.last_release_time <= cutoff
        ]
        for resource in stale:
            del self._locks[resource]
        self.entries_purged += len(stale)

    def _dequeue(self, txn_id: int, resource: Resource) -> None:
        """Drop *txn_id*'s request from *resource*'s queue, if it has one."""
        queued = self._queued.get(txn_id)
        if queued is None or resource not in queued:
            return
        del queued[resource]
        if not queued:
            del self._queued[txn_id]
        state = self._locks[resource]
        state.waiters = deque(
            (waiting, mode) for waiting, mode in state.waiters if waiting != txn_id
        )

    def _clear_waits(self, txn_id: int) -> None:
        for blocker in self._wait_for.pop(txn_id, ()):
            self._waited_by[blocker].discard(txn_id)

    def waiting_transactions(self) -> set[int]:
        return set(self._wait_for)
