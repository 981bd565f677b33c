"""Tests for the fragment lock manager: S/X modes, FIFO queues,
deadlock detection, release-time accounting."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError
from repro.core.locks import LockManager, LockMode, WouldBlock, _compatible, _LockState

R1 = ("emp", 0)
R2 = ("emp", 1)
R3 = ("dept", 0)

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


@pytest.fixture
def locks():
    return LockManager()


class TestGrants:
    def test_shared_locks_coexist(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(2, R1, S)
        assert set(locks.holders(R1)) == {1, 2}

    def test_exclusive_excludes(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, S)

    def test_shared_blocks_exclusive(self, locks):
        locks.acquire(1, R1, S)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)

    def test_reentrant(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(1, R1, X)
        locks.acquire(1, R1, S)  # covered by X
        assert locks.holders(R1) == {1: X}

    def test_upgrade_sole_holder(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(1, R1, X)
        assert locks.holders(R1) == {1: X}

    def test_upgrade_with_other_reader_blocks(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(2, R1, S)
        with pytest.raises(WouldBlock):
            locks.acquire(1, R1, X)

    def test_different_resources_independent(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(2, R2, X)
        locks.acquire(3, R3, X)
        assert locks.locks_of(1) == [R1]


class TestReleaseAndWaiters:
    def test_release_grants_waiter_with_release_time(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        locks.release_all(1, release_time=42.0)
        floor = locks.acquire(2, R1, X)
        assert floor == 42.0

    def test_release_time_monotone(self, locks):
        locks.acquire(1, R1, X)
        locks.release_all(1, release_time=50.0)
        locks.acquire(2, R1, X)
        locks.release_all(2, release_time=30.0)  # out-of-order stamp
        floor = locks.acquire(3, R1, X)
        assert floor == 50.0

    def test_fifo_fairness_incompatible_waiters(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(3, R1, X)
        locks.release_all(1, 1.0)
        # 3 retries first but 2 is ahead in the queue.
        with pytest.raises(WouldBlock):
            locks.acquire(3, R1, X)
        locks.acquire(2, R1, X)

    def test_shared_waiters_join_each_other(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, S)
        with pytest.raises(WouldBlock):
            locks.acquire(3, R1, S)
        locks.release_all(1, 1.0)
        locks.acquire(3, R1, S)  # S behind S: no fairness barrier
        locks.acquire(2, R1, S)
        assert set(locks.holders(R1)) == {2, 3}

    def test_release_returns_contended_resources(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(1, R2, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        unblocked = locks.release_all(1, 1.0)
        assert unblocked == [R1]

    def test_conflict_counter(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        assert locks.conflicts == 1


class TestWaitFloors:
    """An S grant waits for the last X release, an X grant for the last
    release of any hold."""

    def test_shared_after_a_released_reader_waits_for_nobody(self, locks):
        locks.acquire(1, R1, S)
        locks.release_all(1, 7.0)
        assert locks.acquire(2, R1, S) == 0.0

    def test_shared_after_a_reader_waits_for_the_last_writer(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, S)
        locks.release_all(1, 3.0)
        assert locks.acquire(2, R1, S) == 3.0
        locks.release_all(2, 9.0)
        assert locks.acquire(3, R1, S) == 3.0

    def test_exclusive_after_a_reader_gets_its_release(self, locks):
        locks.acquire(1, R1, S)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        locks.release_all(1, 5.0)
        assert locks.acquire(2, R1, X) == 5.0

    def test_a_readers_re_request_ignores_another_readers_release(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(2, R1, S)
        locks.release_all(2, 6.0)
        assert locks.acquire(1, R1, S) == 0.0

    def test_an_upgrade_waits_for_the_other_readers(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(2, R1, S)
        with pytest.raises(WouldBlock):
            locks.acquire(1, R1, X)
        locks.release_all(2, 8.0)
        assert locks.acquire(1, R1, X) == 8.0

    def test_an_upgraded_hold_releases_as_exclusive(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(1, R1, X)
        locks.release_all(1, 2.0)
        assert locks.acquire(2, R1, S) == 2.0


class TestDeadlocks:
    def test_two_party_deadlock_detected(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(2, R2, X)
        with pytest.raises(WouldBlock):
            locks.acquire(1, R2, X)  # 1 waits for 2
        with pytest.raises(DeadlockError):
            locks.acquire(2, R1, X)  # 2 waits for 1: cycle
        assert locks.deadlocks_detected == 1

    def test_three_party_cycle(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(2, R2, X)
        locks.acquire(3, R3, X)
        with pytest.raises(WouldBlock):
            locks.acquire(1, R2, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R3, X)
        with pytest.raises(DeadlockError):
            locks.acquire(3, R1, X)

    def test_victim_edges_removed_after_deadlock(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(2, R2, X)
        with pytest.raises(WouldBlock):
            locks.acquire(1, R2, X)
        with pytest.raises(DeadlockError):
            locks.acquire(2, R1, X)
        # Victim (2) releases; 1 can proceed.
        locks.release_all(2, 1.0)
        locks.acquire(1, R2, X)

    def test_chain_without_cycle_is_not_deadlock(self, locks):
        locks.acquire(1, R1, X)
        locks.acquire(2, R2, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)  # 2 -> 1
        with pytest.raises(WouldBlock):
            locks.acquire(3, R2, X)  # 3 -> 2 (chain, no cycle)
        assert locks.deadlocks_detected == 0
        assert locks.waiting_transactions() == {2, 3}

    def test_shared_requests_do_not_deadlock_each_other(self, locks):
        locks.acquire(1, R1, S)
        locks.acquire(2, R2, S)
        locks.acquire(1, R2, S)
        locks.acquire(2, R1, S)  # all compatible
        assert locks.deadlocks_detected == 0


class TestIdleEntryPurge:
    """Regression: release_all must not leak one _LockState per
    fragment ever touched (unbounded growth under multi-fragment
    traffic).  Idle entries past the retain horizon are purged."""

    def test_idle_entries_purged_past_horizon(self):
        locks = LockManager(retain_horizon_s=10.0)
        for txn in range(200):
            resource = ("t", txn)  # a different fragment every time
            locks.acquire(txn, resource, X)
            locks.release_all(txn, float(txn))
        # Sweeps ran as simulated time passed; old idle entries are gone.
        assert locks.entries_purged > 0
        assert len(locks._locks) < 200

    def test_recent_entries_survive_the_sweep(self):
        locks = LockManager(retain_horizon_s=10.0)
        locks.acquire(1, R1, X)
        locks.release_all(1, 100.0)
        # R1's release stamp is recent relative to the next sweep time.
        locks.acquire(2, R2, X)
        locks.release_all(2, 105.0)
        locks.acquire(3, R3, X)
        locks.release_all(3, 120.0)  # sweep fires; cutoff = 110
        assert R1 not in locks._locks and R2 not in locks._locks
        # Entries released within the horizon keep their wait floor.
        state = locks._locks.get(R3)
        assert state is not None and state.last_release_time == 120.0

    def test_held_and_waited_entries_never_purged(self):
        locks = LockManager(retain_horizon_s=1.0)
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        locks.acquire(3, R2, X)
        locks.release_all(3, 1000.0)  # sweep fires far in the future
        state = locks._locks[R1]
        assert 1 in state.holders  # still held: survived
        assert state.waiters  # still waited on: survived

    def test_purged_floor_is_safe(self):
        """A purged entry re-acquires with floor 0.0 — harmless, since
        any live requester's clock is already past the old release time
        (advance_to is a max)."""
        locks = LockManager(retain_horizon_s=5.0)
        locks.acquire(1, R1, X)
        locks.release_all(1, 3.0)
        locks.acquire(2, R2, X)
        locks.release_all(2, 50.0)  # sweeps R1's idle entry
        assert locks.acquire(3, R1, X) == 0.0


class TestAbandonedWaits:
    def test_withdrawn_wait_leaves_the_queue_and_the_graph(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        locks.withdraw_waits(2, keep=[R2])
        assert locks.waiting_transactions() == set()
        locks.release_all(1, 5.0)
        assert locks.acquire(3, R1, X) == 5.0

    def test_a_kept_wait_keeps_its_place(self, locks):
        locks.acquire(1, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(2, R1, X)
        with pytest.raises(WouldBlock):
            locks.acquire(3, R1, X)
        locks.withdraw_waits(2, keep=[R1])
        locks.release_all(1, 1.0)
        with pytest.raises(WouldBlock):
            locks.acquire(3, R1, X)
        locks.acquire(2, R1, X)


# -- the release index against the algorithm it replaced --------------------


class _ReferenceLockManager:
    """The lock manager before the per-transaction index, kept as the
    oracle: every entry visited on release, a rebuilt queue per entry,
    every blocker set scanned.  ``withdraw_waits`` is written the same
    brute-force way.  Its wait floor is the mode-aware one: an S grant
    waits for the last X release, an X grant for the last release."""

    def __init__(self, retain_horizon_s):
        self._locks = {}
        self._wait_for = {}
        self.deadlocks_detected = 0
        self.conflicts = 0
        self.retain_horizon_s = retain_horizon_s
        self.entries_purged = 0
        self._last_sweep_time = 0.0

    def locks_of(self, txn_id):
        return [r for r, state in self._locks.items() if txn_id in state.holders]

    def acquire(self, txn_id, resource, mode):
        state = self._locks.setdefault(resource, _LockState())
        held = state.holders.get(txn_id)
        if held is X or held is mode:
            return self._floor(state, held)
        conflicting = {
            other
            for other, other_mode in state.holders.items()
            if other != txn_id and not _compatible(mode, other_mode)
        }
        if held is S and mode is X and not conflicting:
            state.holders[txn_id] = X
            return self._floor(state, X)
        ahead = []
        for waiting, waiting_mode in state.waiters:
            if waiting == txn_id:
                break
            ahead.append((waiting, waiting_mode))
        blocking_waiters = {w for w, m in ahead if not _compatible(mode, m)}
        if not conflicting and not blocking_waiters:
            self._remove_waiter(state, txn_id)
            self._wait_for.pop(txn_id, None)
            state.holders[txn_id] = X if held is S else mode
            return self._floor(state, state.holders[txn_id])
        self.conflicts += 1
        blockers = conflicting | blocking_waiters
        if self._would_deadlock(txn_id, blockers):
            self.deadlocks_detected += 1
            self._wait_for.pop(txn_id, None)
            self._remove_waiter(state, txn_id)
            raise DeadlockError(
                f"transaction {txn_id} would deadlock on fragment {resource};"
                " chosen as victim"
            )
        self._wait_for.setdefault(txn_id, set()).update(blockers)
        if all(waiting != txn_id for waiting, _ in state.waiters):
            state.waiters.append((txn_id, mode))
        raise WouldBlock(txn_id, resource, blockers or set(state.holders))

    @staticmethod
    def _floor(state, granted):
        """An S grant waits for the last X release, an X grant for the
        last release of any hold."""
        if granted is S:
            return state.exclusive_release_time
        return state.last_release_time

    def _would_deadlock(self, txn_id, new_blockers):
        stack = sorted(new_blockers)
        seen = set()
        while stack:
            current = stack.pop()
            if current == txn_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._wait_for.get(current, ()))
        return False

    def release_all(self, txn_id, release_time):
        unblocked = []
        for resource, state in list(self._locks.items()):
            if txn_id in state.holders:
                if state.holders.pop(txn_id) is X:
                    state.exclusive_release_time = max(
                        state.exclusive_release_time, release_time
                    )
                state.last_release_time = max(state.last_release_time, release_time)
                if state.waiters:
                    unblocked.append(resource)
            self._remove_waiter(state, txn_id)
        self._wait_for.pop(txn_id, None)
        for waiting in self._wait_for.values():
            waiting.discard(txn_id)
        self._sweep_idle_entries(release_time)
        return unblocked

    def withdraw_waits(self, txn_id, keep):
        for resource, state in self._locks.items():
            if resource not in keep:
                self._remove_waiter(state, txn_id)
        if not any(
            waiting == txn_id
            for state in self._locks.values()
            for waiting, _mode in state.waiters
        ):
            self._wait_for.pop(txn_id, None)

    def _sweep_idle_entries(self, now):
        horizon = self.retain_horizon_s
        if now - self._last_sweep_time < horizon:
            return
        self._last_sweep_time = now
        cutoff = now - horizon
        stale = [
            resource
            for resource, state in self._locks.items()
            if not state.holders and not state.waiters and state.last_release_time <= cutoff
        ]
        for resource in stale:
            del self._locks[resource]
        self.entries_purged += len(stale)

    def _remove_waiter(self, state, txn_id):
        state.waiters = deque((w, m) for w, m in state.waiters if w != txn_id)


TXNS = st.integers(1, 5)
RESOURCES = st.sampled_from([R1, R2, R3, ("dept", 1)])
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), TXNS, RESOURCES, st.sampled_from([S, X])),
        st.tuples(st.just("release"), TXNS, st.integers(0, 40)),
        st.tuples(st.just("withdraw"), TXNS, st.frozensets(RESOURCES, max_size=2)),
    ),
    max_size=60,
)


def _apply(manager, operation, clock):
    kind, txn_id, *args = operation
    try:
        if kind == "acquire":
            return ("granted", manager.acquire(txn_id, *args))
        if kind == "release":
            return ("released", sorted(manager.release_all(txn_id, clock)))
        return ("withdrawn", manager.withdraw_waits(txn_id, args[0]))
    except (WouldBlock, DeadlockError) as error:
        return (type(error).__name__, str(error))


def _state(manager):
    return (
        {
            resource: (
                dict(state.holders),
                list(state.waiters),
                state.last_release_time,
                state.exclusive_release_time,
            )
            for resource, state in manager._locks.items()
        },
        list(manager._locks),
        manager._wait_for,
        {txn: sorted(manager.locks_of(txn)) for txn in range(1, 6)},
        (manager.deadlocks_detected, manager.conflicts, manager.entries_purged),
    )


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_indexed_manager_matches_the_reference_algorithm(operations):
    subject, reference = LockManager(retain_horizon_s=8.0), _ReferenceLockManager(8.0)
    clock = 0.0
    for operation in operations:
        if operation[0] == "release":
            clock += operation[2]
        assert _apply(subject, operation, clock) == _apply(reference, operation, clock)
        assert _state(subject) == _state(reference)


# -- an abandoned wait, through the GDH --------------------------------------


def _two_fragment_db():
    from repro import MachineConfig, PrismaDB

    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 2")
    db.bulk_load("r", [(i, 0) for i in range(10)])
    scheme = db.catalog.table("r").scheme
    keys = {scheme.fragment_of((i, 0)): i for i in range(10)}
    return db, keys[0], keys[1]


def test_a_wait_abandoned_for_another_statement_blocks_nobody():
    db, on_r0, on_r1 = _two_fragment_db()
    holder, waiter, third = db.session(), db.session(), db.session()
    holder.begin()
    holder.execute(f"UPDATE r SET v = 1 WHERE id = {on_r0}")
    waiter.begin()
    with pytest.raises(WouldBlock):
        waiter.execute(f"UPDATE r SET v = 2 WHERE id = {on_r0}")
    # The waiter gives up on R0 and runs something else instead.
    waiter.execute(f"UPDATE r SET v = 3 WHERE id = {on_r1}")
    holder.commit()
    # R0 has no holder, and nobody still asks for it ahead of us.
    assert third.execute(f"UPDATE r SET v = 4 WHERE id = {on_r0}").affected_rows == 1
    waiter.commit()
    assert db.query(f"SELECT v FROM r WHERE id = {on_r0}") == [(4,)]
    assert db.gdh.locks.waiting_transactions() == set()


def test_a_retried_statement_keeps_its_place_in_the_queue():
    db, on_r0, _on_r1 = _two_fragment_db()
    holder, first, second = db.session(), db.session(), db.session()
    holder.begin()
    holder.execute(f"UPDATE r SET v = 1 WHERE id = {on_r0}")
    for session in (first, second):
        session.begin()
        with pytest.raises(WouldBlock):
            session.execute(f"UPDATE r SET v = 2 WHERE id = {on_r0}")
    holder.commit()
    with pytest.raises(WouldBlock, match=r"must wait for \[\d+\]"):
        second.execute(f"UPDATE r SET v = 3 WHERE id = {on_r0}")
    first.execute(f"UPDATE r SET v = 2 WHERE id = {on_r0}")


def test_two_readers_of_one_fragment_share_it_in_simulated_time():
    db, on_r0, _on_r1 = _two_fragment_db()
    first, second, alone = db.session(), db.session(), db.session()
    start = max(first.clock, second.clock)
    for session in (first, second):
        session.advance_clock(start - session.clock)
    first.execute(f"SELECT v FROM r WHERE id = {on_r0}")
    second.execute(f"SELECT v FROM r WHERE id = {on_r0}")
    alone.advance_clock(first.clock + 1.0 - alone.clock)
    solo_start = alone.clock
    alone.execute(f"SELECT v FROM r WHERE id = {on_r0}")
    first_latency = first.clock - start
    second_latency = second.clock - start
    solo_latency = alone.clock - solo_start
    # The second reader queues for the element's CPU, a fraction of a
    # read; floored at the first reader's release, it would pay the
    # first one's latency plus its own statement after the lock.
    assert second_latency - first_latency < solo_latency / 4
