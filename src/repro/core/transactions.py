"""Transactions and the transaction manager (paper Section 2.2).

Strict two-phase locking at fragment granularity: a transaction
acquires locks as it touches fragments and holds them to the end.
Commit runs two-phase commit over the participating OFMs
(:mod:`repro.core.twophase`); abort undoes at every participant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import InvalidTransactionState
from repro.core.locks import LockManager, LockMode, Resource
from repro.ofm.manager import OneFragmentManager


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction: id, simulated timing, locks, participants."""

    txn_id: int
    started_at: float
    state: TxnState = TxnState.ACTIVE
    #: OFMs whose fragments this transaction modified (2PC participants).
    participants: dict[str, OneFragmentManager] = field(default_factory=dict)
    #: Fragments read or written (for lock bookkeeping / reporting).
    touched: set[Resource] = field(default_factory=set)
    finished_at: float | None = None
    autocommit: bool = False

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def add_participant(self, ofm: OneFragmentManager) -> None:
        self.participants.setdefault(ofm.name, ofm)


class TransactionManager:
    """Creates transactions and coordinates their lifecycle."""

    def __init__(self, lock_manager: LockManager | None = None):
        self.locks = lock_manager or LockManager()
        self._next_txn_id = 1
        self.active: dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0

    def begin(self, started_at: float, autocommit: bool = False) -> Transaction:
        txn = Transaction(self._next_txn_id, started_at, autocommit=autocommit)
        self._next_txn_id += 1
        self.active[txn.txn_id] = txn
        return txn

    def lock(self, txn: Transaction, resource: Resource, mode: LockMode) -> float:
        """Acquire a fragment lock for *txn* (raises WouldBlock/Deadlock).

        Returns the logical wait floor: the simulated time before which
        the grant could not have happened.
        """
        txn.require_active()
        floor = self.locks.acquire(txn.txn_id, resource, mode)
        txn.touched.add(resource)
        return floor

    def finish(
        self, txn: Transaction, state: TxnState, finished_at: float
    ) -> list[Resource]:
        """Mark the transaction finished and release its locks.

        Returns resources whose waiters may now run.
        """
        txn.require_active()
        txn.state = state
        txn.finished_at = finished_at
        if state is TxnState.COMMITTED:
            self.committed += 1
        else:
            self.aborted += 1
        self.active.pop(txn.txn_id, None)
        return self.locks.release_all(txn.txn_id, finished_at)

    def withdraw(self, txn: Transaction, finished_at: float) -> None:
        """End a transaction that only waited for a lock, or an
        administrative one that backed out: its locks and wait-for
        edges go as in an abort, but it is not counted as one."""
        self.finish(txn, TxnState.ABORTED, finished_at)
        self.aborted -= 1
