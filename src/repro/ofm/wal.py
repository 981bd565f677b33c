"""Write-ahead logging to the disk-equipped processing elements.

Section 3.2: "some of the processing elements will also be connected to
secondary storage (disk).  Using these, the multi-computer system
implements stable storage and automatic recovery upon system failures."

Each durable OFM keeps a WAL; records buffer in memory and are *forced*
(written through to the nearest disk element, across the network if
necessary) before the OFM votes in two-phase commit.  A checkpoint
writes a full fragment snapshot and truncates the log; a prepared
participant may truncate its PrepareRecord only once the transaction's
decision is on the commit log's disk (DESIGN.md §9).

Records serialize via ``repr``/``ast.literal_eval`` — rows contain only
SQL literals, so this is loss-free and needs no external format.
"""

from __future__ import annotations

import ast as _pyast
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import RecoveryError
from repro.machine.machine import Machine


@dataclass(frozen=True)
class LogRecord:
    """Base class; ``kind`` discriminates on the wire."""

    txn_id: int
    kind: ClassVar[str] = "?"

    def payload(self) -> tuple:
        return ()

    def serialize(self) -> tuple:
        return (self.kind, self.txn_id, *self.payload())


@dataclass(frozen=True)
class InsertRecord(LogRecord):
    rid: int
    row: tuple
    kind: ClassVar[str] = "I"

    def payload(self) -> tuple:
        return (self.rid, self.row)


@dataclass(frozen=True)
class DeleteRecord(LogRecord):
    rid: int
    row: tuple
    kind: ClassVar[str] = "D"

    def payload(self) -> tuple:
        return (self.rid, self.row)


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    rid: int
    old_row: tuple
    new_row: tuple
    kind: ClassVar[str] = "U"

    def payload(self) -> tuple:
        return (self.rid, self.old_row, self.new_row)


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """A participant's vote.  It names the transaction's participants
    (OFM copy names), so restart can decide a transaction whose
    coordinator left no entry: it committed iff every named participant
    holds a durable PrepareRecord for it and no durable AbortRecord."""

    participants: tuple[str, ...] = ()
    kind: ClassVar[str] = "P"

    def payload(self) -> tuple:
        return (self.participants,)


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    kind: ClassVar[str] = "C"


@dataclass(frozen=True)
class AbortRecord(LogRecord):
    kind: ClassVar[str] = "A"


_RECORD_TYPES = {
    "I": lambda txn, payload: InsertRecord(txn, payload[0], tuple(payload[1])),
    "D": lambda txn, payload: DeleteRecord(txn, payload[0], tuple(payload[1])),
    "U": lambda txn, payload: UpdateRecord(
        txn, payload[0], tuple(payload[1]), tuple(payload[2])
    ),
    "P": lambda txn, payload: PrepareRecord(txn, tuple(payload[0])),
    "C": lambda txn, payload: CommitRecord(txn),
    "A": lambda txn, payload: AbortRecord(txn),
}


def _decode(serialized: tuple) -> LogRecord:
    kind, txn_id, *payload = serialized
    builder = _RECORD_TYPES.get(kind)
    if builder is None:
        raise RecoveryError(f"corrupt log record kind {kind!r}")
    return builder(txn_id, payload)


class WriteAheadLog:
    """One OFM's durable log, stored on the nearest disk element.

    Parameters
    ----------
    machine:
        The multi-computer (for disk placement and cost accounting).
    owner_node:
        The element hosting the OFM; forces travel from here to the
        nearest disk.
    name:
        Log identity; stable across restarts (``wal/<name>/...`` keys).
    """

    def __init__(self, machine: Machine, owner_node: int, name: str):
        self.machine = machine
        self.owner_node = owner_node
        self.name = name
        disk_node = machine.nearest_disk_node(owner_node)
        self.disk = machine.nodes[disk_node].disk
        assert self.disk is not None
        self._buffer: list[LogRecord] = []
        self._next_chunk = self._recover_next_chunk()
        self.forces = 0
        self.records_written = 0

    # -- keys -----------------------------------------------------------------

    @property
    def _chunk_prefix(self) -> str:
        return f"wal/{self.name}/"

    @property
    def _snapshot_key(self) -> str:
        return f"snap/{self.name}"

    def _recover_next_chunk(self) -> int:
        existing = self.disk.keys(self._chunk_prefix)
        if not existing:
            return 0
        return max(int(key.rsplit("/", 1)[1]) for key in existing) + 1

    # -- appending ----------------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        """Buffer a record (volatile until the next force)."""
        self._buffer.append(record)

    def force(self) -> float:
        """Write buffered records to stable storage.

        Returns the simulated time the force took (network hop to the
        disk element + sequential disk write); the caller charges it to
        the OFM's clock.
        """
        if not self._buffer:
            return 0.0
        payload = repr([record.serialize() for record in self._buffer]).encode("utf-8")
        key = f"{self._chunk_prefix}{self._next_chunk}"
        self._next_chunk += 1
        self.records_written += len(self._buffer)
        # Cleared before the transfer: a force cut off from its disk
        # loses these records for good, so a failed PREPARE never
        # becomes a durable vote later.
        self._buffer.clear()
        self.forces += 1
        network = self.machine.transfer_time(
            self.owner_node, self.disk.node, len(payload)
        )
        return network + self.disk.write(key, payload, sequential=True)

    def lose_unforced(self) -> None:
        """A crash: buffered records are volatile and die with it."""
        self._buffer.clear()

    # -- checkpointing ---------------------------------------------------------------

    def checkpoint(self, rows_with_rids: list[tuple[int, tuple]]) -> float:
        """Write a snapshot of the fragment and truncate the log.

        Returns the simulated cost.  Buffered records are forced first
        (they may belong to in-flight transactions and must survive).
        """
        cost = self.force()
        payload = repr(rows_with_rids).encode("utf-8")
        # Snapshot must land before old chunks disappear; order matters
        # for crash consistency (we only simulate the cost, but keep the
        # logical order honest).
        cost += self.machine.transfer_time(
            self.owner_node, self.disk.node, len(payload)
        )
        cost += self.disk.write(self._snapshot_key, payload, sequential=True)
        for key in self.disk.keys(self._chunk_prefix):
            self.disk.delete(key)
        self._next_chunk = 0
        return cost

    # -- recovery reads -----------------------------------------------------------------

    def read_snapshot(self) -> tuple[list[tuple[int, tuple]], float]:
        """(snapshot rows-with-rids, simulated cost); empty if none."""
        if self._snapshot_key not in self.disk:
            return [], 0.0
        payload, cost = self.disk.read(self._snapshot_key, sequential=True)
        try:
            rows = [  # prismalint: disable=PL101 -- recovery cost is charged via the disk read + transfer above
                (rid, tuple(row)) for rid, row in _pyast.literal_eval(payload.decode())
            ]
        except (ValueError, SyntaxError, TypeError) as exc:
            raise RecoveryError(f"corrupt snapshot {self._snapshot_key}: {exc}") from None
        cost += self.machine.transfer_time(self.disk.node, self.owner_node, len(payload))
        return rows, cost

    def read_records(self, reader: int | None = None) -> tuple[list[LogRecord], float]:
        """All durable records in append order, plus the simulated cost
        of shipping them to *reader* (default: the owner's element)."""
        reader = self.owner_node if reader is None else reader
        records: list[LogRecord] = []
        cost = 0.0
        for key in sorted(
            self.disk.keys(self._chunk_prefix),
            key=lambda k: int(k.rsplit("/", 1)[1]),
        ):
            payload, read_cost = self.disk.read(key, sequential=True)
            cost += read_cost
            cost += self.machine.transfer_time(self.disk.node, reader, len(payload))
            try:
                serialized = _pyast.literal_eval(payload.decode("utf-8"))
            except (ValueError, SyntaxError) as exc:
                raise RecoveryError(f"corrupt WAL chunk {key}: {exc}") from None
            records.extend(_decode(item) for item in serialized)
        return records, cost

    def wipe(self) -> None:
        """Remove all durable state (DROP TABLE)."""
        for key in self.disk.keys(self._chunk_prefix):
            self.disk.delete(key)
        self.disk.delete(self._snapshot_key)
        self._buffer.clear()
        self._next_chunk = 0

    def durable_bytes(self) -> int:
        total = sum(
            self.disk.size_of(key) for key in self.disk.keys(self._chunk_prefix)
        )
        return total + self.disk.size_of(self._snapshot_key)
