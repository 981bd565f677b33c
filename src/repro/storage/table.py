"""In-memory tables (relation fragments).

A :class:`Table` stores one relation fragment entirely in main memory:
an insertion-ordered map from *row id* to tuple, plus any number of
secondary indexes.  Row ids are stable for the life of a row, which is
what the indexes, the write-ahead log and the undo chains key on.

Every write reaches the indexes through two private steps: ``_enter``
puts a row in every index or, when one refuses it (a unique key already
taken), in none; ``_remove`` takes a row out of every index.  A refused
write leaves the rows and the indexes exactly as they were.

Every row enters through ``_validate``: the schema's coercion, plus a
refusal of ``inf`` and ``nan``.  Rows reach stable storage as Python
literals (the write-ahead log and the checkpoint snapshot), and a
non-finite float has no literal, so a table never accepts one.

When the table is bound to a :class:`~repro.machine.memory.MemoryAccount`
(a processing element's 16 MByte budget), every mutation re-accounts the
footprint, so overfilling an element raises
:class:`~repro.errors.OutOfMemoryError` — placement has real consequences
— and the write that would have overfilled it is taken back.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import isfinite
from typing import Any

from repro.errors import OutOfMemoryError, StorageError
from repro.machine.memory import MemoryAccount
from repro.storage.indexes import HashIndex, Index, OrderedIndex
from repro.storage.schema import Row, Schema
from repro.storage.types import DataType


class Table:
    """One main-memory relation fragment."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        memory: MemoryAccount | None = None,
    ):
        self.name = name
        self.schema = schema
        self.memory = memory
        self._rows: dict[int, Row] = {}
        self._next_rid = 0
        self._data_bytes = 0
        self.indexes: dict[str, Index] = {}
        self._memory_tag = f"table:{name}"
        # The columns that can hold a float, the only values _validate
        # has to look at beyond the schema's coercion.
        self._float_columns = tuple(
            position
            for position, column in enumerate(schema.columns)
            if column.data_type in (DataType.FLOAT, DataType.ANY)
        )

    # -- memory accounting ----------------------------------------------------

    @property
    def data_bytes(self) -> int:
        """Bytes of row data (excluding index structures)."""
        return self._data_bytes

    def footprint_bytes(self) -> int:
        """Current storage footprint: rows + index structures."""
        index_bytes = sum(index.estimated_bytes() for index in self.indexes.values())
        return self._data_bytes + index_bytes

    def _reaccount(self) -> None:
        if self.memory is not None:
            self.memory.resize(self._memory_tag, self.footprint_bytes())

    def release_memory(self) -> None:
        """Drop this table's memory reservation (on OFM termination)."""
        if self.memory is not None:
            self.memory.free(self._memory_tag)

    # -- mutation ---------------------------------------------------------------

    def _validate(self, row: Sequence[Any]) -> Row:
        """Coerce *row* to the schema; refuse a non-finite float."""
        validated = self.schema.validate_row(row)
        for position in self._float_columns:
            value = validated[position]
            if isinstance(value, float) and not isfinite(value):
                raise StorageError(
                    f"cannot store {value!r} in column"
                    f" {self.schema.columns[position].name!r} of {self.name!r}:"
                    " only finite numbers are stored"
                )
        return validated

    def _enter(self, rid: int, row: Row) -> None:
        """Enter *row* under *rid* in every index, or in none: when an
        index refuses it, take it back out of the indexes it entered."""
        indexes = self.indexes.values()
        try:
            for index in indexes:
                index.insert(rid, row)
        except Exception:
            for entered in indexes:
                if entered is index:
                    break
                entered.delete(rid, row)
            raise

    def _remove(self, rid: int, row: Row) -> None:
        """Take *row* under *rid* out of every index."""
        for index in self.indexes.values():
            index.delete(rid, row)

    def _store(self, rid: int, row: Row) -> None:
        """Store the validated *row* under the unused *rid* — its index
        entries, the row and its bytes — or, when an index refuses it or
        the element runs out of memory, none of them."""
        self._enter(rid, row)
        size = self.schema.row_bytes(row)
        self._data_bytes += size
        try:
            self._reaccount()
        except OutOfMemoryError:
            self._data_bytes -= size
            self._remove(rid, row)
            raise
        self._rows[rid] = row

    def insert(self, row: Sequence[Any]) -> int:
        """Validate and store *row*; returns its new row id."""
        validated = self._validate(row)
        rid = self._next_rid
        self._store(rid, validated)
        self._next_rid = rid + 1
        return rid

    def insert_with_rid(self, rid: int, row: Sequence[Any]) -> None:
        """Re-insert a row under a known id (recovery/undo path)."""
        if rid in self._rows:
            raise StorageError(f"row id {rid} already present in {self.name!r}")
        self._store(rid, self._validate(row))
        self._next_rid = max(self._next_rid, rid + 1)

    def follow_rids(self, source: "Table") -> None:
        """Number the next rows at least as far on as *source* does: a
        copy made of *source* gives its next insert the same row id."""
        self._next_rid = max(self._next_rid, source._next_rid)

    def delete(self, rid: int) -> Row:
        """Remove and return the row under *rid*."""
        row = self.get(rid)
        self._remove(rid, row)
        del self._rows[rid]
        self._data_bytes -= self.schema.row_bytes(row)
        self._reaccount()
        return row

    def update(self, rid: int, new_row: Sequence[Any]) -> Row:
        """Replace the row under *rid*; returns the old row.  A refused
        update (an index or the element's memory) leaves the old row and
        its index entries in place."""
        old_row = self.get(rid)
        validated = self._validate(new_row)
        self._remove(rid, old_row)
        try:
            self._enter(rid, validated)
        except Exception:
            self._enter(rid, old_row)
            raise
        growth = self.schema.row_bytes(validated) - self.schema.row_bytes(old_row)
        self._data_bytes += growth
        try:
            self._reaccount()
        except OutOfMemoryError:
            self._data_bytes -= growth
            self._remove(rid, validated)
            self._enter(rid, old_row)
            raise
        self._rows[rid] = validated
        return old_row

    def truncate(self) -> int:
        """Delete all rows; returns how many were removed."""
        removed = len(self._rows)
        self._rows.clear()
        self._data_bytes = 0
        for name, index in list(self.indexes.items()):
            self.indexes[name] = _fresh_index(index)
        self._reaccount()
        return removed

    # -- reading -------------------------------------------------------------------

    def get(self, rid: int) -> Row:
        try:
            return self._rows[rid]
        except KeyError:
            raise StorageError(f"no row {rid} in table {self.name!r}") from None

    def has_rid(self, rid: int) -> bool:
        return rid in self._rows

    def scan(self) -> Iterator[tuple[int, Row]]:
        """All ``(rid, row)`` pairs in insertion order."""
        return iter(self._rows.items())

    def rows(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    # -- indexes --------------------------------------------------------------------

    def create_hash_index(
        self, name: str, columns: Sequence[str], unique: bool = False
    ) -> HashIndex:
        return self._add_index(
            HashIndex(name, [self.schema.index_of(c) for c in columns], unique)
        )

    def create_ordered_index(
        self, name: str, columns: Sequence[str], unique: bool = False
    ) -> OrderedIndex:
        return self._add_index(
            OrderedIndex(name, [self.schema.index_of(c) for c in columns], unique)
        )

    def _add_index(self, index: Index) -> Index:
        if index.name in self.indexes:
            raise StorageError(f"index {index.name!r} already exists on {self.name!r}")
        for rid, row in self._rows.items():
            index.insert(rid, row)
        self.indexes[index.name] = index
        try:
            self._reaccount()
        except OutOfMemoryError:
            del self.indexes[index.name]
            raise
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise StorageError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]
        self._reaccount()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self)}, bytes={self.footprint_bytes()})"


def _fresh_index(index: Index) -> Index:
    if isinstance(index, HashIndex):
        return HashIndex(index.name, index.key_positions, index.unique)
    return OrderedIndex(index.name, index.key_positions, index.unique)
